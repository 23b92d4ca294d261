package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// FuzzServeNoPanic is the serving layer's no-panic guarantee: whatever
// bytes arrive on any solver endpoint, the handler answers with an HTTP
// status — it never reaches a solver panic. The seed corpus walks every
// validation branch (both platform kinds, the fullhet mode gate,
// malformed link matrices, garbage) and `go test` replays it on every
// run; `go test -fuzz=FuzzServeNoPanic` explores from there.
func FuzzServeNoPanic(f *testing.F) {
	seeds := []struct {
		endpoint byte
		body     string
	}{
		{0, `{"pipeline":{"works":[1,2],"deltas":[1,1,1]},"platform":{"speeds":[1,2],"bandwidth":1},"bound":10}`},
		{0, `{"pipeline":{"works":[1,2],"deltas":[1,1,1]},"platform":{"kind":"fully-heterogeneous","speeds":[1,2],"links":[[0,1],[1,0]]},"bound":10}`},
		{0, `{"pipeline":{"works":[1,2],"deltas":[1,1,1]},"platform":{"kind":"fully-heterogeneous","speeds":[1,2],"links":[[0,1],[1,0]]},"bound":10,"mode":"exact"}`},
		{0, `{"pipeline":{"works":[1,2],"deltas":[1,1,1]},"platform":{"kind":"fully-heterogeneous","speeds":[1,2],"links":[[0,1]]},"bound":10}`},
		{0, `{"pipeline":{"works":[1,2],"deltas":[1,1,1]},"platform":{"kind":"grid","speeds":[1,2],"bandwidth":1},"bound":10}`},
		{0, `{"pipeline":{"works":[1,2],"deltas":[1,1,1]},"platform":{"kind":"fully-heterogeneous","speeds":[1,2],"links":[[0,-1],[-1,0]]},"bound":10}`},
		{0, `{"pipeline":{"works":[-1],"deltas":[0,0]},"platform":{"speeds":[1],"bandwidth":1},"bound":1}`},
		{0, `{"bound":1e308,"mode":"F1","objective":"min-period"}`},
		{1, `{"pipeline":{"works":[1,2],"deltas":[1,1,1]},"platform":{"kind":"fully-heterogeneous","speeds":[1,2],"links":[[0,1],[1,0]]},"points":4}`},
		{1, `{"pipeline":{"works":[1,2],"deltas":[1,1,1]},"platform":{"speeds":[1,2],"bandwidth":1},"points":-1}`},
		{2, `{"instances":[{"pipeline":{"works":[1,2],"deltas":[1,1,1]},"platform":{"kind":"fully-heterogeneous","speeds":[1,2],"links":[[0,1],[1,0]]}}],"bound":10}`},
		{2, `{"instances":[],"bound":1}`},
		{2, `{nope`},
		{0, ``},
		{0, `[1,2,3]`},
		{0, "\xff\xfe{"},
	}
	for _, s := range seeds {
		f.Add(s.endpoint, []byte(s.body))
	}
	srv := New(Options{CacheEntries: 64})
	paths := []string{"/v1/solve", "/v1/sweep", "/v1/batch"}
	f.Fuzz(func(t *testing.T, endpoint byte, body []byte) {
		path := paths[int(endpoint)%len(paths)]
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		// A panic anywhere below fails the fuzz run; every input must
		// come back as a status code instead.
		srv.ServeHTTP(rec, req)
		if rec.Code < 200 || rec.Code > 599 {
			t.Fatalf("implausible status %d", rec.Code)
		}
	})
}

// FuzzWireDecode pins the single-pass wire scanner to strict
// encoding/json, on arbitrary bytes and for every body kind:
//
//   - when the scanner accepts a body, encoding/json accepts it too and
//     fills bitwise-identical fields (the scanner decodes into a struct
//     dirtied by an earlier body, as the pooled scratch is);
//   - the status, X-Cache and body served for the input equal what a
//     server decoding through encoding/json alone serves.
//
// The seed corpus covers paper-grid bodies and the spellings the scanner
// must hand to the fallback: escapes, null, case-variant and duplicate
// keys, plus -0, subnormals, out-of-range floats, int overflow and
// ragged link matrices.
func FuzzWireDecode(f *testing.F) {
	for i, body := range paperGridBodies(f) {
		if i%9 == 0 {
			f.Add(body)
		}
	}
	const (
		pl  = `"pipeline":{"works":[1,2],"deltas":[1,1,1]}`
		pf  = `"platform":{"speeds":[1,2],"bandwidth":1}`
		het = `"platform":{"kind":"fully-heterogeneous","speeds":[1,2,3],"links":[[0,1,2],[1,0,3],[2,3,0]]}`
		in  = `{` + pl + `,` + pf + `}`
	)
	for _, s := range []string{
		`{` + pl + `,` + pf + `,"bound":10,"objective":"min-period","mode":"h5","timeout_ms":1000}`,
		`{` + pl + `,` + het + `,"bound":10,"mode":"F1"}`,
		`{` + pl + `,` + pf + `,"points":4,"timeout_ms":0}`,
		`{"instances":[` + in + `,` + in + `],"bound":1.5,"relative_bound":true,"exact":false,"workers":2}`,
		` {` + pl + ` , ` + pf + ` , "bound" : 10 } ` + "\n",
		`{` + pl + `,` + pf + `,"bound":10,"mode":"H\u0031"}`,
		`{` + pl + `,` + pf + `,"bound":10,"mode":"H\\u0031"}`,
		`{` + pl + `,` + pf + `,"b\\u006fund":10}`,
		`{` + pl + `,` + pf + `,"bound":10,"mode":null}`,
		`{"pipeline":null,` + pf + `,"bound":10}`,
		`{"instances":null,"bound":1}`,
		`{` + pl + `,` + pf + `,"Bound":10}`,
		`{"PIPELINE":{"Works":[1,2],"deltas":[1,1,1]},` + pf + `,"bound":10}`,
		`{` + pl + `,` + pf + `,"bound":10,"bound":20}`,
		`{` + pl + `,` + pl + `,` + pf + `,"bound":10}`,
		`{"pipeline":{"works":[1,2],"works":[3],"deltas":[1,1,1]},` + pf + `,"bound":10}`,
		`{"instances":[` + in + `],"instances":[],"bound":1}`,
		`{` + pl + `,` + pf + `,"bound":-0}`,
		`{"pipeline":{"works":[-0,1],"deltas":[0,-0.0,1]},` + pf + `,"bound":10}`,
		`{"pipeline":{"works":[5e-324,1],"deltas":[1,2.2250738585072011e-308,1]},` + pf + `,"bound":4.9e-324}`,
		`{` + pl + `,` + pf + `,"bound":1e400}`,
		`{` + pl + `,` + pf + `,"bound":1e-400}`,
		`{` + pl + `,` + pf + `,"bound":10,"timeout_ms":9223372036854775808}`,
		`{` + pl + `,` + pf + `,"bound":10,"timeout_ms":-9223372036854775808}`,
		`{` + pl + `,` + pf + `,"bound":10,"timeout_ms":1.5}`,
		`{` + pl + `,` + pf + `,"bound":10,"timeout_ms":1e3}`,
		`{` + pl + `,` + pf + `,"points":99999999999999999999}`,
		`{` + pl + `,` + pf + `,"points":-1}`,
		`{` + pl + `,"platform":{"kind":"fully-heterogeneous","speeds":[1,2],"links":[[0,1],[1]]},"bound":10}`,
		`{` + pl + `,"platform":{"kind":"fully-heterogeneous","speeds":[1,2],"links":[[],[1,0,7]]},"bound":10}`,
		`{` + pl + `,"platform":{"kind":"fully-heterogeneous","speeds":[1,2],"links":[]},"bound":10}`,
		`{` + pl + `,` + pf + `,"bound":01}`,
		`{` + pl + `,` + pf + `,"bound":1.}`,
		`{` + pl + `,` + pf + `,"bound":.5}`,
		`{` + pl + `,` + pf + `,"bound":+1}`,
		`{` + pl + `,` + pf + `,"bound":10,"mode":"périod"}`,
		`{` + pl + `,` + pf + `,"bound":10,"mode":"H` + "\xff" + `1"}`,
		`{` + pl + `,` + pf + `,"bound":10,"mode":"H` + "\x01" + `1"}`,
		`{` + pl + `,` + pf + `,"bound":10}}`,
		`{` + pl + `,` + pf + `,"bound":10}]`,
		`{` + pl + `,` + pf + `,"bound":10,}`,
		`{"instances":[` + in + `,],"bound":1}`,
		`{"instances":[` + in + `],"bound":1,"exact":tru}`,
		`{}`,
		``,
		`[]`,
	} {
		f.Add([]byte(s))
	}

	scan := New(Options{CacheEntries: -1})
	ref := New(Options{CacheEntries: -1})
	ref.jsonOnly = true
	dirty := paperGridBodies(f)[0]
	kinds := []struct {
		path string
		new  func() wireBody
	}{
		{"/v1/solve", func() wireBody { return new(solveWire) }},
		{"/v1/sweep", func() wireBody { return new(sweepWire) }},
		{"/v1/batch", func() wireBody { return new(batchWire) }},
	}
	grid := paperGrid()[len(paperGrid())-1]
	batchDirty, err := json.Marshal(map[string]any{
		"instances": []map[string]any{
			{"pipeline": grid.App, "platform": json.RawMessage(`{"kind":"fully-heterogeneous","speeds":[9,9],"links":[[9,9,9],[9]]}`)},
			{"pipeline": grid.App, "platform": grid.Plat},
		},
		"bound": 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, k := range kinds {
			got, want := k.new(), k.new()
			(&wireScanner{b: dirty}).decode(got, true)
			(&wireScanner{b: batchDirty}).decode(got, true)
			s := wireScanner{b: body}
			got.reset()
			if s.object(got) && s.end() {
				if err := (&wireScanner{b: body}).decode(want, false); err != nil {
					t.Fatalf("%s: scanner accepted %q, encoding/json rejects it: %v", k.path, body, err)
				}
				if !sameBits(reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()) {
					t.Fatalf("%s: scanner and encoding/json disagree on %q:\n scan %+v\n json %+v", k.path, body, got, want)
				}
			}

			gs, gc, gb := serveBody(scan, k.path, body)
			ws, wc, wb := serveBody(ref, k.path, body)
			if gs == http.StatusGatewayTimeout || ws == http.StatusGatewayTimeout {
				continue // a deadline race, not a decode difference
			}
			if gs != ws || gc != wc || !bytes.Equal(gb, wb) {
				t.Fatalf("%s %q:\n scanner served %d %q %q\n    json served %d %q %q", k.path, body, gs, gc, gb, ws, wc, wb)
			}
		}
	})
}

// serveBody posts body to path on s and returns status, X-Cache and body.
func serveBody(s *Server, path string, body []byte) (int, string, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Header().Get("X-Cache"), rec.Body.Bytes()
}

// sameBits reports whether two decoded wire values are identical, floats
// compared by bit pattern (so -0 and 0 differ). A nil and an empty slice
// are equal: every consumer reads slices by length.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
	"pipesched/internal/portfolio"
	"pipesched/internal/workload"
)

// TestWireKeysMatchObjectKeys pins the wire-level key functions to the
// object-level ones: the serving hot path computes keys from raw decoded
// slices, and those keys must be byte-identical to hashing the
// constructed pipeline/platform — otherwise a request could miss its own
// earlier result.
func TestWireKeysMatchObjectKeys(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		in := workload.Generate(workload.Config{Family: workload.E2, Stages: 7, Processors: 5, Seed: seed})
		works, deltas := in.App.Works(), in.App.Deltas()
		pw := &platformWire{Speeds: in.Plat.Speeds(), Bandwidth: in.Plat.Bandwidth()}
		for _, mode := range []string{"portfolio", "best", "H1"} {
			objKey := solveKey(portfolio.MinimizeLatency, mode, 12.5, in.App, in.Plat)
			wireKey := solveKeyWire(portfolio.MinimizeLatency, mode, 12.5, works, deltas, pw)
			if objKey != wireKey {
				t.Errorf("seed %d mode %s: wire solve key diverges from object key", seed, mode)
			}
		}
		if sweepKey(9, in.App, in.Plat) != sweepKeyWire(9, works, deltas, pw) {
			t.Errorf("seed %d: wire sweep key diverges from object key", seed)
		}
	}
}

// TestFullHetWireKeysMatchObjectKeys is the fully heterogeneous twin of
// TestWireKeysMatchObjectKeys, including the diagonal-normalisation rule:
// the constructor ignores diagonal link cells, so a request carrying
// garbage there must still hash to the constructed platform's key.
func TestFullHetWireKeysMatchObjectKeys(t *testing.T) {
	app := pipeline.MustNew([]float64{3, 1, 4, 1, 5}, []float64{2, 7, 1, 8, 2, 8})
	speeds := []float64{2, 3, 5}
	links := [][]float64{
		{0, 4, 9},
		{4, 0, 6},
		{9, 6, 0},
	}
	plat, err := platform.NewFullyHeterogeneous(speeds, links)
	if err != nil {
		t.Fatal(err)
	}
	dirtyDiag := [][]float64{
		{123, 4, 9},
		{4, -7, 6},
		{9, 6, math.NaN()},
	}
	for _, pw := range []*platformWire{
		{Kind: platform.FullyHeterogeneous.String(), Speeds: speeds, Links: links},
		{Kind: platform.FullyHeterogeneous.String(), Speeds: speeds, Links: dirtyDiag},
	} {
		for _, mode := range []string{"portfolio", "best", "F1"} {
			objKey := solveKey(portfolio.MinimizeLatency, mode, 12.5, app, plat)
			wireKey := solveKeyWire(portfolio.MinimizeLatency, mode, 12.5, app.Works(), app.Deltas(), pw)
			if objKey != wireKey {
				t.Errorf("mode %s: fullhet wire solve key diverges from object key", mode)
			}
		}
		if sweepKey(9, app, plat) != sweepKeyWire(9, app.Works(), app.Deltas(), pw) {
			t.Error("fullhet wire sweep key diverges from object key")
		}
	}
}

// TestCanonSeparatesLinkBandwidths is the cache-correctness regression
// the fullhet lane demands: two platforms identical except for a single
// link bandwidth must produce distinct canonical keys on both the object
// and the wire path, and the fullhet stream must never collide with a
// comm-homogeneous platform of the same speeds.
func TestCanonSeparatesLinkBandwidths(t *testing.T) {
	app := pipeline.MustNew([]float64{1, 2}, []float64{1, 1, 1})
	speeds := []float64{1, 2, 3}
	mkLinks := func(b01 float64) [][]float64 {
		return [][]float64{
			{0, b01, 5},
			{b01, 0, 7},
			{5, 7, 0},
		}
	}
	a, err := platform.NewFullyHeterogeneous(speeds, mkLinks(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := platform.NewFullyHeterogeneous(speeds, mkLinks(3))
	if err != nil {
		t.Fatal(err)
	}
	if solveKey(portfolio.MinimizeLatency, "portfolio", 10, app, a) ==
		solveKey(portfolio.MinimizeLatency, "portfolio", 10, app, b) {
		t.Error("object keys collide across a changed link bandwidth")
	}
	wa := &platformWire{Kind: platform.FullyHeterogeneous.String(), Speeds: speeds, Links: mkLinks(2)}
	wb := &platformWire{Kind: platform.FullyHeterogeneous.String(), Speeds: speeds, Links: mkLinks(3)}
	if solveKeyWire(portfolio.MinimizeLatency, "portfolio", 10, app.Works(), app.Deltas(), wa) ==
		solveKeyWire(portfolio.MinimizeLatency, "portfolio", 10, app.Works(), app.Deltas(), wb) {
		t.Error("wire keys collide across a changed link bandwidth")
	}
	if sweepKeyWire(9, app.Works(), app.Deltas(), wa) == sweepKeyWire(9, app.Works(), app.Deltas(), wb) {
		t.Error("wire sweep keys collide across a changed link bandwidth")
	}
	hom, err := platform.New(speeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if solveKey(portfolio.MinimizeLatency, "portfolio", 10, app, a) ==
		solveKey(portfolio.MinimizeLatency, "portfolio", 10, app, hom) {
		t.Error("fullhet key collides with a comm-homogeneous platform of the same speeds")
	}
}

// TestErrorJSONShape pins the hand-rendered error body byte-for-byte
// against encoding/json on a torture table: quotes, backslashes, HTML
// metacharacters, control bytes, multi-byte UTF-8, the JS line
// separators and invalid UTF-8 must all escape exactly as the encoder
// would, so clients observe no change from the pooled error path.
func TestErrorJSONShape(t *testing.T) {
	messages := []string{
		"plain message",
		`unknown platform kind "grid" (want "comm-homogeneous" or "fully-heterogeneous")`,
		"bound -1 is invalid (must be finite and > 0)",
		"tabs\tand\nnewlines\rand\\slashes",
		"html <script>&amp;</script> metacharacters",
		"control \x01\x02\x1f bytes",
		"unicode: périod λatency 周期",
		"js separators \u2028 and \u2029",
		"invalid utf-8: \xff\xfe tail",
		"",
	}
	for _, msg := range messages {
		want, err := json.Marshal(errorResponse{Error: msg})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		rec := httptest.NewRecorder()
		writeErrorBody(rec, http.StatusBadRequest, msg)
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("message %q:\n got %q\nwant %q", msg, got, want)
		}
		if rec.Code != http.StatusBadRequest {
			t.Errorf("message %q: status %d", msg, rec.Code)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Errorf("message %q: Content-Length %q, want %d", msg, cl, len(want))
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("message %q: Content-Type %q", msg, ct)
		}
	}
}

// TestErrorShapeEndToEnd drives real invalid requests through the HTTP
// stack and asserts every error body is exactly one {"error": ...}
// object with a trailing newline, decodable into errorResponse, on both
// the 4xx and the 5xx-mapped paths.
func TestErrorShapeEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(t)
	for name, body := range map[string][]byte{
		"bad-json":      []byte("{nope"),
		"bad-bound":     solveBody(t, in, map[string]any{"bound": -3.5}),
		"bad-mode":      solveBody(t, in, map[string]any{"bound": 1.0, "mode": "H99"}),
		"infeasible":    solveBody(t, in, map[string]any{"bound": 1e-9, "mode": "best"}),
		"unknown-kind":  []byte(`{"pipeline":{"works":[1,2],"deltas":[1,1,1]},"platform":{"kind":"grid","speeds":[1,2],"bandwidth":1},"bound":10}`),
		"het-exact":     []byte(`{"pipeline":{"works":[1,2],"deltas":[1,1,1]},"platform":{"kind":"fully-heterogeneous","speeds":[1,2],"links":[[0,1],[1,0]]},"bound":10,"mode":"exact"}`),
		"het-bad-links": []byte(`{"pipeline":{"works":[1,2],"deltas":[1,1,1]},"platform":{"kind":"fully-heterogeneous","speeds":[1,2],"links":[[0,1]]},"bound":10}`),
		"trailing-data": append(solveBody(t, in, map[string]any{"bound": 1.0}), []byte(" {}")...),
	} {
		t.Run(name, func(t *testing.T) {
			resp, data := post(t, ts, "/v1/solve", body)
			if resp.StatusCode < 400 {
				t.Fatalf("status %d, want an error", resp.StatusCode)
			}
			if !bytes.HasSuffix(data, []byte("}\n")) {
				t.Fatalf("error body %q does not end in }\\n", data)
			}
			var er errorResponse
			if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
				t.Fatalf("error body %q not an error object (%v)", data, err)
			}
			// The body must be the canonical encoding of its own message.
			want, _ := json.Marshal(errorResponse{Error: er.Error})
			if !bytes.Equal(data, append(want, '\n')) {
				t.Fatalf("error body %q is not canonical (want %q)", data, append(want, '\n'))
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q", ct)
			}
		})
	}
}

// TestResponsesCarryContentLength pins the rendered-bytes contract: both
// hits and misses go out with an exact Content-Length (one write, no
// chunking) and a trailing newline.
func TestResponsesCarryContentLength(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(t)
	body := solveBody(t, in, map[string]any{"bound": 1e6})
	for _, pass := range []string{"miss", "hit"} {
		resp, data := post(t, ts, "/v1/solve", body)
		if got := resp.Header.Get("X-Cache"); got != pass {
			t.Fatalf("X-Cache %q, want %q", got, pass)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(data)) {
			t.Fatalf("%s: Content-Length %q for %d body bytes", pass, cl, len(data))
		}
		if !bytes.HasSuffix(data, []byte("\n")) {
			t.Fatalf("%s: body missing trailing newline", pass)
		}
	}
}

// TestMetricsConservation pins the /metrics consistency law the sharded
// rebuild must preserve: over any quiesced run of valid cacheable
// requests, hits + collapsed + misses equals the requests that reached
// the cache, and the endpoint counters account for every HTTP request.
func TestMetricsConservation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(t)
	const uniques, repeats = 5, 3
	valid := 0
	for u := 0; u < uniques; u++ {
		body := solveBody(t, in, map[string]any{"bound": 1e6 + float64(u)})
		for rep := 0; rep < repeats; rep++ {
			resp, data := post(t, ts, "/v1/solve", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
			valid++
		}
	}
	// Two invalid requests: they hit the endpoint counters but never
	// reach the cache.
	post(t, ts, "/v1/solve", []byte("{bad"))
	post(t, ts, "/v1/solve", solveBody(t, in, map[string]any{"bound": -1.0}))

	_, mbody := get(t, ts, "/metrics")
	var snap MetricsSnapshot
	if err := json.Unmarshal(mbody, &snap); err != nil {
		t.Fatalf("bad /metrics body: %v\n%s", err, mbody)
	}
	if got := snap.Cache.Hits + snap.Cache.Misses + snap.Cache.Collapsed; got != uint64(valid) {
		t.Errorf("hits+misses+collapsed = %d, want %d (the cacheable requests)", got, valid)
	}
	if snap.Cache.Misses != uniques || snap.Cache.Hits != uniques*(repeats-1) {
		t.Errorf("cache = %+v, want %d misses and %d hits", snap.Cache, uniques, uniques*(repeats-1))
	}
	es := snap.Endpoints["solve"]
	if es.Requests != uint64(valid+2) || es.Errors != 2 {
		t.Errorf("solve endpoint = %+v, want %d requests, 2 errors", es, valid+2)
	}
	if snap.Cache.Shards < 1 {
		t.Errorf("snapshot reports %d shards", snap.Cache.Shards)
	}
	if fmt.Sprint(snap.Cache.HitRate) == "NaN" || snap.Cache.HitRate <= 0 {
		t.Errorf("hit rate %v", snap.Cache.HitRate)
	}
}

// TestStrictTopLevelDecodeStillEnforced pins the strictness contract
// after the wire rework: unknown top-level fields and trailing data are
// rejected on every wire-decoded endpoint. Trailing closers are
// rejected too, on the scanner path and on the encoding/json fallback
// (reached here through a "timeout_ms":null member, which only the
// fallback accepts).
func TestStrictTopLevelDecodeStillEnforced(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(t)
	type testCase struct {
		name, path string
		body       []byte
		want       string // substring of the 400 body
	}
	cases := []testCase{
		{"solve-unknown", "/v1/solve", solveBody(t, in, map[string]any{"bound": 1.0, "bogus": 1}), "bogus"},
		{"sweep-unknown", "/v1/sweep", solveBody(t, in, map[string]any{"bogus": 1}), "bogus"},
		{"batch-unknown", "/v1/batch", []byte(`{"instances":[],"bound":1,"bogus":1}`), "bogus"},
	}
	batch, err := json.Marshal(map[string]any{
		"instances": []map[string]any{{"pipeline": in.App, "platform": in.Plat}},
		"bound":     1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	valid := map[string][]byte{
		"/v1/solve": solveBody(t, in, map[string]any{"bound": 1e6}),
		"/v1/sweep": solveBody(t, in, map[string]any{"points": 4}),
		"/v1/batch": batch,
	}
	const trailing = "trailing data after the JSON object"
	for _, path := range []string{"/v1/solve", "/v1/sweep", "/v1/batch"} {
		scanned := valid[path]
		fallback := append([]byte(`{"timeout_ms":null,`), scanned[1:]...)
		name := strings.TrimPrefix(path, "/v1/")
		for _, tail := range []string{"}", "]", "}}]]", " \n}", " {}", "x"} {
			cases = append(cases,
				testCase{name + "-scan-tail-" + tail, path, append(append([]byte(nil), scanned...), tail...), trailing},
				testCase{name + "-fallback-tail-" + tail, path, append(append([]byte(nil), fallback...), tail...), trailing})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := post(t, ts, tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
			}
			if !strings.Contains(string(data), tc.want) {
				t.Fatalf("error does not name %q: %s", tc.want, data)
			}
		})
	}
	// Whitespace after the object is not trailing data, on either path.
	for path, body := range valid {
		for _, b := range [][]byte{body, append([]byte(`{"timeout_ms":null,`), body[1:]...)} {
			resp, data := post(t, ts, path, append(append([]byte(nil), b...), " \t\r\n"...))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s with trailing whitespace: status %d: %s", path, resp.StatusCode, data)
			}
		}
	}
}

// TestBatchWireKeyMatchesObjectKey pins batchKeyWire to batchKey: the
// batch hot path computes its cache key from the pooled wire scratch,
// and a primed batch must hit the entry that an object-keyed writer (or
// an older build) stored. Worker count must not fragment the key on
// either path.
func TestBatchWireKeyMatchesObjectKey(t *testing.T) {
	var instances []workload.Instance
	var wires []instanceWire
	for seed := int64(1); seed <= 4; seed++ {
		in := workload.Generate(workload.Config{Family: workload.E2, Stages: 6, Processors: 4, Seed: seed})
		instances = append(instances, in)
		wires = append(wires, instanceWire{
			Pipeline: pipelineWire{Works: in.App.Works(), Deltas: in.App.Deltas()},
			Platform: platformWire{Speeds: in.Plat.Speeds(), Bandwidth: in.Plat.Bandwidth()},
		})
	}
	app := pipeline.MustNew([]float64{3, 1, 4}, []float64{2, 7, 1, 8})
	speeds := []float64{2, 3, 5}
	links := [][]float64{
		{0, 4, 9},
		{4, 0, 6},
		{9, 6, 0},
	}
	fullhet, err := platform.NewFullyHeterogeneous(speeds, links)
	if err != nil {
		t.Fatal(err)
	}
	instances = append(instances, workload.Instance{App: app, Plat: fullhet})
	wires = append(wires, instanceWire{
		Pipeline: pipelineWire{Works: app.Works(), Deltas: app.Deltas()},
		Platform: platformWire{Kind: platform.FullyHeterogeneous.String(), Speeds: speeds, Links: links},
	})
	for _, opts := range []portfolio.BatchOptions{
		{Objective: portfolio.MinimizeLatency, Bound: 1.5},
		{Objective: portfolio.MinimizePeriod, Bound: 2, RelativeBound: true, Exact: true},
	} {
		if batchKey(opts, instances) != batchKeyWire(opts, wires) {
			t.Errorf("opts %+v: wire batch key diverges from object key", opts)
		}
		alt := opts
		alt.Workers = 7
		if batchKeyWire(alt, wires) != batchKeyWire(opts, wires) {
			t.Errorf("opts %+v: worker count fragments the batch key", opts)
		}
	}
	// Distinct instance order must produce a distinct key: a batch is an
	// ordered request, results are positional.
	swapped := append([]instanceWire(nil), wires...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	opts := portfolio.BatchOptions{Bound: 1.5}
	if batchKeyWire(opts, swapped) == batchKeyWire(opts, wires) {
		t.Error("reordering instances kept the batch key")
	}
}

// TestOversizedBodyScratchNotPooled pins the pool cap: a request whose
// body outgrew maxPooledBody must not carry that buffer back into the
// scratch pool, where it would stay pinned for the life of the process.
func TestOversizedBodyScratchNotPooled(t *testing.T) {
	s := New(Options{})
	body := solveBody(t, testInstance(t), map[string]any{"bound": 1e6})
	body = append(body, bytes.Repeat([]byte{' '}, 2*maxPooledBody)...)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	for i := 0; i < 4; i++ {
		sc := scratchPool.Get().(*scratch)
		defer scratchPool.Put(sc)
		if cap(sc.body) > maxPooledBody {
			t.Fatalf("pooled scratch holds a %d-byte body buffer, cap %d", cap(sc.body), maxPooledBody)
		}
	}
}

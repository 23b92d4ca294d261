package service

// Pooled request/response scratch for the serving hot path, and the
// strict single-pass decoder that fills it.
//
// Requests are decoded into reusable wire structs — raw works/deltas/
// speeds slices whose backing arrays survive between requests — instead
// of validated pipeline/platform objects, because the cache key only
// needs the raw numbers. The expensive constructors (prefix sums, speed
// orders, class tables) run on cache misses only, where a solve is about
// to dwarf them anyway. Responses render through pooled buffers; cached
// bodies carry their trailing newline so a hit is exactly one Write.
//
// A body is read once into a pooled buffer, then scanned in one pass
// straight into its wire struct (wireScanner). The scanner accepts only
// the canonical spelling that json.Marshal and every in-repo client
// produce: plain lowercase keys, strings of printable ASCII without
// escapes, no null, no duplicate keys, and nothing but whitespace after
// the object. Numbers follow the JSON grammar and parse through
// strconv.ParseFloat(…, 64), exactly as encoding/json parses them, so
// float bits, cache keys and answers do not depend on the path taken.
// Any other body — a rare but legal spelling or a malformed one — is
// decoded again from scratch by strict encoding/json, which accepts
// exactly what it always accepted and words every 400 as before.
// FuzzWireDecode pins the two paths to each other.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// pipelineWire is the raw JSON form of a pipeline.
type pipelineWire struct {
	Works  []float64 `json:"works"`
	Deltas []float64 `json:"deltas"`
}

func (pw *pipelineWire) reset() {
	pw.Works = pw.Works[:0]
	pw.Deltas = pw.Deltas[:0]
}

// platformWire is the raw JSON form of a platform.
type platformWire struct {
	Kind      string      `json:"kind"`
	Speeds    []float64   `json:"speeds"`
	Bandwidth float64     `json:"bandwidth"`
	Links     [][]float64 `json:"links"`
}

func (pw *platformWire) reset() {
	pw.Kind = ""
	pw.Speeds = pw.Speeds[:0]
	pw.Bandwidth = 0
	pw.Links = pw.Links[:0]
}

// solveWire is the top-level body of POST /v1/solve, decoded in one
// strict pass: the nested wire structs reuse their slice capacity across
// requests, so a warm decode allocates nothing for the numbers.
type solveWire struct {
	Pipeline  pipelineWire `json:"pipeline"`
	Platform  platformWire `json:"platform"`
	Objective string       `json:"objective"`
	Bound     float64      `json:"bound"`
	Mode      string       `json:"mode"`
	TimeoutMS int          `json:"timeout_ms"`
}

func (sw *solveWire) reset() {
	sw.Pipeline.reset()
	sw.Platform.reset()
	sw.Objective, sw.Mode = "", ""
	sw.Bound = 0
	sw.TimeoutMS = 0
}

// instanceWire is one element of a batch body: the same pipeline and
// platform wire pair as a solve body.
type instanceWire struct {
	Pipeline pipelineWire `json:"pipeline"`
	Platform platformWire `json:"platform"`
}

// batchWire is the top-level body of POST /v1/batch, decoded into pooled
// scratch like solveWire. Both decode paths reuse the instance slice and
// every nested number slice when capacity allows, so a warm decode of a
// batch allocates for none of the instance payloads — on the primed
// hot path the handler goes body → key → cached bytes without
// materialising a single pipeline or platform object. reset truncates
// every nested slice so a field absent from this request can never leak
// a previous request's numbers into the key.
type batchWire struct {
	Instances     []instanceWire `json:"instances"`
	Objective     string         `json:"objective"`
	Bound         float64        `json:"bound"`
	RelativeBound bool           `json:"relative_bound"`
	Exact         bool           `json:"exact"`
	Workers       int            `json:"workers"`
	TimeoutMS     int            `json:"timeout_ms"`
}

func (bw *batchWire) reset() {
	for i := range bw.Instances {
		bw.Instances[i].Pipeline.reset()
		bw.Instances[i].Platform.reset()
	}
	bw.Instances = bw.Instances[:0]
	bw.Objective = ""
	bw.Bound = 0
	bw.RelativeBound, bw.Exact = false, false
	bw.Workers, bw.TimeoutMS = 0, 0
}

// sweepWire is the top-level body of POST /v1/sweep.
type sweepWire struct {
	Pipeline  pipelineWire `json:"pipeline"`
	Platform  platformWire `json:"platform"`
	Points    int          `json:"points"`
	TimeoutMS int          `json:"timeout_ms"`
}

func (sw *sweepWire) reset() {
	sw.Pipeline.reset()
	sw.Platform.reset()
	sw.Points = 0
	sw.TimeoutMS = 0
}

// missing reports whether a decoded sub-object was absent, null or
// empty — the cases the nil-pointer check used to catch. (An explicitly
// empty works/speeds list is invalid anyway, so folding it into
// "missing" only changes the message, not the status.)
func (pw *pipelineWire) missing() bool { return len(pw.Works) == 0 }
func (pw *platformWire) missing() bool { return len(pw.Speeds) == 0 }

// scratch is one request's reusable state: the response-status recorder,
// the raw body buffer, the scanner over it (held here so that it does not
// escape to the heap per request) and the top-level wire bodies.
type scratch struct {
	rec   statusRecorder
	body  []byte
	scan  wireScanner
	solve solveWire
	sweep sweepWire
	batch batchWire
}

// maxPooledBody is the largest body buffer a scratch may carry back into
// the pool. A scratch that read a bigger body is dropped whole, with the
// wire slices that body filled, so one large request cannot pin memory
// for the life of the process.
const maxPooledBody = 64 << 10

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// release returns sc to the pool unless its last body was oversized.
func (sc *scratch) release() {
	sc.rec.ResponseWriter = nil // no stale writer retained in the pool
	if cap(sc.body) > maxPooledBody {
		return
	}
	scratchPool.Put(sc)
}

// ------------------------------------------------------------ decoding --

// errTrailingData is the 400 for anything but whitespace after the
// body's object, on either decode path.
var errTrailingData = badRequest("invalid request body: trailing data after the JSON object")

// wireBody is a top-level request body: *solveWire, *sweepWire or
// *batchWire.
type wireBody interface {
	wireObject
	reset()
}

// wireObject is a JSON object the scanner can fill: field scans the
// value of one member and returns that member's bit in its object, or 0
// when the key or the value is outside the canonical subset.
type wireObject interface {
	field(s *wireScanner, key []byte) uint32
}

// wireScanner is a cursor over one complete request body.
type wireScanner struct {
	b []byte
	i int
}

// decode fills v from the whole body. With scan set the single-pass
// scanner is tried first; a body it declines is decoded by strict
// encoding/json into a freshly reset v: unknown fields (at any depth)
// and trailing data are rejected.
func (s *wireScanner) decode(v wireBody, scan bool) error {
	v.reset()
	if scan {
		if s.object(v) && s.end() {
			return nil
		}
		v.reset()
	}
	dec := json.NewDecoder(bytes.NewReader(s.b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid request body: %v", err)
	}
	if s.i = int(dec.InputOffset()); !s.end() {
		return errTrailingData
	}
	return nil
}

// space skips JSON whitespace.
func (s *wireScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// end reports whether only whitespace is left.
func (s *wireScanner) end() bool {
	s.space()
	return s.i == len(s.b)
}

// eat skips whitespace and consumes c if it comes next.
func (s *wireScanner) eat(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object scans one object, handing every member to o.field. A repeated
// key declines the body, so the scanner never has to reproduce
// encoding/json's last-one-wins and sub-object merge rules.
func (s *wireScanner) object(o wireObject) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	var seen uint32
	for {
		key, ok := s.plainString()
		if !ok || !s.eat(':') {
			return false
		}
		bit := o.field(s, key)
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if !s.eat(',') {
			return s.eat('}')
		}
	}
}

// plainString scans a string of printable ASCII without escapes and
// returns its contents, aliasing the body.
func (s *wireScanner) plainString() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20, c == '\\', c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

// wireWords are the string values the API defines. Returning the constant
// instead of converting the body bytes keeps a canonical request from
// allocating for its kind, objective or mode.
var wireWords = [...]string{
	"comm-homogeneous", "fully-heterogeneous", "min-latency", "min-period",
	"portfolio", "best", "exact", "H1", "H2", "H3", "H4", "H5", "H6", "F1", "F5", "F6",
}

// str scans a string value.
func (s *wireScanner) str() (string, bool) {
	b, ok := s.plainString()
	if !ok {
		return "", false
	}
	for _, w := range wireWords {
		if string(b) == w {
			return w, true
		}
	}
	return string(b), true
}

// number scans one JSON number and returns its text.
func (s *wireScanner) number() ([]byte, bool) {
	s.space()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	switch {
	case s.i < len(s.b) && s.b[s.i] == '0':
		s.i++
	case !s.digits():
		return nil, false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if !s.digits() {
			return nil, false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if !s.digits() {
			return nil, false
		}
	}
	return s.b[start:s.i], true
}

// digits scans one or more decimal digits.
func (s *wireScanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// float scans a number into a float64 the way encoding/json does; a
// value out of float64 range declines the body.
func (s *wireScanner) float() (float64, bool) {
	t, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(t), 64)
	return f, err == nil
}

// integer scans a number into an int. A fraction, an exponent or an
// overflow declines the body (ParseInt rejects all three, as
// encoding/json does for an int field), and the fallback words that 400.
func (s *wireScanner) integer() (int, bool) {
	t, ok := s.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(t), 10, 0)
	return int(n), err == nil
}

// boolean scans true or false.
func (s *wireScanner) boolean() (bool, bool) {
	s.space()
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
		return false, true
	}
	return false, false
}

// floats scans an array of numbers into dst's backing array. The
// returned slice is kept even on failure, so its capacity stays pooled.
func (s *wireScanner) floats(dst []float64) ([]float64, bool) {
	dst = dst[:0]
	if !s.eat('[') {
		return dst, false
	}
	if s.eat(']') {
		return dst, true
	}
	for {
		f, ok := s.float()
		if !ok {
			return dst, false
		}
		dst = append(dst, f)
		if !s.eat(',') {
			return dst, s.eat(']')
		}
	}
}

// matrix scans an array of number arrays (a links matrix, ragged or
// not), reusing every row's backing array.
func (s *wireScanner) matrix(dst [][]float64) ([][]float64, bool) {
	dst = dst[:0]
	if !s.eat('[') {
		return dst, false
	}
	if s.eat(']') {
		return dst, true
	}
	for {
		var row []float64
		if n := len(dst); n < cap(dst) {
			row = dst[:n+1][n]
		}
		row, ok := s.floats(row)
		dst = append(dst, row)
		if !ok {
			return dst, false
		}
		if !s.eat(',') {
			return dst, s.eat(']')
		}
	}
}

// instances scans an array of batch instances. Elements past len are
// reused in place: reset has already cleared them.
func (s *wireScanner) instances(dst []instanceWire) ([]instanceWire, bool) {
	dst = dst[:0]
	if !s.eat('[') {
		return dst, false
	}
	if s.eat(']') {
		return dst, true
	}
	for {
		n := len(dst)
		if n < cap(dst) {
			dst = dst[:n+1]
		} else {
			dst = append(dst, instanceWire{})
		}
		if !s.object(&dst[n]) {
			return dst, false
		}
		if !s.eat(',') {
			return dst, s.eat(']')
		}
	}
}

// fieldBit is the member bit n of an object when its value scanned.
func fieldBit(n uint, ok bool) uint32 {
	if !ok {
		return 0
	}
	return 1 << n
}

func (pw *pipelineWire) field(s *wireScanner, key []byte) uint32 {
	var ok bool
	switch string(key) {
	case "works":
		pw.Works, ok = s.floats(pw.Works)
		return fieldBit(0, ok)
	case "deltas":
		pw.Deltas, ok = s.floats(pw.Deltas)
		return fieldBit(1, ok)
	}
	return 0
}

func (pw *platformWire) field(s *wireScanner, key []byte) uint32 {
	var ok bool
	switch string(key) {
	case "kind":
		pw.Kind, ok = s.str()
		return fieldBit(0, ok)
	case "speeds":
		pw.Speeds, ok = s.floats(pw.Speeds)
		return fieldBit(1, ok)
	case "bandwidth":
		pw.Bandwidth, ok = s.float()
		return fieldBit(2, ok)
	case "links":
		pw.Links, ok = s.matrix(pw.Links)
		return fieldBit(3, ok)
	}
	return 0
}

// instanceField scans the pipeline and platform members every body
// kind shares; they take bits 0 and 1 of their object.
func instanceField(s *wireScanner, key []byte, pl *pipelineWire, pf *platformWire) uint32 {
	switch string(key) {
	case "pipeline":
		return fieldBit(0, s.object(pl))
	case "platform":
		return fieldBit(1, s.object(pf))
	}
	return 0
}

func (iw *instanceWire) field(s *wireScanner, key []byte) uint32 {
	return instanceField(s, key, &iw.Pipeline, &iw.Platform)
}

func (sw *solveWire) field(s *wireScanner, key []byte) uint32 {
	var ok bool
	switch string(key) {
	case "objective":
		sw.Objective, ok = s.str()
		return fieldBit(2, ok)
	case "bound":
		sw.Bound, ok = s.float()
		return fieldBit(3, ok)
	case "mode":
		sw.Mode, ok = s.str()
		return fieldBit(4, ok)
	case "timeout_ms":
		sw.TimeoutMS, ok = s.integer()
		return fieldBit(5, ok)
	}
	return instanceField(s, key, &sw.Pipeline, &sw.Platform)
}

func (sw *sweepWire) field(s *wireScanner, key []byte) uint32 {
	var ok bool
	switch string(key) {
	case "points":
		sw.Points, ok = s.integer()
		return fieldBit(2, ok)
	case "timeout_ms":
		sw.TimeoutMS, ok = s.integer()
		return fieldBit(3, ok)
	}
	return instanceField(s, key, &sw.Pipeline, &sw.Platform)
}

func (bw *batchWire) field(s *wireScanner, key []byte) uint32 {
	var ok bool
	switch string(key) {
	case "instances":
		bw.Instances, ok = s.instances(bw.Instances)
		return fieldBit(0, ok)
	case "objective":
		bw.Objective, ok = s.str()
		return fieldBit(1, ok)
	case "bound":
		bw.Bound, ok = s.float()
		return fieldBit(2, ok)
	case "relative_bound":
		bw.RelativeBound, ok = s.boolean()
		return fieldBit(3, ok)
	case "exact":
		bw.Exact, ok = s.boolean()
		return fieldBit(4, ok)
	case "workers":
		bw.Workers, ok = s.integer()
		return fieldBit(5, ok)
	case "timeout_ms":
		bw.TimeoutMS, ok = s.integer()
		return fieldBit(6, ok)
	}
	return 0
}

// bufPool holds render buffers for response bodies. Buffers are leased
// for one encode and released immediately, so the pool's steady-state
// footprint is one buffer per concurrent renderer.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// renderJSON encodes v through a pooled buffer into an exact-size body,
// trailing newline included — the bytes stored in the cache and written
// verbatim on every hit.
func renderJSON(v any) ([]byte, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		bufPool.Put(buf)
		return nil, err
	}
	body := make([]byte, buf.Len())
	copy(body, buf.Bytes())
	bufPool.Put(buf)
	return body, nil
}

// X-Cache tier indices. The first three coincide with cache.Source
// (miss, hit, collapsed); the rest are the peer tiers of clustered
// serving: remote-hit/remote-miss report a response proxied from a
// key replica (split by whether the replica itself had it cached),
// hedged-hit reports a proxied response won by a hedge attempt rather
// than the first replica, and fallback reports a local solve taken
// because every replica was unreachable.
const (
	tierMiss = iota
	tierHit
	tierCollapsed
	tierRemoteHit
	tierRemoteMiss
	tierFallback
	tierHedgedHit
)

// Static header values: assigning a shared slice into the header map
// avoids the per-request []string allocation of Header.Set. The slices
// are never mutated (net/http only reads them), and the keys are already
// in canonical MIME case.
var (
	hdrJSON      = []string{"application/json"}
	hdrXCacheVal = [...][]string{
		tierMiss:       {"miss"},
		tierHit:        {"hit"},
		tierCollapsed:  {"collapsed"},
		tierRemoteHit:  {"remote-hit"},
		tierRemoteMiss: {"remote-miss"},
		tierFallback:   {"fallback"},
		tierHedgedHit:  {"hedged-hit"},
	}
)

// appendJSONString appends the JSON string literal for s to buf with
// exactly encoding/json's escaping rules — short escapes for the common
// controls, \u00xx for the rest, HTML-unsafe characters and the JS line
// separators escaped, invalid UTF-8 replaced — so hand-rendered error
// bodies are byte-identical to encoder output. Pinned against
// json.Marshal by TestErrorJSONShape.
func appendJSONString(buf *bytes.Buffer, s string) {
	const hexDigits = "0123456789abcdef"
	buf.WriteByte('"')
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			switch {
			case b == '"':
				buf.WriteString(`\"`)
			case b == '\\':
				buf.WriteString(`\\`)
			case b == '\n':
				buf.WriteString(`\n`)
			case b == '\r':
				buf.WriteString(`\r`)
			case b == '\t':
				buf.WriteString(`\t`)
			case b < 0x20, b == '<', b == '>', b == '&':
				buf.WriteString(`\u00`)
				buf.WriteByte(hexDigits[b>>4])
				buf.WriteByte(hexDigits[b&0xf])
			default:
				buf.WriteByte(b)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			buf.WriteString(`\ufffd`)
			i++
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			buf.WriteString(`\u202`)
			buf.WriteByte(hexDigits[r&0xf])
			i += size
			continue
		}
		buf.WriteString(s[i : i+size])
		i += size
	}
	buf.WriteByte('"')
}

// writeErrorBody renders {"error": msg} through a pooled buffer and
// writes it with the given status: the non-2xx path allocates one
// Content-Length string beyond the message itself.
func writeErrorBody(w http.ResponseWriter, code int, msg string) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.WriteString(`{"error":`)
	appendJSONString(buf, msg)
	buf.WriteString("}\n")
	h := w.Header()
	h["Content-Type"] = hdrJSON
	setContentLength(h, buf.Len())
	w.WriteHeader(code)
	w.Write(buf.Bytes())
	bufPool.Put(buf)
}

// setContentLength sets Content-Length without the Header.Set slice
// allocation for the digits themselves.
func setContentLength(h http.Header, n int) {
	var digits [20]byte
	i := len(digits)
	for {
		i--
		digits[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	h["Content-Length"] = []string{string(digits[i:])}
}

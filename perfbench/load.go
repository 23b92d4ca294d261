package main

// The load process: a closed loop over a fixed request sequence with a
// fixed number of connections. Each request records its status, its
// latency from request write to last body byte, and a hash of its body;
// the first body of every key is kept for verification after the phase.

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// call is one request of a phase: which answer key it asks for and which
// node it goes to.
type call struct {
	key  int
	node int
}

// outcome is what the client observed for one call.
type outcome struct {
	status int // 0 on a transport error
	lat    time.Duration
	sum    uint64
}

type loader struct {
	nodes []string // base URLs
	keys  []answerKey
	seed  maphash.Seed

	mu    sync.Mutex
	first [][]byte  // first body seen per key
	idle  [][]*conn // per node: open keep-alive connections not in use
}

func newLoader(nodes []string, keys []answerKey) *loader {
	return &loader{
		nodes: nodes,
		keys:  keys,
		seed:  maphash.MakeSeed(),
		first: make([][]byte, len(keys)),
		idle:  make([][]*conn, len(nodes)),
	}
}

// close closes every idle connection.
func (l *loader) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, cs := range l.idle {
		for _, c := range cs {
			c.nc.Close()
		}
		l.idle[i] = nil
	}
}

// conn is one keep-alive HTTP/1.1 connection to one daemon. The load
// process speaks the protocol directly (requests rendered into a reused
// buffer, responses framed by chunked encoding, Content-Length or
// connection close) because net/http.Client costs too much CPU on the
// cache-hit path: on a 2-vCPU host it took the load process from 18% to
// 31% of the machine and cut hit-heavy req_per_s by a third, so it would
// measure the client as much as the daemon.
type conn struct {
	nc  net.Conn
	br  *bufio.Reader
	req []byte
}

func (l *loader) get(node int) (*conn, error) {
	l.mu.Lock()
	if n := len(l.idle[node]); n > 0 {
		c := l.idle[node][n-1]
		l.idle[node] = l.idle[node][:n-1]
		l.mu.Unlock()
		return c, nil
	}
	l.mu.Unlock()
	nc, err := net.Dial("tcp", strings.TrimPrefix(l.nodes[node], "http://"))
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}, nil
}

func (l *loader) put(node int, c *conn) {
	l.mu.Lock()
	l.idle[node] = append(l.idle[node], c)
	l.mu.Unlock()
}

// roundTrip sends one POST and reads the status and body into buf.
func (c *conn) roundTrip(host, path string, body []byte, buf *bytes.Buffer) (status int, keepAlive bool, err error) {
	c.req = append(c.req[:0], "POST "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, host...)
	c.req = append(c.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, body...)
	if _, err := c.nc.Write(c.req); err != nil {
		return 0, false, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, false, err
	}
	length, chunked, keepAlive := -1, false, true
	for {
		h, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, false, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		name, value, _ := bytes.Cut(h, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, false, err
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")) && bytes.EqualFold(value, []byte("chunked")):
			chunked = true
		case bytes.EqualFold(name, []byte("Connection")) && bytes.EqualFold(value, []byte("close")):
			keepAlive = false
		}
	}
	// Body framing as RFC 9112 §6.3 orders it: chunked, then
	// Content-Length, else the body runs to the end of the connection.
	buf.Reset()
	switch {
	case chunked:
		if _, err = buf.ReadFrom(httputil.NewChunkedReader(c.br)); err == nil {
			err = skipTrailer(c.br)
		}
	case length >= 0:
		_, err = io.CopyN(buf, c.br, int64(length))
	default:
		keepAlive = false
		_, err = buf.ReadFrom(c.br)
	}
	if err != nil {
		return 0, false, err
	}
	return status, keepAlive, nil
}

// skipTrailer consumes a chunked body's trailer section, up to and
// including its closing empty line.
func skipTrailer(br *bufio.Reader) error {
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return err
		}
		if len(bytes.TrimRight(line, "\r\n")) == 0 {
			return nil
		}
	}
}

// do sends one call and returns its outcome. A transport error is an
// outcome with status 0, never a retry.
func (l *loader) do(c call, buf *bytes.Buffer) outcome {
	k := &l.keys[c.key]
	start := time.Now()
	cn, err := l.get(c.node)
	if err != nil {
		return outcome{lat: time.Since(start)}
	}
	status, keepAlive, err := cn.roundTrip(strings.TrimPrefix(l.nodes[c.node], "http://"), k.path, k.body, buf)
	lat := time.Since(start)
	if err != nil || !keepAlive {
		cn.nc.Close()
	} else {
		l.put(c.node, cn)
	}
	if err != nil {
		return outcome{lat: lat}
	}
	o := outcome{status: status, lat: lat, sum: maphash.Bytes(l.seed, buf.Bytes())}
	if o.status == http.StatusOK {
		l.mu.Lock()
		if l.first[c.key] == nil {
			l.first[c.key] = bytes.Clone(buf.Bytes())
		}
		l.mu.Unlock()
	}
	return o
}

// run sends calls over conns connections, closed loop, and returns one
// outcome per call. It never cancels a request it has sent: every call
// runs to completion, so the phase's own end cannot produce failures.
func (l *loader) run(calls []call, conns int) []outcome {
	out := make([]outcome, len(calls))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(calls) {
					return
				}
				out[i] = l.do(calls[i], &buf)
			}
		}()
	}
	wg.Wait()
	return out
}

// phase is the record of one timed phase: its calls, their outcomes,
// the wall time, the daemons' CPU over it and the load process's own.
type phase struct {
	calls     []call
	outs      []outcome
	wall      time.Duration
	cpu       time.Duration
	clientCPU time.Duration
}

func (l *loader) timed(f fleet, calls []call, conns int) (phase, error) {
	cpu0, err := f.cpu()
	if err != nil {
		return phase{}, err
	}
	self0, t0 := selfCPU(), time.Now()
	outs := l.run(calls, conns)
	wall, clientCPU := time.Since(t0), selfCPU()-self0
	cpu1, err := f.cpu()
	if err != nil {
		return phase{}, err
	}
	return phase{calls: calls, outs: outs, wall: wall, cpu: cpu1 - cpu0, clientCPU: clientCPU}, nil
}

// selfCPU is the load process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// prime sends every key of keys once, round-robin over the first nodes
// daemons, and fails on any non-200 answer: set-up must leave the daemons
// primed.
func (l *loader) prime(keys []int, nodes, conns int) error {
	calls := make([]call, len(keys))
	for i, k := range keys {
		calls[i] = call{key: k, node: i % nodes}
	}
	for i, o := range l.run(calls, conns) {
		if o.status != http.StatusOK {
			return fmt.Errorf("priming %s key %d: status %d", l.keys[calls[i].key].path, calls[i].key, o.status)
		}
	}
	return nil
}

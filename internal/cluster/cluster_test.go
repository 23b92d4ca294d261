package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// keyOf derives a deterministic test key, mimicking the service's
// SHA-256 canonical digests.
func keyOf(i int) Key {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	return sha256.Sum256(b[:])
}

func TestTopologyOrderIndependence(t *testing.T) {
	urls := []string{"http://a:1", "http://b:2", "http://c:3"}
	shuffled := []string{"http://c:3", "http://a:1", "http://b:2"}
	t1, err := NewTopology(urls, "http://b:2")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := NewTopology(shuffled, "http://b:2")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := t1.Peers(), t2.Peers(); len(got) != len(want) {
		t.Fatalf("peer lists differ: %v vs %v", got, want)
	}
	for i, p := range t1.Peers() {
		if t2.Peer(i) != p {
			t.Fatalf("peer %d: %q vs %q — normalisation must be order-independent", i, p, t2.Peer(i))
		}
	}
	if t1.Self() != t2.Self() {
		t.Fatalf("self index differs: %d vs %d", t1.Self(), t2.Self())
	}
	for i := 0; i < 200; i++ {
		k := keyOf(i)
		if t1.Owner(k) != t2.Owner(k) {
			t.Fatalf("key %d: owners disagree across list orders", i)
		}
	}
}

func TestTopologyNormalization(t *testing.T) {
	// Scheme defaulting, trailing slash, host case: all one peer.
	topo, err := NewTopology([]string{"LOCALHOST:9000/", "http://other:9001"}, "http://localhost:9000")
	if err != nil {
		t.Fatal(err)
	}
	if topo.Size() != 2 {
		t.Fatalf("size %d, want 2", topo.Size())
	}
	if topo.Peer(topo.Self()) != "http://localhost:9000" {
		t.Fatalf("self resolved to %q", topo.Peer(topo.Self()))
	}
}

func TestTopologyRejects(t *testing.T) {
	for name, tc := range map[string]struct {
		peers     []string
		advertise string
	}{
		"empty-list":        {nil, "http://a:1"},
		"advertise-missing": {[]string{"http://a:1", "http://b:2"}, "http://c:3"},
		"duplicate":         {[]string{"http://a:1", "a:1"}, "http://a:1"},
		"bad-scheme":        {[]string{"ftp://a:1"}, "ftp://a:1"},
		"query":             {[]string{"http://a:1?x=1"}, "http://a:1?x=1"},
		"empty-advertise":   {[]string{"http://a:1"}, ""},
	} {
		if _, err := NewTopology(tc.peers, tc.advertise); err == nil {
			t.Errorf("%s: NewTopology accepted %v / %q", name, tc.peers, tc.advertise)
		}
	}
}

// TestOwnerBalanced: SHA-256 keys spread over rendezvous scoring should
// give every peer a fair share — no peer may starve or hog.
func TestOwnerBalanced(t *testing.T) {
	urls := []string{"http://a:1", "http://b:2", "http://c:3"}
	topo, err := NewTopology(urls, "http://a:1")
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	counts := make([]int, topo.Size())
	for i := 0; i < n; i++ {
		counts[topo.Owner(keyOf(i))]++
	}
	for i, c := range counts {
		// Expected n/3 = 1000; a uniform hash stays well inside ±30%.
		if c < n/3*7/10 || c > n/3*13/10 {
			t.Fatalf("peer %d owns %d of %d keys — ownership is not balanced: %v", i, c, n, counts)
		}
	}
}

// TestRendezvousMinimalDisruption pins the property the design leans on:
// removing one peer reassigns only that peer's keys. Every key owned by
// a survivor keeps its owner.
func TestRendezvousMinimalDisruption(t *testing.T) {
	full, err := NewTopology([]string{"http://a:1", "http://b:2", "http://c:3"}, "http://a:1")
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewTopology([]string{"http://a:1", "http://b:2"}, "http://a:1")
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < 2000; i++ {
		k := keyOf(i)
		ownerFull := full.Peer(full.Owner(k))
		ownerReduced := reduced.Peer(reduced.Owner(k))
		if ownerFull == "http://c:3" {
			moved++
			continue // c's keys must move somewhere, anywhere
		}
		if ownerFull != ownerReduced {
			t.Fatalf("key %d moved %s -> %s although its owner survived", i, ownerFull, ownerReduced)
		}
	}
	if moved == 0 {
		t.Fatal("no key was owned by the removed peer — test is vacuous")
	}
}

func TestClientBackoffWindow(t *testing.T) {
	c := NewClient(ClientConfig{Peers: 2, Timeout: time.Second, Backoff: 50 * time.Millisecond})
	if !c.Available(1) {
		t.Fatal("fresh peer not available")
	}
	c.MarkDown(1)
	if c.Available(1) {
		t.Fatal("peer available immediately after MarkDown")
	}
	if !c.Available(0) {
		t.Fatal("unrelated peer affected by MarkDown")
	}
	deadline := time.Now().Add(2 * time.Second)
	for !c.Available(1) {
		if time.Now().After(deadline) {
			t.Fatal("peer never recovered after the backoff window")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestForwardTransportFailureMarksDown(t *testing.T) {
	// A listener opened and closed again: the port is known-dead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	c := NewClient(ClientConfig{Peers: 1, Timeout: 200 * time.Millisecond, Backoff: time.Minute})
	if _, err := c.Forward(context.Background(), 0, dead, "/v1/solve", []byte(`{}`)); err == nil {
		t.Fatal("forward to a dead peer succeeded")
	}
	if c.Available(0) {
		t.Fatal("dead peer not marked down")
	}
}

func TestForwardSuccessAndRecovery(t *testing.T) {
	var gotForwardHeader, gotContentType string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotForwardHeader = r.Header.Get(ForwardHeader)
		gotContentType = r.Header.Get("Content-Type")
		w.Header().Set("X-Cache", "hit")
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	c := NewClient(ClientConfig{Peers: 1, Timeout: time.Second, Backoff: time.Minute})
	c.MarkDown(0) // a successful round trip must clear the window
	res, err := c.Forward(context.Background(), 0, ts.URL, "/v1/solve", []byte(`{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusOK || res.XCache != "hit" || string(res.Body) != `{"ok":true}` {
		t.Fatalf("unexpected forward result: %+v", res)
	}
	if gotForwardHeader == "" {
		t.Fatal("forward did not carry the loop-prevention header")
	}
	if gotContentType != "application/json" {
		t.Fatalf("forward content type %q", gotContentType)
	}
	if !c.Available(0) {
		t.Fatal("successful forward did not mark the peer up")
	}
}

func TestForwardTimeout(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer func() { close(release); ts.Close() }()

	c := NewClient(ClientConfig{Peers: 1, Timeout: 50 * time.Millisecond, Backoff: time.Minute})
	start := time.Now()
	_, err := c.Forward(context.Background(), 0, ts.URL, "/v1/solve", []byte(`{}`))
	if err == nil {
		t.Fatal("forward to a hung peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("forward took %v, want ~the 50ms timeout", elapsed)
	}
	if c.Available(0) {
		t.Fatal("timed-out peer not marked down")
	}
}

// TestFetchEntries drives the anti-entropy pull against a stub peer:
// the want-list arrives as a digest message and the answer, a snapshot
// stream holding only the keys the peer has, decodes back intact.
func TestFetchEntries(t *testing.T) {
	held := map[Key][]byte{keyOf(1): []byte("alpha"), keyOf(2): {}}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != FetchPath {
			http.NotFound(w, r)
			return
		}
		want, err := DecodeDigest(r.Body, MaxDigestKeys)
		if err != nil {
			t.Errorf("want-list: %v", err)
			return
		}
		var entries []Entry
		for _, k := range want {
			if body, ok := held[k]; ok {
				entries = append(entries, Entry{Key: k, Body: body})
			}
		}
		if err := EncodeSnapshot(w, entries); err != nil {
			t.Errorf("encode: %v", err)
		}
	}))
	defer ts.Close()

	c := NewClient(ClientConfig{Peers: 1, Timeout: time.Second, Backoff: time.Minute})
	got, err := c.FetchEntries(context.Background(), 0, ts.URL, []Key{keyOf(1), keyOf(2), keyOf(3)}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(held) {
		t.Fatalf("got %d entries, want %d", len(got), len(held))
	}
	for _, e := range got {
		if body, ok := held[e.Key]; !ok || string(e.Body) != string(body) {
			t.Fatalf("entry %x: got %q, want %q (held %v)", e.Key[:4], e.Body, body, ok)
		}
	}
}

// Package cluster is the inter-process half of the serving stack's cache
// design: the machinery that lets N pipeschedd daemons share one
// canonical cache-key space. The intra-process half — the sharded LRU of
// internal/service/cache — splits a key space across cores; this package
// splits it across daemons.
//
// # Topology and ownership
//
// A fleet is a static list of peer base URLs, identical on every node
// (order does not matter: the list is normalised and sorted, so every
// node derives the same indexing). Each canonical cache key — a SHA-256
// digest computed by the service layer — has exactly one owner, chosen
// by rendezvous (highest-random-weight) hashing over the key bytes:
// every peer is scored against the key and the maximum wins. Rendezvous
// hashing gives the property that matters for cache warm-up and
// failover: removing one peer reassigns only the keys that peer owned,
// never shuffling ownership among the survivors.
//
// # Replication
//
// Ownership generalises to R replicas per key: Owners returns the top-R
// rendezvous-ranked peers, so every key has an ordered replica set that
// every node agrees on. Rendezvous ranking keeps the failover property
// replica-wise: removing one peer promotes the next-ranked peer for
// exactly the removed peer's keys and changes nothing else. With R ≥ 2
// one node's death costs no cache coverage — the surviving replicas
// already hold (or deterministically recompute) its keys.
//
// # Forwarding and failure semantics
//
// A node that misses locally on a key it does not own proxies the
// original request to the key's replicas (Client.Forward, or
// Client.ForwardHedged when more than one replica is up) and installs
// the rendered response bytes in its own cache as a second-tier hit.
// Peer failure is never a client-visible error: a transport failure or
// forward timeout marks the peer down for a capped-exponential backoff
// window (during which no forwards are attempted), a peer stuck
// returning 5xx is marked down after a few consecutive server errors,
// and the request degrades to the next replica or a local solve —
// results are deterministic, so a fallback solve produces byte-identical
// bodies, only slower.
//
// # Dynamic membership
//
// The peer list may change at runtime: ParsePeersFile reads the
// peers-file format (one URL per line, #-comments), a new Topology is
// built from it, and the serving layer swaps it in atomically — requests
// in flight finish under the view they started with. Ownership is a pure
// function of (sorted peer list, key), so a reloaded topology and a
// freshly constructed one can never disagree (FuzzMembershipReload pins
// this).
//
// # Warm state
//
// A node's cache fills from its peers through one exchange, the
// anti-entropy round: pull each peer's key digest (GET /v1/peer/digest),
// keep the keys this node replicates but does not hold, and fetch their
// entries (POST /v1/peer/fetch). A booting node, a node that has just
// reloaded its topology and the periodic sync tick all run that same
// round. The codecs are length-prefixed and versioned; decoding bounds
// key count (MaxDigestKeys, identical on every node) and body size, so a
// misbehaving peer cannot balloon a syncing node's memory.
package cluster

import (
	"fmt"
	"net/url"
	"sort"
	"strings"
)

// Key is a canonical cache key: the SHA-256 digest the service layer
// computes for every cacheable request. It mirrors (and converts freely
// with) the service cache's key type without importing it.
type Key [32]byte

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters; the scoring
// hash must be identical on every node, so it is fixed here rather than
// delegated to anything runtime-seeded (maphash would differ per
// process).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Topology is one node's view of the fleet: the normalised, sorted peer
// list and this node's index in it. It is immutable after construction
// and safe for concurrent use.
type Topology struct {
	peers []string // sorted, normalised base URLs
	self  int      // index into peers
	seeds []uint64 // per-peer FNV-1a state over the peer URL
}

// NewTopology builds the fleet view from the static peer list and this
// node's advertised base URL. The advertise URL must appear in the list
// — a fleet where some node is not in its own peer list would compute
// ownership no other node agrees with. URLs are normalised (scheme
// defaulted to http, trailing slash dropped, host lowercased) and
// duplicates rejected.
func NewTopology(peers []string, advertise string) (*Topology, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	norm := make([]string, 0, len(peers))
	seen := make(map[string]bool, len(peers))
	for _, p := range peers {
		u, err := normalizeURL(p)
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %q: %w", p, err)
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", u)
		}
		seen[u] = true
		norm = append(norm, u)
	}
	sort.Strings(norm)
	adv, err := normalizeURL(advertise)
	if err != nil {
		return nil, fmt.Errorf("cluster: advertise %q: %w", advertise, err)
	}
	self := sort.SearchStrings(norm, adv)
	if self >= len(norm) || norm[self] != adv {
		return nil, fmt.Errorf("cluster: advertise %q is not in the peer list %v", adv, norm)
	}
	t := &Topology{peers: norm, self: self, seeds: make([]uint64, len(norm))}
	for i, p := range norm {
		h := uint64(fnvOffset)
		for j := 0; j < len(p); j++ {
			h = (h ^ uint64(p[j])) * fnvPrime
		}
		t.seeds[i] = h
	}
	return t, nil
}

// normalizeURL canonicalises one peer base URL.
func normalizeURL(s string) (string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return "", fmt.Errorf("empty URL")
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	u, err := url.Parse(s)
	if err != nil {
		return "", err
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("unsupported scheme %q", u.Scheme)
	}
	if u.Host == "" {
		return "", fmt.Errorf("missing host")
	}
	if u.RawQuery != "" || u.Fragment != "" {
		return "", fmt.Errorf("base URL must not carry a query or fragment")
	}
	u.Host = strings.ToLower(u.Host)
	u.Path = strings.TrimRight(u.Path, "/")
	return u.String(), nil
}

// Size returns the fleet size.
func (t *Topology) Size() int { return len(t.peers) }

// Self returns this node's index in the sorted peer list.
func (t *Topology) Self() int { return t.self }

// Peer returns the base URL of peer i.
func (t *Topology) Peer(i int) string { return t.peers[i] }

// Peers returns a copy of the sorted peer list.
func (t *Topology) Peers() []string {
	out := make([]string, len(t.peers))
	copy(out, t.peers)
	return out
}

// Owner returns the index of the peer that owns key k under rendezvous
// hashing: each peer's score is FNV-1a over its URL followed by the key
// bytes, and the highest score wins (ties broken by peer order, which is
// identical on every node because the list is sorted). The scoring walks
// 32 bytes per peer with no allocation, so ownership lookup costs tens
// of nanoseconds even before any caching. Owner(k) is always
// Owners(k, 1, nil)[0].
func (t *Topology) Owner(k Key) int {
	best, bestScore := 0, uint64(0)
	for i, seed := range t.seeds {
		h := seed
		for _, b := range k {
			h = (h ^ uint64(b)) * fnvPrime
		}
		if i == 0 || h > bestScore {
			best, bestScore = i, h
		}
	}
	return best
}

// Owners appends the indices of the top-r rendezvous-ranked peers for
// key k to dst and returns it, highest score first — the key's ordered
// replica set. Rank 0 is exactly Owner(k); rank i is the peer that takes
// over when the i higher-ranked replicas are gone, so failover order is
// a pure function of the topology and identical on every node. r is
// clamped to the fleet size; r <= 0 yields an empty slice. Ties break by
// peer order, as in Owner.
func (t *Topology) Owners(k Key, r int, dst []int) []int {
	if r > len(t.peers) {
		r = len(t.peers)
	}
	dst = dst[:0]
	if r <= 0 {
		return dst
	}
	// Insertion-select into a tiny descending score window: R is 2 or 3
	// in practice, so this beats sorting all peers and allocates nothing
	// beyond dst.
	scores := make([]uint64, 0, 8)
	for i, seed := range t.seeds {
		h := seed
		for _, b := range k {
			h = (h ^ uint64(b)) * fnvPrime
		}
		pos := len(dst)
		for pos > 0 && h > scores[pos-1] {
			pos--
		}
		if pos >= r {
			continue
		}
		if len(dst) < r {
			dst = append(dst, 0)
			scores = append(scores, 0)
		}
		copy(dst[pos+1:], dst[pos:])
		copy(scores[pos+1:], scores[pos:])
		dst[pos], scores[pos] = i, h
	}
	return dst
}

// ParsePeersFile parses the peers-file format feeding dynamic
// membership: one peer base URL per line, with blank lines and
// #-comments ignored; commas also separate entries, so a -peers flag
// value pastes in unchanged. The returned list is raw — NewTopology
// still normalises and validates it — but an entry that is empty after
// trimming is dropped here, so a trailing newline never manufactures a
// phantom peer.
func ParsePeersFile(data []byte) []string {
	var peers []string
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, entry := range strings.Split(line, ",") {
			if entry = strings.TrimSpace(entry); entry != "" {
				peers = append(peers, entry)
			}
		}
	}
	return peers
}

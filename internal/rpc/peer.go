package rpc

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/metrics"
	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/retry"
	"icache/internal/singleflight"
	"icache/internal/trace"
	"icache/internal/transport"
)

// This file adds the distributed deployment of §III-E to the network
// server: nodes share a dkv directory service (which sample lives where)
// and answer opPeerGetBatch requests for samples they cache, so a miss on
// one node can be served from another node's DRAM instead of the backend.
//
// Every remote dependency here is treated as unreliable: directory and peer
// failures are counted, the failing peer connection is discarded (the next
// request re-dials), and the caller always degrades to a backend read —
// a sick peer must never stall the training pipeline.
//
// # Locking contract
//
// Everything in this file runs OUTSIDE the server's policy lock:
//
//   - resolveMissBatch and claimOwnership perform directory and peer I/O
//     and must be called with NO server lock held (the miss path calls them
//     while leading singleflight keys, which hold no lock).
//   - distState.mu guards only the peer-connection cache. It is a leaf
//     lock held across nothing but map access and Dial; it never nests
//     with policyMu or payload-store shard locks.
//   - the directory and peer clients are the shared transport's
//     (internal/transport), which holds no lock across a round trip: the
//     concurrent miss batches of a node overlap their directory lookups
//     on one directory connection and their peer reads on one connection
//     per peer, instead of queueing behind each other.
//   - peer reads (fillPeerPinned in serve_vec.go) touch only the payload
//     store (shard-locked reads) and atomics — they never take policyMu
//     and never mutate this node's cache policy state, so a peer storm
//     cannot stall local serving decisions.
//   - releaseOwnership may be called under policyMu (the eviction
//     observer fires it); the directory write is pushed to a goroutine so
//     no network I/O ever happens under the lock.

// peerBatchMax caps how many of a mini-batch's remote misses ride one
// opPeerGetBatch RPC.
const peerBatchMax = 256

// PeerConfig tunes the remote data plane (the -peer-inflight,
// -default-deadline and -breaker-threshold flags). SetPeerConfig installs
// it before Serve.
type PeerConfig struct {
	// Inflight bounds in-flight frames per peer connection (<= 0 selects
	// the client default).
	Inflight int
	// RPCTimeout bounds every peer round trip (<= 0 selects 1s): one hung
	// replica can stall a scatter-gather chunk for at most this long before
	// the chunk degrades to the backend.
	RPCTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a peer's
	// circuit breaker (0 selects the overload-package default; < 0 disables
	// breakers entirely).
	BreakerThreshold int
	// BreakerCooldown is the open-state cooldown before a half-open probe
	// (<= 0 selects the overload-package default).
	BreakerCooldown time.Duration
}

// defaultPeerConfig is what EnableDistributed installs until SetPeerConfig
// overrides it.
func defaultPeerConfig() PeerConfig {
	return PeerConfig{Inflight: defaultMuxInflight, RPCTimeout: defaultPeerRPCTimeout}
}

// defaultPeerRPCTimeout is the per-call bound on peer RPCs: long enough for
// a loaded peer to answer a full batch, short enough that a black-holed
// replica costs one bounded stall, not a TCP timeout.
const defaultPeerRPCTimeout = time.Second

func (c PeerConfig) withDefaults() PeerConfig {
	if c.Inflight <= 0 {
		c.Inflight = defaultMuxInflight
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = defaultPeerRPCTimeout
	}
	return c
}

// SetPeerConfig tunes the remote data plane. Call after
// EnableDistributed and before Serve (the serving path reads the config
// without synchronization). A no-op on a non-distributed server.
func (s *Server) SetPeerConfig(cfg PeerConfig) {
	if s.dist == nil {
		return
	}
	s.dist.peerCfg = cfg.withDefaults()
}

// distState is the optional distributed wiring of a Server.
type distState struct {
	nodeID    dkv.NodeID
	dir       dkv.Service
	peerAddrs map[dkv.NodeID]string
	peerCfg   PeerConfig

	// journal, when set, receives breaker-transition events (copied from
	// the server's journal at EnableDistributed / SetJournal time).
	journal *obs.Journal

	mu    sync.Mutex
	peers map[dkv.NodeID]*Client
	// breakers holds one circuit breaker per peer NODE (not per client):
	// the breaker must survive dropPeer/redial churn, or a flapping peer
	// would reset its own failure count by breaking connections. Guarded by
	// mu for map access; the Breaker itself is internally synchronized.
	breakers map[dkv.NodeID]*overload.Breaker

	peerServes   int64 // requests this node answered for peers (atomic)
	peerHits     int64 // local misses served from a peer's cache (atomic)
	peerFailures int64 // peer dials/reads that failed (atomic)
	dirFailures  int64 // directory operations that failed (atomic)

	peerBatchRPCs    int64 // opPeerGetBatch RPCs issued to peers (atomic)
	peerBatchSamples int64 // samples carried by those RPCs (atomic)

	// Wall-clock membership loop state (see lifecycle.go); memStop is nil
	// until StartMembership.
	memCfg   MembershipConfig
	memStop  chan struct{}
	memWG    sync.WaitGroup
	memMu    sync.Mutex // guards mem, lastBeat, scrubMark
	mem      metrics.MembershipStats
	lastBeat time.Time
	// scrubMark is the anti-entropy watermark into this node's sorted
	// resident set (bounded sweeps eventually cover everything).
	scrubMark int
}

// EnableDistributed joins the server to a directory service and a peer set.
// nodeID must be unique across the deployment; peerAddrs maps the *other*
// nodes' IDs to their cache-service addresses. dir is typically a
// *dkv.DirClient, but any dkv.Service works — including a fault-injecting
// faults.Dir in chaos tests. Call before Serve.
func (s *Server) EnableDistributed(nodeID dkv.NodeID, dir dkv.Service, peerAddrs map[dkv.NodeID]string) {
	s.dist = &distState{
		nodeID:    nodeID,
		dir:       dir,
		peerAddrs: peerAddrs,
		peerCfg:   defaultPeerConfig(),
		peers:     make(map[dkv.NodeID]*Client),
		breakers:  make(map[dkv.NodeID]*overload.Breaker),
		journal:   s.journal,
	}
}

// breakerLocked returns (creating on demand) the node's circuit breaker.
// Caller holds d.mu. Returns nil when breakers are disabled
// (BreakerThreshold < 0).
func (d *distState) breakerLocked(node dkv.NodeID) *overload.Breaker {
	if d.peerCfg.BreakerThreshold < 0 {
		return nil
	}
	b, ok := d.breakers[node]
	if !ok {
		b = overload.NewBreaker(overload.BreakerConfig{
			Threshold: d.peerCfg.BreakerThreshold,
			Cooldown:  d.peerCfg.BreakerCooldown,
		})
		if j := d.journal; j != nil {
			peer := node
			b.OnStateChange(func(old, next overload.BreakerState) {
				// Runs under the breaker mutex; the journal's striped
				// append is the only lock taken.
				j.Add(obs.EventBreaker, int64(peer), int64(old), int64(next),
					"peer breaker "+old.String()+"→"+next.String())
			})
		}
		d.breakers[node] = b
	}
	return b
}

// PeerBreakerStats snapshots every peer's circuit breaker state (nil when
// distribution is disabled).
func (s *Server) PeerBreakerStats() map[dkv.NodeID]overload.BreakerStats {
	if s.dist == nil {
		return nil
	}
	s.dist.mu.Lock()
	defer s.dist.mu.Unlock()
	if len(s.dist.breakers) == 0 {
		return nil
	}
	out := make(map[dkv.NodeID]overload.BreakerStats, len(s.dist.breakers))
	for node, b := range s.dist.breakers {
		out[node] = b.Stats()
	}
	return out
}

// PeerStats reports (requests served for peers, local misses served by
// peers); zeros when distribution is disabled.
func (s *Server) PeerStats() (served, hits int64) {
	if s.dist == nil {
		return 0, 0
	}
	return atomic.LoadInt64(&s.dist.peerServes), atomic.LoadInt64(&s.dist.peerHits)
}

// ResilienceStats reports (peer failures, directory failures) — remote
// operations that failed and were degraded around; zeros when distribution
// is disabled.
func (s *Server) ResilienceStats() (peerFailures, dirFailures int64) {
	if s.dist == nil {
		return 0, 0
	}
	return atomic.LoadInt64(&s.dist.peerFailures), atomic.LoadInt64(&s.dist.dirFailures)
}

// peer returns a (cached) client connection to the given node: ONE
// pipelined connection per peer. Peer clients use the tight retry.Peer
// policy: degrading to the backend beats waiting.
func (d *distState) peer(node dkv.NodeID) (*Client, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.peers[node]; ok {
		return c, nil
	}
	addr, ok := d.peerAddrs[node]
	if !ok {
		return nil, fmt.Errorf("rpc: no address for peer node %d", node)
	}
	c, err := DialConfigured(addr, DialConfig{
		Timeout:     2 * time.Second,
		Policy:      retry.Peer(),
		MuxInflight: d.peerCfg.Inflight,
		RPCTimeout:  d.peerCfg.RPCTimeout,
		Breaker:     d.breakerLocked(node),
	})
	if err != nil {
		// A failed dial is a peer failure too: report it so a DEAD peer
		// (not just a hung one) trips its breaker and fails fast.
		if b := d.breakerLocked(node); b != nil {
			b.Report(time.Now(), false)
		}
		return nil, err
	}
	d.peers[node] = c
	return c, nil
}

// isConnFailure reports whether a peer RPC error indicates a poisoned
// connection (worth a dropPeer + redial). Overload rejections and deadline
// expiries arrive over a perfectly healthy exchange — redialing on them
// would add dial churn to a peer that is busy shedding load.
func isConnFailure(err error) bool {
	return !overload.IsOverload(err) && !errors.Is(err, ErrDeadlineExceeded)
}

// dropPeer discards a cached peer client after a failure so the next
// request re-dials instead of reusing a poisoned connection.
func (d *distState) dropPeer(node dkv.NodeID, c *Client) {
	d.mu.Lock()
	if d.peers[node] == c {
		delete(d.peers, node)
	}
	d.mu.Unlock()
	c.Close()
}

// closePeers tears down cached peer connections (on server Close).
func (d *distState) closePeers() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.peers {
		c.Close()
	}
	d.peers = make(map[dkv.NodeID]*Client)
}

// peerGetBatch asks a peer cache node for many resident samples in one
// round trip, carrying the originating request's trace context (addressed
// to the peer) and deadline: the remaining budget rides the request header
// so the peer can drop the read once it is unservable, and the local wait
// is cut off at the same instant (a zero deadline falls back to the
// client's configured RPCTimeout). The result is aligned with ids: out[i]
// is the payload when the peer had ids[i], nil when it did not (a peer
// miss is not an error).
func (c *Client) peerGetBatch(ids []dataset.SampleID, tc obs.TraceCtx, dl time.Time) ([][]byte, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	// Payloads are handed out by reference, so the pooled response buffer
	// is dropped rather than recycled (same contract as roundTrip).
	d, _, err := c.roundTripDeadline(encodePeerGetBatchRequest(ids, tc, transport.Budget(dl)), c.tc.Tighten(dl))
	if err != nil {
		return nil, err
	}
	return decodePeerGetBatchResponse(d, len(ids))
}

// resolveMissBatch is the scatter-gather heart of the batched miss path:
// it resolves every singleflight key this request leads, using one
// directory multi-lookup and one batched peer RPC per owning node, and
// GUARANTEES every key is finished exactly once on all paths (a leaked
// leader key would deadlock every waiter). prov is the admission
// provenance of backend reads: prefetch resolutions never count as demand
// fetches. Called with no server lock held; all peer/directory I/O happens
// outside locks per the contract at the top of this file.
func (s *Server) resolveMissBatch(ids []dataset.SampleID, calls map[dataset.SampleID]*singleflight.Call, ctx obs.TraceCtx, dl time.Time, prov admitProv) {
	finish := func(id dataset.SampleID, p []byte, err error) {
		s.flight.Finish(int64(id), calls[id], p, err)
	}

	// Re-check the store under the flight happens-before edge: a racing
	// fetch may have filled entries between the miss scan and our Begin.
	var remaining []dataset.SampleID
	for _, id := range ids {
		if p, ok := s.payloads.get(id); ok {
			finish(id, p, nil)
		} else {
			remaining = append(remaining, id)
		}
	}
	if len(remaining) == 0 {
		return
	}

	// One directory round trip answers ownership for the whole batch. A
	// directory failure degrades every id to a backend read (counted).
	dist := s.dist
	owners := s.dirLookupBatch(dist, remaining, ctx, dl)

	local := make([]dataset.SampleID, 0, len(remaining))
	groups := make(map[dkv.NodeID][]dataset.SampleID)
	for i, id := range remaining {
		if owners != nil && owners[i].Found && owners[i].Node != dist.nodeID {
			groups[owners[i].Node] = append(groups[owners[i].Node], id)
		} else {
			local = append(local, id)
		}
	}

	// Scatter: one goroutine per owning node (chunked at peerBatchMax),
	// so peer RPC count per mini-batch is O(owning nodes), not O(misses).
	// Each chunk's remote hits are finished as soon as that peer answers;
	// its misses and failures join the backend fallback list.
	var wg sync.WaitGroup
	var fbMu sync.Mutex
	var fallback []dataset.SampleID
	for node, group := range groups {
		for start := 0; start < len(group); start += peerBatchMax {
			end := start + peerBatchMax
			if end > len(group) {
				end = len(group)
			}
			chunk := group[start:end]
			wg.Add(1)
			go func(node dkv.NodeID, chunk []dataset.SampleID) {
				defer wg.Done()
				miss := s.peerFetchBatch(node, chunk, calls, ctx, dl)
				if len(miss) > 0 {
					fbMu.Lock()
					fallback = append(fallback, miss...)
					fbMu.Unlock()
				}
			}(node, chunk)
		}
	}
	wg.Wait()

	// Gather the remainder from backend storage, in deterministic order.
	local = append(local, fallback...)
	sort.Slice(local, func(i, j int) bool { return local[i] < local[j] })
	for _, id := range local {
		p, err := s.fetchBackend(id, ctx)
		if err != nil {
			finish(id, nil, err)
			continue
		}
		if prov != provPrefetch {
			atomic.AddInt64(&s.demandFetches, 1)
		}
		s.admit(id, p, prov)
		finish(id, p, nil)
	}
}

// peerFetchBatch issues one opPeerGetBatch RPC to node for ids, finishing
// the singleflight key of every sample the peer returned (after dropping
// any local duplicate copies under one policyMu hold — the no-duplication
// hygiene, amortized over the chunk). It returns the ids the peer did NOT
// satisfy; any transport failure degrades the whole chunk to the backend.
func (s *Server) peerFetchBatch(node dkv.NodeID, ids []dataset.SampleID, calls map[dataset.SampleID]*singleflight.Call, ctx obs.TraceCtx, dl time.Time) []dataset.SampleID {
	dist := s.dist
	// An already-spent budget skips the peer RPC outright — the backend
	// fallback still runs, because every singleflight key this chunk leads
	// MUST be finished (waiters would deadlock otherwise); the response is
	// late either way, so conservation beats a doomed round trip.
	if !dl.IsZero() && !time.Now().Before(dl) {
		return ids
	}
	peer, err := dist.peer(node)
	if err != nil {
		atomic.AddInt64(&dist.peerFailures, 1)
		return ids
	}
	atomic.AddInt64(&dist.peerBatchRPCs, 1)
	atomic.AddInt64(&dist.peerBatchSamples, int64(len(ids)))
	measure := s.obs.histsOn() || s.obs.tracing(ctx)
	var t0 time.Time
	if measure {
		t0 = time.Now()
	}
	res, err := peer.peerGetBatch(ids, ctx.Next(), dl)
	if measure {
		dur := time.Since(t0)
		s.obs.peerBatch.Record(dur)
		s.span(trace.KindRPCSend, 0, spanArgPeer, ctx, dur)
	}
	if err != nil {
		atomic.AddInt64(&dist.peerFailures, 1)
		// Only a transport-level failure poisons the connection. An overload
		// rejection (breaker open, retry-after, server-side expiry) or a
		// deadline timeout came from a healthy protocol exchange — dropping
		// the client would just churn dials while the peer sheds load.
		if isConnFailure(err) {
			dist.dropPeer(node, peer)
		}
		return ids
	}
	var hits, fallback []dataset.SampleID
	for i, id := range ids {
		if res[i] != nil {
			hits = append(hits, id)
		} else {
			fallback = append(fallback, id)
		}
	}
	if len(hits) > 0 {
		// Owned elsewhere: this node must not keep duplicates. One short
		// policyMu hold covers the whole chunk.
		s.policyMu.Lock()
		for _, id := range hits {
			if s.cache.Drop(id) {
				s.payloads.delete(id)
			}
		}
		s.policyMu.Unlock()
		for i, id := range ids {
			if res[i] != nil {
				s.flight.Finish(int64(id), calls[id], res[i], nil)
			}
		}
		atomic.AddInt64(&dist.peerHits, int64(len(hits)))
	}
	return fallback
}

// dirLookupBatch resolves ownership for many ids in one directory
// operation, timed into the dir_lookup_batch stage. A failure (or a
// malformed short answer) counts one directory failure and returns nil,
// which degrades every id in the batch to a backend read.
func (s *Server) dirLookupBatch(dist *distState, ids []dataset.SampleID, ctx obs.TraceCtx, dl time.Time) []dkv.Owner {
	measure := s.obs.histsOn() || s.obs.tracing(ctx)
	var t0 time.Time
	if measure {
		t0 = time.Now()
	}
	var owners []dkv.Owner
	var err error
	if td, ok := dist.dir.(interface {
		LookupBatchTraced([]dataset.SampleID, obs.TraceCtx) ([]dkv.Owner, error)
	}); ok && ctx.Valid() {
		owners, err = td.LookupBatchTraced(ids, ctx.Next())
	} else if dd, ok := dist.dir.(interface {
		LookupBatchDeadline([]dataset.SampleID, time.Time) ([]dkv.Owner, error)
	}); ok && !dl.IsZero() {
		// Deadline-aware directories (dkv.DirClient) inherit the request's
		// remaining budget; in-process and fault-injecting directories fall
		// back to the plain lookup, which cannot hang anyway.
		owners, err = dd.LookupBatchDeadline(ids, dl)
	} else {
		owners, err = dist.dir.LookupBatch(ids)
	}
	if measure {
		dur := time.Since(t0)
		s.obs.dirBatch.Record(dur)
		s.span(trace.KindRPCSend, 0, spanArgDir, ctx, dur)
	}
	if err != nil || len(owners) != len(ids) {
		atomic.AddInt64(&dist.dirFailures, 1)
		return nil
	}
	return owners
}

// PeerBatchStats reports (batched peer RPCs issued, samples carried by
// them); zeros when distribution is disabled.
func (s *Server) PeerBatchStats() (rpcs, samples int64) {
	if s.dist == nil {
		return 0, 0
	}
	return atomic.LoadInt64(&s.dist.peerBatchRPCs), atomic.LoadInt64(&s.dist.peerBatchSamples)
}

// claimOwnership registers this node in the directory for a sample it just
// admitted. Reports whether the claim succeeded (false means another node
// already owns it, so this node must not keep a duplicate copy — and a
// directory failure conservatively counts as a failed claim, since
// unregistered ownership would invite duplication). Must be called with no
// server lock held: it performs a directory round trip.
func (s *Server) claimOwnership(id dataset.SampleID) bool {
	dist := s.dist
	if dist == nil {
		return true
	}
	ok, err := dist.dir.Claim(id, dist.nodeID)
	if err != nil {
		atomic.AddInt64(&dist.dirFailures, 1)
		return false
	}
	return ok
}

// releaseOwnership drops the directory entry for an evicted sample.
func (s *Server) releaseOwnership(id dataset.SampleID) {
	dist := s.dist
	if dist == nil {
		return
	}
	// Best effort: eviction hooks run under policyMu; the release is async
	// so the cache path never blocks on the directory.
	go func() {
		if _, err := dist.dir.Release(id, dist.nodeID); err != nil {
			atomic.AddInt64(&dist.dirFailures, 1)
		}
	}()
}

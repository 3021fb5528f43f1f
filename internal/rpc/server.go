package rpc

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/sampling"
	"icache/internal/simclock"
	"icache/internal/singleflight"
	"icache/internal/trace"
	"icache/internal/transport"
	"icache/internal/wire"
)

// ByteSource supplies real sample payloads: storage.DataSource (generated
// on demand) and storage.FileSource (a packed dataset file) both satisfy it.
// Fetch must be safe for concurrent use: the serving path issues backend
// reads from many request goroutines and the prefetch pool at once.
type ByteSource interface {
	Spec() dataset.Spec
	Fetch(id dataset.SampleID) ([]byte, error)
}

// Server is the network-facing iCache server: it owns an icache.Server for
// cache policy decisions, a ByteSource for real sample bytes, and a payload
// store that mirrors the cache's residency. Policy time is driven by the
// wall clock, so the background loading thread's pacing carries over to
// live deployments.
//
// # Concurrency model and lock ordering
//
// The serving path is built so that no lock is ever held across I/O. Three
// lock classes exist, and they must be acquired in this order (any prefix
// is fine, the reverse is forbidden):
//
//		policyMu  →  payload-store shard locks (leaf)
//
//	  - policyMu guards the icache.Server policy engine (FetchBatch,
//	    InstallHList, StartEpoch, Stats, Resident, Drop, checkpoints) and is
//	    only ever held for short, CPU-bound critical sections. It is NEVER
//	    held across ByteSource.Fetch, peer reads, directory calls, or frame
//	    I/O. Cache mutations fire the eviction observer synchronously, so
//	    the observer also runs under policyMu; it may take shard locks
//	    (policyMu → shard is the legal order) and must not block.
//	  - payload-store shard locks (see payloadStore in store.go) are leaves:
//	    taken and released inside single store methods, never held across
//	    any other acquisition or I/O.
//	  - the transport's own locks (connection set, per-connection write
//	    mutex, client session pointer) are leaves inside
//	    internal/transport; none is held across a round trip.
//
// The backend read budget (readSlots) is a semaphore, not a lock: a slot
// is held across exactly one ByteSource.Fetch and nothing is acquired
// while holding it (see fetchBackend).
//
// Slow work — backend fetches and remote peer reads — happens outside all
// locks, coalesced per sample ID through a singleflight group so K
// concurrent misses on one sample issue exactly one backend read. The
// distributed helpers in peer.go (resolveMissBatch, claimOwnership) are
// called WITHOUT policyMu held.
type Server struct {
	cache  *icache.Server
	source ByteSource
	start  time.Time

	// policyMu guards cache (the policy engine). Short critical sections
	// only; see the concurrency model above.
	policyMu sync.Mutex
	// payloads is the sharded byte store mirroring cache residency.
	payloads *payloadStore
	// flight coalesces concurrent miss-path fetches per sample ID.
	flight singleflight.Group
	// coalescedMisses counts miss-path fetches that joined an in-flight
	// fetch instead of issuing their own (atomic).
	coalescedMisses int64
	// prefetch is the bounded async worker pool that pulls payload bytes
	// for samples the loader delivered into the L-cache (nil when
	// disabled).
	prefetch *prefetcher
	// plan is the clairvoyant cross-epoch prefetch planner (nil = reactive
	// only); installed via SetClairvoyant before Serve. The planner drains
	// through the prefetch worker pool under a bandwidth budget calibrated
	// from the backendFetch* throughput observations below.
	plan *planner
	// backendFetchBytes / backendFetchNanos accumulate observed backend
	// fetch throughput for the planner's token bucket (atomics; only
	// maintained while plan != nil). demandFetches counts backend reads
	// issued on the demand path — the "cold miss" metric the clairvoyant
	// plan exists to drive to zero (atomic, always maintained).
	backendFetchBytes int64
	backendFetchNanos int64
	demandFetches     int64
	// readSlots is the per-server backend read budget: every
	// ByteSource.Fetch holds one of its backendReadBudget slots (see
	// fetchBackend). backendInflight gauges the held slots.
	readSlots       chan struct{}
	backendInflight atomic.Int64
	// missJobs hands lone-server misses to idle miss helpers; missHelperN
	// counts the helpers started (see dispatchMiss), and Close waits on
	// missHelpers for them to exit.
	missJobs    chan missJob
	missHelperN atomic.Int64
	missHelpers sync.WaitGroup
	// tr is the shared transport: accept loop, connection set, header
	// decode, admission (its Gate, installed by SetAdmission) and
	// per-request dispatch into handle.
	tr        *transport.Server
	closeOnce sync.Once

	// expiredCount (atomic) counts requests dropped because their deadline
	// budget ran out before the cache was touched; the transport counts
	// the requests the gate shed. Neither increments any cache counter, so
	// the conservation identity extends to
	// hits+misses+substitutions+degraded + shed + expired == offered.
	expiredCount int64

	// dist holds the §III-E distributed wiring (nil on a lone server).
	dist *distState

	// obs holds the optional observability wiring — per-stage latency
	// histograms, span tracing, slow-request log (see obs.go). Configure
	// via EnableObs / SetSlowRequestLog before Serve; the serving path
	// reads these fields without synchronization.
	obs serverObs

	// journal is the optional control-plane event journal (nil = off);
	// installed via SetJournal before Serve. dec holds the serving-layer
	// decision counters (see decision.go).
	journal *obs.Journal
	dec     rpcDecisions

	// Logf sinks server logs; defaults to log.Printf. Tests may silence it.
	Logf func(format string, args ...interface{})
}

// NewServer wires a cache policy engine to a byte source. If the policy
// engine's config enables prefetch workers, the server starts a bounded
// worker pool that asynchronously fills the payload store for samples the
// background loader delivers into the L-cache (the paper's Fig. 15
// prefetch-worker knob).
func NewServer(cacheSrv *icache.Server, source ByteSource) *Server {
	s := &Server{
		cache:     cacheSrv,
		source:    source,
		start:     time.Now(),
		payloads:  newPayloadStore(),
		readSlots: make(chan struct{}, backendReadBudget),
		missJobs:  make(chan missJob),
		Logf:      log.Printf,
	}
	s.tr = transport.NewServer(s.handle, gatedOp, s.logIfUnexpected)
	cacheSrv.SetEvictObserver(func(id dataset.SampleID) {
		// Runs under policyMu (all cache mutations happen under it).
		// policyMu → shard lock is the legal order; releaseOwnership is
		// async and never blocks here.
		s.payloads.delete(id)
		s.releaseOwnership(id)
		// An eviction before any hit means a pending prefetch was wasted.
		s.prefetch.noteEvict(id)
	})
	if n := cacheSrv.PrefetchWorkers(); n > 0 {
		s.prefetch = newPrefetcher(s, n)
		cacheSrv.SetLoadObserver(s.prefetch.enqueue)
	}
	return s
}

// now maps wall-clock elapsed time onto the cache's virtual timeline.
func (s *Server) now() simclock.Time { return simclock.Time(time.Since(s.start)) }

// Serve accepts connections on ln until Close is called. It always returns
// a non-nil error (net.ErrClosed after a clean shutdown).
func (s *Server) Serve(ln net.Listener) error { return s.tr.Serve(ln) }

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error { return s.tr.ListenAndServe(addr) }

// Addr reports the bound listener address (once Serve has been called).
func (s *Server) Addr() net.Addr { return s.tr.Addr() }

// Close stops accepting and waits for in-flight connections to finish.
// Later calls return nil once the first has finished.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() { err = s.close() })
	return err
}

func (s *Server) close() error {
	err := s.tr.Close()
	s.missHelpers.Wait()
	// The planner feeds the prefetch pool; stop it first so no planned
	// enqueue races the pool teardown.
	if s.plan != nil {
		s.plan.stop()
	}
	if s.prefetch != nil {
		s.prefetch.stop()
	}
	if s.dist != nil {
		s.StopMembership()
		s.dist.closePeers()
	}
	return err
}

// handle starts one request on a handler goroutine (transport.Handler).
// Batch ids are decoded into a pooled scratch here, on the read loop,
// because body aliases the loop's reusable buffer; any other body is
// copied.
func (s *Server) handle(c *transport.Conn, h transport.Header, body []byte) {
	if h.Op == opGetBatch || h.Op == opPeerGetBatch {
		sc, derr := decodeScratch(body)
		go s.serveBatch(c, h, sc, derr)
		return
	}
	go s.serveControl(c, h, append([]byte(nil), body...))
}

func (s *Server) serveBatch(c *transport.Conn, h transport.Header, sc *serveScratch, derr error) {
	defer c.Done(h)
	if err := s.serveVecDecoded(c, h, sc, derr); err != nil {
		s.logIfUnexpected(err)
	}
}

func (s *Server) serveControl(c *transport.Conn, h transport.Header, body []byte) {
	defer c.Done(h)
	err := c.Reply(h.ID, func(e *wire.Buffer) { s.dispatch(h.Op, body, e) })
	if err != nil {
		s.logIfUnexpected(err)
	}
}

// MuxInflight reports the number of requests currently being served across
// all connections (gauge).
func (s *Server) MuxInflight() int64 { return s.tr.Inflight() }

// SetAdmission installs the adaptive admission gate (nil = admit
// everything). Must be called before Serve. The gate's state ladder drives
// the brownout side effects in order: Brownout first sacrifices optional
// work — substitution scans stop and the prefetch pool pauses — and only
// the Shed state rejects foreground requests; Normal restores both.
func (s *Server) SetAdmission(g *overload.Gate) {
	s.tr.Gate = g
	if g == nil {
		return
	}
	g.OnStateChange(func(old, next overload.State) {
		// Called under the gate's mutex: atomic flag flips and the
		// lock-striped journal append only, no server locks.
		degraded := next != overload.Normal
		s.cache.SetSubstitutionsDisabled(degraded)
		if s.prefetch != nil {
			s.prefetch.setPaused(degraded)
		}
		s.journal.Add(obs.EventGate, s.journalNode(), int64(old), int64(next),
			old.String()+"→"+next.String())
	})
}

// Admission exposes the installed gate (nil when admission is unbounded).
func (s *Server) Admission() *overload.Gate { return s.tr.Gate }

// OverloadCounters reports how many requests the server shed at admission
// and how many it dropped for an expired deadline budget.
func (s *Server) OverloadCounters() (shed, expired int64) {
	return s.tr.Shed(), atomic.LoadInt64(&s.expiredCount)
}

// gatedOp reports whether the admission gate applies to a request. Health
// checks (opPing) and monitoring (opStats) always pass: an operator must
// be able to see an overloaded server.
func gatedOp(op byte) bool {
	return op != opPing && op != opStats
}

func (s *Server) logIfUnexpected(err error) {
	if errors.Is(err, net.ErrClosed) {
		return
	}
	if s.Logf != nil {
		s.Logf("rpc: connection error: %v", err)
	}
}

// dispatch serves one control request (everything but the batch reads,
// which take the vectored path in serve_vec.go) and appends its status and
// body to e. Protocol errors are answered, never fatal. body is the
// handler's own copy.
func (s *Server) dispatch(op byte, body []byte, e *wire.Buffer) {
	d := wire.NewReader(body)
	switch op {
	case opUpdateImportance:
		items, err := decodeUpdateImportanceRequest(d)
		if err != nil {
			transport.AppendError(e, err.Error())
			return
		}
		s.policyMu.Lock()
		s.cache.InstallHList(sampling.NewHList(items))
		s.policyMu.Unlock()
		e.U8(statusOK)
	case opBeginEpoch:
		_ = d.U32() // epoch number: accepted for symmetry/logging
		s.policyMu.Lock()
		s.cache.StartEpoch(s.now())
		// Settle the prefetch-outcome ledger: pending prefetches the
		// finished epoch never touched are wasted work.
		s.prefetch.sweepEpoch()
		epoch := s.cache.Epoch()
		s.policyMu.Unlock()
		s.journal.Add(obs.EventEpoch, s.journalNode(), epoch-1, epoch, "epoch boundary")
		e.U8(statusOK)
	case opEpochPlan:
		// Clairvoyant epoch boundary: cross the boundary exactly like
		// opBeginEpoch, then hand the policy engine the next epoch's known
		// schedule. PlanSchedule seeds the loader with the missing L-side
		// (honest virtual-time charging) and returns the missing H-side in
		// first-access order for the planner to pre-place.
		_, ids, err := decodeEpochPlanRequest(d)
		if err != nil {
			transport.AppendError(e, err.Error())
			return
		}
		s.policyMu.Lock()
		s.cache.StartEpoch(s.now())
		s.prefetch.sweepEpoch()
		var need []dataset.SampleID
		if s.plan != nil {
			need = s.cache.PlanSchedule(ids)
		}
		epoch := s.cache.Epoch()
		s.policyMu.Unlock()
		if s.plan != nil {
			s.plan.install(int64(epoch), need)
			s.journal.Add(obs.EventEpoch, s.journalNode(), epoch-1, epoch,
				fmt.Sprintf("epoch boundary (planned: %d missing H)", len(need)))
		} else {
			// A reactive server still honors the boundary — the client need
			// not know whether planning is on.
			s.journal.Add(obs.EventEpoch, s.journalNode(), epoch-1, epoch, "epoch boundary")
		}
		e.U8(statusOK)
	case opPlanPreplace:
		ids, err := decodeGetBatchRequest(d)
		if err != nil {
			transport.AppendError(e, err.Error())
			return
		}
		var accepted int
		if s.plan != nil {
			accepted = s.plan.acceptRemote(ids)
		}
		e.U8(statusOK)
		e.U32(uint32(accepted))
	case opStats:
		s.policyMu.Lock()
		st := s.cache.Stats()
		out := Stats{
			Hits:          st.Hits,
			Misses:        st.Misses,
			Substitutions: st.Substitutions,
			HCacheLen:     int64(s.cache.HCacheLen()),
			LCacheLen:     int64(s.cache.LCacheLen()),
			Packages:      s.cache.PackagesLoaded(),
			DemandFetches: atomic.LoadInt64(&s.demandFetches),
		}
		s.policyMu.Unlock()
		encodeStatsResponseInto(e, out)
	case opPing:
		e.U8(statusOK)
	default:
		transport.AppendError(e, fmt.Sprintf("rpc: unknown opcode %d", op))
	}
}

// deadlineExpired reports whether a request's budget has run out, counting
// the drop and recording the remaining-budget histogram as a side effect.
// A zero deadline never expires.
func (s *Server) deadlineExpired(dl time.Time) bool {
	if dl.IsZero() {
		return false
	}
	rem := time.Until(dl)
	if rem > 0 {
		s.obs.deadlineRem.Record(rem)
		return false
	}
	s.obs.deadlineRem.Record(0)
	atomic.AddInt64(&s.expiredCount, 1)
	return true
}

// collectLone resolves a batch on a lone server: local hits straight from the payload store,
// then every distinct miss through resolvePayload — singleflight
// coalescing, plan promotion, admission and demand counting exactly as for
// a single sample. The request goroutine hands each miss but the last to
// the server's miss helpers (dispatchMiss; concurrent batches take turns
// on them) and resolves the last itself. The fan-out needs no bound of
// its own: every backend read still waits for a slot of the server-wide
// read budget (fetchBackend). A repeated id costs one resolution. When a
// miss fails, no further misses start and the error of the earliest
// failing position is returned.
func (s *Server) collectLone(served []dataset.SampleID, ctx obs.TraceCtx, histsOn bool, dl time.Time) ([]Sample, error) {
	out := make([]Sample, len(served))
	var f *missFanout // taken from the pool at the first miss
	for i, id := range served {
		var tHit time.Time
		if histsOn {
			tHit = time.Now()
		}
		if payload, ok := s.payloads.get(id); ok {
			s.obs.localHit.Since(tHit)
			s.prefetch.noteHit(id)
			out[i] = Sample{ID: id, Payload: payload}
			continue
		}
		out[i].ID = id
		if f == nil {
			f = missFanoutPool.Get().(*missFanout)
		}
		if j, dup := f.first[id]; dup {
			f.dups = append(f.dups, [2]int{i, j})
			continue
		}
		f.first[id] = i
		f.misses = append(f.misses, i)
	}
	if f == nil {
		return out, nil
	}
	defer f.release()
	f.s, f.ctx, f.dl, f.out = s, ctx, dl, out

	last := len(f.misses) - 1
	for k := 0; k < last && !f.stopped(); k++ {
		f.wg.Add(1)
		s.dispatchMiss(missJob{f: f, k: k})
	}
	if !f.stopped() {
		f.resolve(last)
	}
	f.wg.Wait()
	if f.err != nil {
		return nil, fmt.Errorf("rpc: backend fetch of sample %d: %w", out[f.misses[f.errK]].ID, f.err)
	}
	for _, d := range f.dups {
		out[d[0]].Payload = out[d[1]].Payload
	}
	return out, nil
}

// missFanout is one lone-server batch's miss resolution, shared by the
// request goroutine and the miss helpers it hands misses to. Pooled, so a
// miss batch allocates nothing beyond its response.
type missFanout struct {
	s   *Server
	ctx obs.TraceCtx
	dl  time.Time
	out []Sample
	// first maps each distinct missed id to its first position in out;
	// misses lists those positions in request order, and dups pairs every
	// later repeat with its first position.
	first  map[dataset.SampleID]int
	misses []int
	dups   [][2]int
	wg     sync.WaitGroup

	failed atomic.Bool // a miss failed: start no more

	mu   sync.Mutex
	err  error // the earliest failing miss's error
	errK int   // its index in misses
}

var missFanoutPool = sync.Pool{New: func() any {
	return &missFanout{first: make(map[dataset.SampleID]int)}
}}

// release resets f and returns it to the pool once every miss is done.
// A fan-out grown by an unusually large batch is left to the collector.
func (f *missFanout) release() {
	if cap(f.misses) > 1024 {
		return
	}
	clear(f.first)
	*f = missFanout{first: f.first, misses: f.misses[:0], dups: f.dups[:0]}
	missFanoutPool.Put(f)
}

// missJob hands miss k of a batch to a miss helper.
type missJob struct {
	f *missFanout
	k int
}

func (f *missFanout) stopped() bool { return f.failed.Load() }

// resolve fills miss k's payload, or records its error.
func (f *missFanout) resolve(k int) {
	if f.stopped() {
		return
	}
	i := f.misses[k]
	payload, err := f.s.resolvePayload(f.out[i].ID, f.ctx, f.dl)
	if err != nil {
		f.mu.Lock()
		if f.err == nil || k < f.errK {
			f.err, f.errK = err, k
		}
		f.mu.Unlock()
		f.failed.Store(true)
		return
	}
	f.out[i].Payload = payload
}

// maxMissHelpers caps the lone-server miss helpers at four per backend
// read slot. A helper spends part of each miss outside its read —
// singleflight, admission under policyMu, the store insert — and with one
// or two per slot the slots sat idle under load: BenchmarkServeConcurrent
// at 8 clients gave ~60k, ~71k and ~90k samples/s at one, two and four
// per slot, and four matched a goroutine per miss.
const maxMissHelpers = 4 * backendReadBudget

// dispatchMiss hands j to an idle miss helper, starting a new one while
// fewer than maxMissHelpers exist, and otherwise waits for one to be free.
// Helpers live until the server closes: reusing them, rather than starting
// goroutines per batch, keeps a miss batch's allocations flat in its size.
func (s *Server) dispatchMiss(j missJob) {
	select {
	case s.missJobs <- j:
		return
	default:
	}
	if s.missHelperN.Add(1) <= maxMissHelpers {
		s.missHelpers.Add(1)
		go s.missHelper(j)
		return
	}
	s.missHelperN.Add(-1)
	select {
	case s.missJobs <- j:
	case <-s.tr.Closed(): // idle helpers are exiting
		j.f.resolve(j.k)
		j.f.wg.Done()
	}
}

// missHelper resolves j, then every miss handed to it until the server
// closes.
func (s *Server) missHelper(j missJob) {
	defer s.missHelpers.Done()
	for {
		j.f.resolve(j.k)
		j.f.wg.Done()
		select {
		case j = <-s.missJobs:
		case <-s.tr.Closed():
			return
		}
	}
}

// collectBatched is the scatter-gather data plane: local hits are served
// from the payload store as usual, and ALL of the mini-batch's misses are
// resolved together — one directory multi-lookup, one opPeerGetBatch RPC
// per owning node (fanned out concurrently), backend reads for the rest —
// with every miss registered in the singleflight layer first, so
// concurrent requests (and the prefetch pool) for the same samples still
// coalesce onto exactly one fetch and every waiter is satisfied exactly
// once. See resolveMissBatch in peer.go for the fan-out itself.
func (s *Server) collectBatched(served []dataset.SampleID, ctx obs.TraceCtx, dl time.Time) ([]Sample, error) {
	histsOn := s.obs.histsOn()
	out := make([]Sample, len(served))

	// Pass 1: local hits, and the deduplicated miss list. Duplicate ids in
	// one batch must enter singleflight once — a second Begin on a key this
	// goroutine already leads would deadlock it against itself.
	var missIDs []dataset.SampleID
	missSet := make(map[dataset.SampleID]struct{})
	for i, id := range served {
		var tHit time.Time
		if histsOn {
			tHit = time.Now()
		}
		if payload, ok := s.payloads.get(id); ok {
			s.obs.localHit.Since(tHit)
			s.prefetch.noteHit(id)
			out[i] = Sample{ID: id, Payload: payload}
			continue
		}
		if _, dup := missSet[id]; !dup {
			missSet[id] = struct{}{}
			missIDs = append(missIDs, id)
		}
	}
	if len(missIDs) == 0 {
		return out, nil
	}

	// Pass 2: join or lead the in-flight fetch for every miss. Keys led by
	// another goroutine (or the prefetch pool) are only waited on; the keys
	// we lead are resolved by the scatter-gather fan-out, which MUST finish
	// every one of them (resolveMissBatch guarantees that on all paths).
	calls := make(map[dataset.SampleID]*singleflight.Call, len(missIDs))
	var leads []dataset.SampleID
	for _, id := range missIDs {
		c, leader := s.flight.Begin(int64(id))
		calls[id] = c
		if leader {
			leads = append(leads, id)
		}
	}
	if len(leads) > 0 {
		// A demand miss that overtakes a queued-but-unstarted planned
		// prefetch promotes it: this fetch becomes the one backend read and
		// the plan entry is cancelled (the backend must not pay twice).
		for _, id := range leads {
			s.prefetch.noteDemand(id)
		}
		s.resolveMissBatch(leads, calls, ctx, dl, provFetch)
	}

	// Pass 3: collect results. Every position whose id entered the miss set
	// is filled from its call; pass-1 local hits keep their payloads. Calls
	// we led are already finished (Wait returns immediately); foreign calls
	// may still be in flight, and waiting on them is the coalescing win.
	leadSet := make(map[dataset.SampleID]struct{}, len(leads))
	for _, id := range leads {
		leadSet[id] = struct{}{}
	}
	for i, id := range served {
		if _, missed := missSet[id]; !missed {
			continue // local hit from pass 1
		}
		_, ours := leadSet[id]
		var tWait time.Time
		if !ours && histsOn {
			tWait = time.Now()
		}
		payload, err := calls[id].Wait()
		if err != nil {
			return nil, fmt.Errorf("rpc: backend fetch of sample %d: %w", id, err)
		}
		if !ours {
			atomic.AddInt64(&s.coalescedMisses, 1)
			s.obs.sfWait.Since(tWait)
		}
		out[i] = Sample{ID: id, Payload: payload}
	}
	return out, nil
}

// resolvePayload produces the bytes for a sample whose payload is not in
// the store, without holding any lock. Concurrent misses on the same
// sample — from request goroutines or the prefetch pool — are coalesced:
// one goroutine runs the fetch, the rest wait and share its result. ctx is
// the trace context of the request driving this fetch (zero for untraced
// requests and prefetch work); when a traced request joins another
// request's in-flight fetch, the executing request's context owns the
// spans.
func (s *Server) resolvePayload(id dataset.SampleID, ctx obs.TraceCtx, dl time.Time) ([]byte, error) {
	return s.resolvePayloadProv(id, ctx, dl, provFetch)
}

// resolvePayloadProv is resolvePayload carrying the admission provenance
// of the caller (foreground fetch vs. prefetch worker). When callers with
// different provenance coalesce onto one flight, the executor's provenance
// wins — attribution is per fetch, not per waiter. On a distributed node
// the fetch is a batch of one through resolveMissBatch (§III-E flow: local
// cache → directory → remote cache → storage).
func (s *Server) resolvePayloadProv(id dataset.SampleID, ctx obs.TraceCtx, dl time.Time, prov admitProv) ([]byte, error) {
	var tWait time.Time
	if s.obs.histsOn() {
		tWait = time.Now()
	}
	if s.dist != nil {
		c, leader := s.flight.Begin(int64(id))
		if leader {
			if prov != provPrefetch {
				s.prefetch.noteDemand(id)
			}
			s.resolveMissBatch([]dataset.SampleID{id}, map[dataset.SampleID]*singleflight.Call{id: c}, ctx, dl, prov)
			return c.Wait()
		}
		payload, err := c.Wait()
		atomic.AddInt64(&s.coalescedMisses, 1)
		s.obs.sfWait.Since(tWait)
		return payload, err
	}
	payload, err, shared := s.flight.Do(int64(id), func() ([]byte, error) {
		// Re-check under the flight lock's happens-before edge: a racing
		// fetch may have filled the store between our miss and our turn.
		if p, ok := s.payloads.get(id); ok {
			return p, nil
		}
		if prov != provPrefetch {
			// A demand fetch executing for this sample promotes any
			// queued-but-unstarted planned prefetch (see noteDemand).
			s.prefetch.noteDemand(id)
		}
		p, err := s.fetchBackend(id, ctx)
		if err != nil {
			return nil, err
		}
		if prov != provPrefetch {
			atomic.AddInt64(&s.demandFetches, 1)
		}
		s.admit(id, p, prov)
		return p, nil
	})
	if shared {
		atomic.AddInt64(&s.coalescedMisses, 1)
		// Only shared callers waited on someone else's fetch; the executor's
		// time is the backend/peer stage itself.
		s.obs.sfWait.Since(tWait)
	}
	return payload, err
}

// backendReadBudget is the per-server cap on concurrent ByteSource reads,
// shared by demand misses, the prefetch pool, plan entries, the
// distributed backend tail and checkpoint rehydration. Chosen from
// 8/16/32/64/128 on the single-node training benchmark over a 16-slot
// OrangeFS model: hashing samples to storage servers leaves some servers
// idle at 16 in flight, and past 32 the extra reads mostly queue inside
// the backend (see DESIGN.md, "Miss path and the backend read budget").
const backendReadBudget = 32

// fetchBackend is the one door to the ByteSource. It waits for a slot of
// the read budget first — FIFO, whatever the caller — and only then starts
// the backend_fetch clock, so the stage histogram, the backend span and
// the planner's throughput calibration see service time, never queueing
// time; the wait itself is the backend_queue_wait stage.
func (s *Server) fetchBackend(id dataset.SampleID, ctx obs.TraceCtx) ([]byte, error) {
	measure := s.obs.histsOn() || s.obs.tracing(ctx)
	var t0 time.Time
	if measure {
		t0 = time.Now()
	}
	s.readSlots <- struct{}{}
	s.backendInflight.Add(1)
	var tFetch time.Time
	if measure || s.plan != nil {
		tFetch = time.Now()
	}
	if measure {
		s.obs.backendQueueWait.Record(tFetch.Sub(t0))
	}
	p, err := s.source.Fetch(id)
	s.backendInflight.Add(-1)
	<-s.readSlots
	if !tFetch.IsZero() {
		dur := time.Since(tFetch)
		if measure {
			s.obs.backend.Record(dur)
			s.span(trace.KindBackend, id, 0, ctx, dur)
		}
		if s.plan != nil && err == nil {
			s.observeBackend(len(p), dur)
		}
	}
	return p, err
}

// BackendInflight reports the backend reads currently holding a slot of
// the server's read budget (gauge).
func (s *Server) BackendInflight() int64 { return s.backendInflight.Load() }

// admit stores a freshly fetched payload if the policy engine kept the
// sample resident and (in distributed mode) the directory claim succeeds.
// Called without locks; takes policyMu only for the residency checks and
// the final store insert, never across the directory call.
func (s *Server) admit(id dataset.SampleID, payload []byte, prov admitProv) {
	s.policyMu.Lock()
	resident := s.cache.Resident(id)
	s.policyMu.Unlock()
	if !resident {
		return
	}
	if !s.claimOwnership(id) {
		// Lost the claim race: another node owns it now.
		s.policyMu.Lock()
		s.cache.Drop(id)
		s.policyMu.Unlock()
		return
	}
	// Insert under policyMu so an eviction (which deletes store entries
	// under policyMu) cannot interleave between our residency check and
	// the store write, which would leak a payload with no resident owner.
	s.policyMu.Lock()
	if s.cache.Resident(id) {
		s.payloads.put(id, payload)
		s.dec.countAdmit(prov)
	} else {
		// Evicted while we were claiming; hand the claim back.
		s.releaseOwnership(id)
	}
	s.policyMu.Unlock()
}

// CoalescedMisses reports how many miss-path fetches were served by
// joining another goroutine's in-flight fetch.
func (s *Server) CoalescedMisses() int64 { return atomic.LoadInt64(&s.coalescedMisses) }

// DemandFetches reports how many backend reads were issued on the demand
// path — the cold misses the clairvoyant plan exists to eliminate.
func (s *Server) DemandFetches() int64 { return atomic.LoadInt64(&s.demandFetches) }

package rpc

import (
	"errors"
	"fmt"
	"io"
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
//		connMu (independent leaf: listener/connection bookkeeping only)
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
//	  - connMu guards the listener and the live-connection set; it nests
//	    with nothing.
//
// The backend read budget (readSlots) is a semaphore, not a lock: a slot
// is held across exactly one ByteSource.Fetch and nothing is acquired
// while holding it (see fetchBackend).
//
// Slow work — backend fetches and remote peer reads — happens outside all
// locks, coalesced per sample ID through a singleflight group so K
// concurrent misses on one sample issue exactly one backend read. The
// distributed helpers in peer.go (resolveRemote, claimOwnership) are
// called WITHOUT policyMu held; the old "called with s.mu held, drops it
// across the network" contract is gone.
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
	// muxInflight gauges mux requests currently in async dispatch (atomic).
	muxInflight int64
	// legacyProto pins the server to pre-PR-5 wire behavior (test hook;
	// see SetLegacyProtocol).
	legacyProto bool

	ln      net.Listener
	conns   sync.WaitGroup
	connMu  sync.Mutex
	connSet map[net.Conn]struct{}
	closed  chan struct{}

	// gate is the adaptive admission controller (nil = admit everything).
	// Installed via SetAdmission before Serve; the serving path reads it
	// without synchronization.
	gate *overload.Gate
	// shedCount / expiredCount (atomics) are requests rejected by the gate
	// and requests dropped because their deadline budget ran out before the
	// cache was touched. Neither increments any cache counter, so the
	// conservation identity extends to
	// hits+misses+substitutions+degraded + shed + expired == offered.
	shedCount    int64
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
		connSet:   make(map[net.Conn]struct{}),
		closed:    make(chan struct{}),
		Logf:      log.Printf,
	}
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
func (s *Server) Serve(ln net.Listener) error {
	s.connMu.Lock()
	select {
	case <-s.closed:
		// Closed before serving began: nothing will close ln for us.
		s.connMu.Unlock()
		ln.Close()
		return net.ErrClosed
	default:
	}
	s.ln = ln
	s.connMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return net.ErrClosed
			default:
				return err
			}
		}
		// Register under connMu, checking closed there: Close sweeps
		// connSet under the same lock after closing s.closed, so a
		// connection accepted as Close runs is either swept or refused
		// here — never registered after the sweep, where Close would wait
		// on it until the client hung up.
		s.connMu.Lock()
		select {
		case <-s.closed:
			s.connMu.Unlock()
			conn.Close()
			continue
		default:
		}
		s.connSet[conn] = struct{}{}
		s.conns.Add(1)
		s.connMu.Unlock()
		go func() {
			defer func() {
				s.connMu.Lock()
				delete(s.connSet, conn)
				s.connMu.Unlock()
				s.conns.Done()
			}()
			s.serveConn(conn)
		}()
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr reports the bound listener address (once Serve has been called).
func (s *Server) Addr() net.Addr {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting and waits for in-flight connections to finish.
func (s *Server) Close() error {
	s.connMu.Lock()
	select {
	case <-s.closed:
		s.connMu.Unlock()
		return nil
	default:
	}
	close(s.closed)
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for conn := range s.connSet {
		conn.Close()
	}
	s.connMu.Unlock()
	s.conns.Wait()
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

// serveConn is one connection's request loop. It reuses a single request
// read buffer across frames (requests are fully decoded — or copied, for
// async mux dispatch — before the next read, so aliasing is safe) and
// encodes every response into a pooled buffer that is returned to the pool
// right after the frame is written.
//
// Frames carrying the opMuxReq envelope are dispatched asynchronously (one
// goroutine per in-flight request, bounded by cs.sem) so a pipelined client
// gets concurrent service on one connection; all response writes — sync and
// async — serialize on cs.wmu so frames never interleave. On teardown the
// connection closes FIRST, then the loop waits for in-flight mux handlers:
// stragglers fail their writes fast instead of blocking shutdown.
func (s *Server) serveConn(conn net.Conn) {
	cs := &muxConnState{conn: conn, sem: make(chan struct{}, muxServerInflight)}
	defer cs.wg.Wait()
	defer conn.Close()
	var rbuf []byte // request frame buffer, reused across requests
	for {
		req, err := wire.ReadFrameInto(conn, rbuf)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) {
				// Normal client disconnects arrive as EOF; anything else is
				// worth a log line but never a crash.
				s.logIfUnexpected(err)
			}
			return
		}
		rbuf = req[:0]
		if len(req) >= muxHeaderLen && req[0] == opMuxReq && !s.legacyProto {
			s.serveMuxFrame(cs, req)
			continue
		}
		// Peel any deadline envelope FIRST: both the vectored-path intercept
		// and the admission gate key on the INNER opcode.
		inner := req
		var dl time.Time
		if len(req) > 0 && req[0] == opDeadline && !s.legacyProto {
			var derr error
			inner, dl, _, derr = peelDeadline(req, time.Now())
			if derr != nil {
				msg := derr.Error()
				if err := s.writeControlFrame(cs, 0, false, func(e *buffer) {
					encodeErrorResponseInto(e, msg)
				}); err != nil {
					s.logIfUnexpected(err)
					return
				}
				continue
			}
		}
		// Admission: the legacy per-connection path shares the same gate as
		// the mux fan-out, so a storm of serial connections is bounded too.
		admitted := false
		if g := s.gate; g != nil && gatedOp(inner) {
			ok, after := g.Admit(time.Now())
			if !ok {
				atomic.AddInt64(&s.shedCount, 1)
				if err := s.writeControlFrame(cs, 0, false, func(e *buffer) {
					encodeRetryAfterResponseInto(e, after)
				}); err != nil {
					s.logIfUnexpected(err)
					return
				}
				continue
			}
			admitted = true
		}
		if len(inner) > 0 && s.vecOp(inner[0]) {
			// Hot ops take the zero-copy path: pinned slab payloads framed
			// as one vectored write, no response buffer.
			err := s.serveVecRequest(cs, 0, false, inner, dl)
			if admitted {
				s.gate.Done()
			}
			if err != nil {
				s.logIfUnexpected(err)
				return
			}
			continue
		}
		wb := wire.GetBuffer()
		e := buffer{Buffer: *wb}
		s.dispatchFull(inner, &e, obs.TraceCtx{}, dl)
		wb.B = e.B // appends may have grown past the pooled backing array
		cs.wmu.Lock()
		err = writeFrame(conn, wb.B)
		cs.wmu.Unlock()
		wire.PutBuffer(wb)
		if admitted {
			s.gate.Done()
		}
		if err != nil {
			s.logIfUnexpected(err)
			return
		}
	}
}

// muxServerInflight bounds concurrently dispatched mux requests per
// connection; when full, the read loop blocks, pushing backpressure onto
// the client's own in-flight bound.
const muxServerInflight = 64

// muxConnState is one connection's async-dispatch bookkeeping: the write
// mutex all response frames serialize on, the handler semaphore, and the
// WaitGroup serveConn drains on teardown.
type muxConnState struct {
	conn net.Conn
	wmu  sync.Mutex
	wg   sync.WaitGroup
	sem  chan struct{}
}

// serveMuxFrame dispatches one opMuxReq envelope asynchronously. req aliases
// the read loop's reusable buffer, so the inner request is copied before the
// handler goroutine starts. The response frame echoes the envelope header so
// the client's demux reader can match it.
func (s *Server) serveMuxFrame(cs *muxConnState, req []byte) {
	d := newReader(req)
	d.u8() // opMuxReq (validated by the caller)
	id := d.u32()
	rest := d.rest()
	// Deadline envelope sits inside the mux envelope; peel it before the
	// vec check so a deadlined GetBatch keeps the zero-copy path.
	inner := rest
	var dl time.Time
	if len(rest) > 0 && rest[0] == opDeadline {
		var derr error
		inner, dl, _, derr = peelDeadline(rest, time.Now())
		if derr != nil {
			msg := derr.Error()
			if err := s.writeControlFrame(cs, id, true, func(e *buffer) {
				encodeErrorResponseInto(e, msg)
			}); err != nil {
				s.logIfUnexpected(err)
			}
			return
		}
	}
	// Admission runs BEFORE the per-connection semaphore: a shed request is
	// answered synchronously from the read loop and never occupies a
	// dispatch slot — that is the whole point of shedding.
	admitted := false
	if g := s.gate; g != nil && gatedOp(inner) {
		ok, after := g.Admit(time.Now())
		if !ok {
			atomic.AddInt64(&s.shedCount, 1)
			if err := s.writeControlFrame(cs, id, true, func(e *buffer) {
				encodeRetryAfterResponseInto(e, after)
			}); err != nil {
				s.logIfUnexpected(err)
			}
			return
		}
		admitted = true
	}
	if len(inner) > 0 && s.vecOp(inner[0]) {
		// Zero-copy dispatch: decode the ids into a pooled scratch NOW (inner
		// aliases the reusable read buffer) and hand the scratch — not the
		// request bytes — to the handler goroutine. No request copy.
		op := inner[0]
		sc := getServeScratch()
		di := newReader(inner)
		di.u8()
		ids, derr := decodeGetBatchRequestInto(di, sc.ids[:0])
		sc.ids = ids
		s.acquireMuxSlot(cs, admitted)
		go func() {
			defer s.releaseMuxSlot(cs, admitted)
			if err := s.serveVecDecoded(cs, id, true, op, sc, derr, dl); err != nil {
				s.logIfUnexpected(err)
			}
		}()
		return
	}
	innerCopy := append([]byte(nil), inner...)
	s.acquireMuxSlot(cs, admitted)
	go func() {
		defer s.releaseMuxSlot(cs, admitted)
		wb := wire.GetBuffer()
		e := buffer{Buffer: *wb}
		e.u8(opMuxReq)
		e.u32(id)
		s.dispatchFull(innerCopy, &e, obs.TraceCtx{}, dl)
		wb.B = e.B
		cs.wmu.Lock()
		err := writeFrame(cs.conn, wb.B)
		cs.wmu.Unlock()
		wire.PutBuffer(wb)
		if err != nil {
			s.logIfUnexpected(err)
		}
	}()
}

// acquireMuxSlot takes a per-connection dispatch slot, feeding the time
// spent blocked on the full semaphore — the server's standing queue delay —
// to the admission gate's CoDel window and the admission_wait histogram.
func (s *Server) acquireMuxSlot(cs *muxConnState, admitted bool) {
	measure := admitted || s.obs.histsOn()
	var t0 time.Time
	if measure {
		t0 = time.Now()
	}
	cs.sem <- struct{}{}
	if measure {
		now := time.Now()
		wait := now.Sub(t0)
		if admitted {
			s.gate.Observe(now, wait)
		}
		s.obs.admissionWait.Record(wait)
	}
	cs.wg.Add(1)
	atomic.AddInt64(&s.muxInflight, 1)
}

func (s *Server) releaseMuxSlot(cs *muxConnState, admitted bool) {
	if admitted {
		s.gate.Done()
	}
	atomic.AddInt64(&s.muxInflight, -1)
	<-cs.sem
	cs.wg.Done()
}

// MuxInflight reports the number of mux requests currently being served
// across all connections (gauge).
func (s *Server) MuxInflight() int64 { return atomic.LoadInt64(&s.muxInflight) }

// SetLegacyProtocol pins the server to the pre-PR-5 wire behavior: opPing
// answers with the bare status byte (no capability word), opMuxReq and
// opPeerGetBatch are rejected as unknown opcodes. It exists so
// mixed-version interop tests can stand up a faithful "old binary" —
// production servers never call it. Must be set before Serve.
func (s *Server) SetLegacyProtocol(on bool) { s.legacyProto = on }

// SetAdmission installs the adaptive admission gate (nil = admit
// everything). Must be called before Serve. The gate's state ladder drives
// the brownout side effects in order: Brownout first sacrifices optional
// work — substitution scans stop and the prefetch pool pauses — and only
// the Shed state rejects foreground requests; Normal restores both.
func (s *Server) SetAdmission(g *overload.Gate) {
	s.gate = g
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
func (s *Server) Admission() *overload.Gate { return s.gate }

// OverloadCounters reports how many requests the server shed at admission
// and how many it dropped for an expired deadline budget.
func (s *Server) OverloadCounters() (shed, expired int64) {
	return atomic.LoadInt64(&s.shedCount), atomic.LoadInt64(&s.expiredCount)
}

// gatedOp reports whether the admission gate applies to a request payload.
// Health checks (opPing) and monitoring (opStats) always pass: an operator
// must be able to see an overloaded server. A leading trace envelope is
// skipped so traced data requests don't dodge the gate.
func gatedOp(p []byte) bool {
	if len(p) == 0 {
		return false
	}
	op := p[0]
	if op == opTraced && len(p) > tracedHeaderLen {
		op = p[tracedHeaderLen]
	}
	switch op {
	case opPing, opStats:
		return false
	}
	return true
}

// writeControlFrame writes a small status-only response — shed/expired
// rejections and pre-dispatch protocol errors — on the sync or mux path.
func (s *Server) writeControlFrame(cs *muxConnState, muxID uint32, muxed bool, fill func(e *buffer)) error {
	wb := wire.GetBuffer()
	e := buffer{Buffer: *wb}
	if muxed {
		e.u8(opMuxReq)
		e.u32(muxID)
	}
	fill(&e)
	wb.B = e.B
	cs.wmu.Lock()
	err := writeFrame(cs.conn, wb.B)
	cs.wmu.Unlock()
	wire.PutBuffer(wb)
	return err
}

func (s *Server) logIfUnexpected(err error) {
	if errors.Is(err, net.ErrClosed) {
		return
	}
	if s.Logf != nil {
		s.Logf("rpc: connection error: %v", err)
	}
}

// dispatch decodes one request and produces the response payload
// (allocating form, used by tests and the fuzz harness; the serving loop
// uses dispatchInto with a pooled buffer).
func (s *Server) dispatch(req []byte) []byte {
	var e buffer
	s.dispatchInto(req, &e)
	return e.payload()
}

// dispatchInto decodes one request and appends the response into e.
// Protocol errors are answered, never fatal. The request buffer may be
// reused by the caller after dispatchInto returns, so no slice of req is
// retained (decoders copy what they keep).
func (s *Server) dispatchInto(req []byte, e *buffer) {
	s.dispatchCtx(req, e, obs.TraceCtx{})
}

// dispatchCtx is dispatchInto carrying the request's trace context (zero
// when untraced).
func (s *Server) dispatchCtx(req []byte, e *buffer, ctx obs.TraceCtx) {
	s.dispatchFull(req, e, ctx, time.Time{})
}

// dispatchFull is the dispatch core, carrying the request's trace context
// (zero when untraced) and its absolute deadline (zero when unbounded).
// Each envelope opcode — opTraced, opDeadline — re-enters here exactly
// once: nesting the same envelope twice is rejected, so recursion depth is
// bounded at two.
func (s *Server) dispatchFull(req []byte, e *buffer, ctx obs.TraceCtx, dl time.Time) {
	d := newReader(req)
	op := d.u8()
	switch op {
	case opTraced:
		if ctx.Valid() {
			encodeErrorResponseInto(e, "rpc: nested trace envelope")
			return
		}
		id := uint64(d.i64())
		hop := d.u8()
		if err := d.err(); err != nil {
			encodeErrorResponseInto(e, err.Error())
			return
		}
		inner := obs.TraceCtx{ID: id, Hop: hop}
		if !inner.Valid() {
			encodeErrorResponseInto(e, "rpc: trace envelope with zero trace id")
			return
		}
		s.dispatchFull(d.rest(), e, inner, dl)
	case opDeadline:
		// Normally peeled in the read loop (before the vec intercept); this
		// case serves direct dispatch callers and a deadline nested inside a
		// trace envelope.
		if s.legacyProto {
			encodeErrorResponseInto(e, fmt.Sprintf("rpc: unknown opcode %d", op))
			return
		}
		if !dl.IsZero() {
			encodeErrorResponseInto(e, "rpc: nested deadline envelope")
			return
		}
		budget := d.i64()
		if err := d.err(); err != nil {
			encodeErrorResponseInto(e, err.Error())
			return
		}
		if budget <= 0 {
			encodeErrorResponseInto(e, fmt.Sprintf("rpc: non-positive deadline budget %d", budget))
			return
		}
		s.dispatchFull(d.rest(), e, ctx, time.Now().Add(time.Duration(budget)))
	case opGetBatch:
		var t0 time.Time
		if s.obs.histsOn() || s.obs.tracing(ctx) || s.obs.slowThresh > 0 {
			t0 = time.Now()
		}
		ids, err := decodeGetBatchRequest(d)
		if err != nil {
			encodeErrorResponseInto(e, err.Error())
			return
		}
		samples, err := s.getBatch(ids, ctx, dl)
		if err != nil {
			if errors.Is(err, overload.ErrExpired) {
				encodeExpiredResponseInto(e)
				return
			}
			encodeErrorResponseInto(e, err.Error())
			return
		}
		encodeGetBatchResponseInto(e, samples)
		if !t0.IsZero() {
			dur := time.Since(t0)
			s.obs.request.Record(dur)
			s.span(trace.KindRPCRecv, 0, int64(len(ids)), ctx, dur)
			// Pin this trace as the latency-bucket exemplar: the journal's
			// bridge from "the p99 bucket moved" to a stitched trace chain.
			s.obs.exemplars.Record(dur, ctx.ID)
			s.maybeLogSlow(ctx, len(ids), dur)
		}
	case opUpdateImportance:
		items, err := decodeUpdateImportanceRequest(d)
		if err != nil {
			encodeErrorResponseInto(e, err.Error())
			return
		}
		s.policyMu.Lock()
		s.cache.InstallHList(sampling.NewHList(items))
		s.policyMu.Unlock()
		e.u8(statusOK)
	case opBeginEpoch:
		_ = d.u32() // epoch number: accepted for symmetry/logging
		s.policyMu.Lock()
		s.cache.StartEpoch(s.now())
		// Settle the prefetch-outcome ledger: pending prefetches the
		// finished epoch never touched are wasted work.
		s.prefetch.sweepEpoch()
		epoch := s.cache.Epoch()
		s.policyMu.Unlock()
		s.journal.Add(obs.EventEpoch, s.journalNode(), epoch-1, epoch, "epoch boundary")
		e.u8(statusOK)
	case opEpochPlan:
		// Clairvoyant epoch boundary: cross the boundary exactly like
		// opBeginEpoch, then hand the policy engine the next epoch's known
		// schedule. PlanSchedule seeds the loader with the missing L-side
		// (honest virtual-time charging) and returns the missing H-side in
		// first-access order for the planner to pre-place.
		if s.legacyProto {
			encodeErrorResponseInto(e, fmt.Sprintf("rpc: unknown opcode %d", op))
			return
		}
		_, ids, err := decodeEpochPlanRequest(d)
		if err != nil {
			encodeErrorResponseInto(e, err.Error())
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
		e.u8(statusOK)
	case opPlanPreplace:
		if s.legacyProto {
			encodeErrorResponseInto(e, fmt.Sprintf("rpc: unknown opcode %d", op))
			return
		}
		ids, err := decodePlanPreplaceRequest(d)
		if err != nil {
			encodeErrorResponseInto(e, err.Error())
			return
		}
		var accepted int
		if s.plan != nil {
			accepted = s.plan.acceptRemote(ids)
		}
		e.u8(statusOK)
		e.u32(uint32(accepted))
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
		if !s.legacyProto {
			// Optional trailing field; legacy framing stays byte-identical.
			e.i64(out.DemandFetches)
		}
	case opPing:
		e.u8(statusOK)
		// Capability handshake: a post-PR-5 client appends its capability
		// word; echo ours so it can pipeline. A bare legacy ping gets the
		// bare legacy answer.
		if !s.legacyProto && len(d.rest()) >= 4 {
			_ = d.u32() // client capabilities (none change our behavior yet)
			e.u32(capMux)
		}
	case opPeerGet:
		s.handlePeerGet(d, e, ctx)
	case opPeerGetBatch:
		if s.legacyProto {
			encodeErrorResponseInto(e, fmt.Sprintf("rpc: unknown opcode %d", op))
			return
		}
		s.handlePeerGetBatch(d, e, ctx)
	default:
		encodeErrorResponseInto(e, fmt.Sprintf("rpc: unknown opcode %d", op))
	}
}

// getBatch runs the cache policy for each requested sample and returns real
// payloads: cached bytes for residents, freshly fetched bytes otherwise
// (stored if the policy admitted the sample). The policy decision is a
// short critical section under policyMu; all byte fetching happens outside
// any lock, coalesced per sample. ctx is the request's trace context (zero
// when untraced); stage timings record into the obs histograms when
// enabled.
func (s *Server) getBatch(ids []dataset.SampleID, ctx obs.TraceCtx, dl time.Time) ([]Sample, error) {
	// Deadline check BEFORE the policy engine runs: an expired request must
	// not move cache state or counters, so shed+expired+served == offered
	// stays an exact identity.
	if s.deadlineExpired(dl) {
		return nil, overload.ErrExpired
	}

	spec := s.source.Spec()
	for _, id := range ids {
		if !spec.Contains(id) {
			return nil, fmt.Errorf("rpc: sample %d out of range for dataset %q", id, spec.Name)
		}
	}

	histsOn := s.obs.histsOn()
	s.policyMu.Lock()
	var tLock time.Time
	if histsOn {
		tLock = time.Now()
	}
	_, served := s.cache.FetchBatch(s.now(), ids)
	s.policyMu.Unlock()
	s.obs.policyLock.Since(tLock)

	if dist := s.dist; dist != nil && dist.peerCfg.Batch > 0 {
		return s.collectBatched(served, ctx, dl)
	}
	return s.collectLone(served, ctx, histsOn, dl)
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

// collectLone resolves a batch on a lone server (and on a distributed one
// whose peer batch size is 0): local hits straight from the payload store,
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
	case <-s.closed: // idle helpers are exiting
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
		case <-s.closed:
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
		s.resolveMissBatch(leads, calls, ctx, dl)
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
// one goroutine runs the fetch (peer cache first in distributed mode, then
// the backend), the rest wait and share its result. ctx is the trace
// context of the request driving this fetch (zero for untraced requests
// and prefetch work); when a traced request joins another request's
// in-flight fetch, the executing request's context owns the spans.
func (s *Server) resolvePayload(id dataset.SampleID, ctx obs.TraceCtx, dl time.Time) ([]byte, error) {
	return s.resolvePayloadProv(id, ctx, dl, provFetch)
}

// resolvePayloadProv is resolvePayload carrying the admission provenance
// of the caller (foreground fetch vs. prefetch worker). When callers with
// different provenance coalesce onto one flight, the executor's provenance
// wins — attribution is per fetch, not per waiter.
func (s *Server) resolvePayloadProv(id dataset.SampleID, ctx obs.TraceCtx, dl time.Time, prov admitProv) ([]byte, error) {
	var tWait time.Time
	if s.obs.histsOn() {
		tWait = time.Now()
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
		// A peer's cache is cheaper than the backend (§III-E flow:
		// local cache → directory → remote cache → storage).
		if remote, ok := s.resolveRemote(id, ctx, dl); ok {
			// Owned elsewhere: this node must not keep a duplicate.
			s.policyMu.Lock()
			if s.cache.Drop(id) {
				s.payloads.delete(id)
			}
			s.policyMu.Unlock()
			return remote, nil
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

package rpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/trace"
	"icache/internal/transport"
	"icache/internal/wire"
)

// The vectored serving path. Every opGetBatch / opPeerGetBatch request —
// traced or not — is served without copying payload bytes and without
// per-request heap allocation when every sample is a local hit:
//
//  1. request ids decode into a pooled scratch slice,
//  2. the policy verdict appends into a pooled served slice
//     (icache.Server.FetchBatchInto),
//  3. each resident payload is pinned in the slab store (refcount +1,
//     no copy),
//  4. the response is framed as header runs + payload references in a
//     pooled wire.Vec and written with ONE vectored write (writev on TCP),
//  5. pins release after the write returns — eviction may have deleted the
//     entries mid-write, but the slabs outlive the iovec submission.
//
// Misses drop to the ordinary resolution machinery (singleflight, peer
// scatter-gather, backend) where a round trip dwarfs allocation cost.

// servedPayload is one response slot: the payload bytes, the pinned slab
// backing them (nil for zero-length or miss-path bytes), and — on the peer
// path — whether the entry was present at all.
type servedPayload struct {
	id  dataset.SampleID
	b   []byte
	pin *slab
	ok  bool
}

// serveScratch is the pooled per-request working set of the vectored path.
type serveScratch struct {
	ids     []dataset.SampleID
	served  []dataset.SampleID
	out     []servedPayload
	missIdx []int
	vec     wire.Vec
}

// maxPooledScratchIDs bounds the id capacity a pooled scratch may retain,
// so one degenerate giant batch does not pin its working set forever.
const maxPooledScratchIDs = 1 << 16

var serveScratchPool = sync.Pool{New: func() interface{} { return &serveScratch{} }}

func getServeScratch() *serveScratch {
	return serveScratchPool.Get().(*serveScratch)
}

// releaseScratch drops every slab pin the request took, clears payload
// references, and returns the scratch to the pool. Safe on partially
// filled scratches (error paths).
func (s *Server) releaseScratch(sc *serveScratch) {
	for i := range sc.out {
		if sc.out[i].pin != nil {
			s.payloads.unref(sc.out[i].pin)
			sc.out[i].pin = nil
		}
		sc.out[i].b = nil
	}
	sc.out = sc.out[:0]
	sc.served = sc.served[:0]
	sc.missIdx = sc.missIdx[:0]
	if cap(sc.ids) > maxPooledScratchIDs {
		return
	}
	sc.ids = sc.ids[:0]
	serveScratchPool.Put(sc)
}

// decodeScratch decodes a batch request body's ids into a pooled scratch.
// The serving loop calls it synchronously (the body aliases the reusable
// read buffer) and hands the scratch — not the request bytes — to the
// handler goroutine.
func decodeScratch(body []byte) (*serveScratch, error) {
	sc := getServeScratch()
	ids, err := decodeGetBatchRequestInto(wire.NewReader(body), sc.ids[:0])
	sc.ids = ids
	return sc, err
}

// serveVecDecoded serves one decoded batch request: resolve payloads
// (pinning local hits), frame, one vectored write. The returned error is a
// connection write error (the caller tears the connection down); protocol
// and resolution errors are answered in-band. Releases sc on all paths.
func (s *Server) serveVecDecoded(c *transport.Conn, h transport.Header, sc *serveScratch, derr error) error {
	defer s.releaseScratch(sc)
	if derr != nil {
		return s.writeVecStatus(c, h.ID, sc, statusErr, derr.Error())
	}
	var t0 time.Time
	if s.obs.histsOn() || s.obs.tracing(h.Trace) || s.obs.slowThresh > 0 {
		t0 = time.Now()
	}
	peer := h.Op == opPeerGetBatch
	var err error
	if peer {
		// The budget may have drained while this request sat in the dispatch
		// queue (the per-connection semaphore): re-check before touching the
		// store. Peer reads inherit the originating request's budget.
		if s.deadlineExpired(h.Deadline) {
			err = overload.ErrExpired
		} else {
			s.fillPeerPinned(sc)
		}
	} else {
		err = s.getBatchPinned(sc.ids, h.Trace, sc, h.Deadline)
	}
	if err != nil {
		if errors.Is(err, overload.ErrExpired) {
			return s.writeVecStatus(c, h.ID, sc, statusExpired, "")
		}
		return s.writeVecStatus(c, h.ID, sc, statusErr, err.Error())
	}
	// Record before the answer is written: a caller holding its answer
	// then also finds this hop's span and the request in the histograms.
	if !t0.IsZero() {
		dur := time.Since(t0)
		s.span(trace.KindRPCRecv, 0, int64(len(sc.ids)), h.Trace, dur)
		if !peer {
			s.obs.request.Record(dur)
			// Pin this trace as the latency-bucket exemplar: the journal's
			// bridge from "the p99 bucket moved" to a stitched trace chain.
			s.obs.exemplars.Record(dur, h.Trace.ID)
			s.maybeLogSlow(h.Trace, len(sc.ids), dur)
		}
	}
	return s.writeVecResponse(c, h.ID, sc, peer)
}

// getBatchPinned is the pinned-hit core of GetBatch: policy verdict into
// sc.served, local hits pinned into sc.out, misses resolved through the
// ordinary coalesced machinery and patched in afterwards. On error the
// caller releases whatever pins were already taken via releaseScratch.
func (s *Server) getBatchPinned(ids []dataset.SampleID, ctx obs.TraceCtx, sc *serveScratch, dl time.Time) error {
	// Same pre-policy deadline check as getBatch: an expired request leaves
	// no trace in the cache counters.
	if s.deadlineExpired(dl) {
		return overload.ErrExpired
	}
	spec := s.source.Spec()
	for _, id := range ids {
		if !spec.Contains(id) {
			return fmt.Errorf("rpc: sample %d out of range for dataset %q", id, spec.Name)
		}
	}

	histsOn := s.obs.histsOn()
	s.policyMu.Lock()
	var tLock time.Time
	if histsOn {
		tLock = time.Now()
	}
	sc.served = sc.served[:0]
	s.cache.FetchBatchInto(s.now(), ids, &sc.served)
	s.policyMu.Unlock()
	s.obs.policyLock.Since(tLock)

	sc.out = sc.out[:0]
	sc.missIdx = sc.missIdx[:0]
	for i, id := range sc.served {
		var tHit time.Time
		if histsOn {
			tHit = time.Now()
		}
		if b, sl, ok := s.payloads.getPinned(id); ok {
			s.obs.localHit.Since(tHit)
			s.prefetch.noteHit(id)
			sc.out = append(sc.out, servedPayload{id: id, b: b, pin: sl, ok: true})
			continue
		}
		sc.out = append(sc.out, servedPayload{id: id, ok: true})
		sc.missIdx = append(sc.missIdx, i)
	}
	if len(sc.missIdx) == 0 {
		return nil
	}

	// Miss path: a backend or peer round trip dwarfs allocation, so reuse
	// the existing resolution machinery as-is. The returned samples align
	// with missIDs (both paths preserve request order). Miss-path bytes are
	// adopted slabs or remote buffers — safe without a pin.
	missIDs := make([]dataset.SampleID, len(sc.missIdx))
	for j, i := range sc.missIdx {
		missIDs[j] = sc.served[i]
	}
	var samples []Sample
	var err error
	if s.dist != nil {
		samples, err = s.collectBatched(missIDs, ctx, dl)
	} else {
		samples, err = s.collectLone(missIDs, ctx, histsOn, dl)
	}
	if err != nil {
		return err
	}
	for j, i := range sc.missIdx {
		sc.out[i].b = samples[j].Payload
	}
	return nil
}

// fillPeerPinned serves opPeerGetBatch against the payload store only:
// per-id pinned lookups, never policyMu, never a cache mutation — the same
// contract as every peer read (see the locking contract in peer.go).
func (s *Server) fillPeerPinned(sc *serveScratch) {
	sc.out = sc.out[:0]
	served := 0
	for _, id := range sc.ids {
		if b, sl, ok := s.payloads.getPinned(id); ok {
			sc.out = append(sc.out, servedPayload{id: id, b: b, pin: sl, ok: true})
			served++
		} else {
			sc.out = append(sc.out, servedPayload{id: id})
		}
	}
	if served > 0 && s.dist != nil {
		atomic.AddInt64(&s.dist.peerServes, int64(served))
	}
}

// writeVecResponse frames sc.out (GetBatch or PeerGetBatch layout) after
// the echoed request ID and performs the single vectored write. Pins in sc stay held until the caller's
// releaseScratch — after the write has fully completed.
func (s *Server) writeVecResponse(c *transport.Conn, id uint32, sc *serveScratch, peer bool) error {
	v := &sc.vec
	v.Reset()
	v.U32(id)
	v.U8(statusOK)
	v.U32(uint32(len(sc.out)))
	for i := range sc.out {
		sp := &sc.out[i]
		if peer {
			if !sp.ok {
				v.U8(0)
				continue
			}
			v.U8(1)
			v.U32(uint32(len(sp.b)))
			v.Payload(sp.b)
			continue
		}
		v.I64(int64(sp.id))
		v.U32(uint32(len(sp.b)))
		v.Payload(sp.b)
	}
	return c.WriteVec(v)
}

// writeVecStatus answers a non-OK status on the vectored path: statusErr
// carries msg (same bytes as transport.AppendError), statusExpired has
// no body.
func (s *Server) writeVecStatus(c *transport.Conn, id uint32, sc *serveScratch, status byte, msg string) error {
	v := &sc.vec
	v.Reset()
	v.U32(id)
	v.U8(status)
	if status == statusErr {
		v.Str(msg)
	}
	return c.WriteVec(v)
}

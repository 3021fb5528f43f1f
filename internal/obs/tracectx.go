package obs

import (
	"sync/atomic"
	"time"
)

// TraceCtx is the compact cross-node request-tracing context carried in
// every request header of the rpc and dkv services: a 64-bit
// trace ID plus a hop counter. Hop 0 is the training client; each
// downstream network hop (cache node → peer owner, cache node → directory)
// increments it. The zero value means "untraced" — ID 0 is never issued.
type TraceCtx struct {
	ID  uint64
	Hop uint8
}

// Valid reports whether the context carries a live trace.
func (t TraceCtx) Valid() bool { return t.ID != 0 }

// Next is the context the current node forwards downstream: same trace,
// one hop deeper. The hop counter saturates instead of wrapping so a
// routing loop cannot masquerade as a fresh chain.
func (t TraceCtx) Next() TraceCtx {
	if t.Hop == ^uint8(0) {
		return t
	}
	return TraceCtx{ID: t.ID, Hop: t.Hop + 1}
}

// traceSeq seeds trace-ID generation; mixed through splitmix64 so
// consecutive IDs share no prefix bits (they double as hash keys).
var traceSeq uint64 = uint64(time.Now().UnixNano())

// NewTraceID issues a process-unique, never-zero trace ID.
func NewTraceID() uint64 {
	for {
		x := atomic.AddUint64(&traceSeq, 0x9E3779B97F4A7C15)
		// splitmix64 finalizer.
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// Sampler is an atomic 1-in-N sampler: Sample reports true on every N-th
// call. A nil Sampler (and every<=0) never samples, following the
// nil-recorder pattern.
type Sampler struct {
	every uint64
	n     uint64
}

// NewSampler builds a 1-in-every sampler; every <= 0 returns nil (never
// sample). every == 1 samples everything.
func NewSampler(every int) *Sampler {
	if every <= 0 {
		return nil
	}
	return &Sampler{every: uint64(every)}
}

// Sample reports whether this call is sampled.
func (s *Sampler) Sample() bool {
	if s == nil {
		return false
	}
	return atomic.AddUint64(&s.n, 1)%s.every == 0
}

// RateLimiter allows at most one event per interval (a CAS on the last
// allowed timestamp — no locks, no allocation). It rate-limits the
// slow-request log so a latency storm cannot flood the process log. A nil
// limiter allows everything.
type RateLimiter struct {
	interval int64 // nanoseconds
	last     int64 // unix nanos of the last allowed event
}

// NewRateLimiter builds a limiter allowing one event per interval;
// interval <= 0 returns nil (no limiting).
func NewRateLimiter(interval time.Duration) *RateLimiter {
	if interval <= 0 {
		return nil
	}
	return &RateLimiter{interval: int64(interval)}
}

// Allow reports whether an event occurring now may pass.
func (l *RateLimiter) Allow(now time.Time) bool {
	if l == nil {
		return true
	}
	ns := now.UnixNano()
	for {
		last := atomic.LoadInt64(&l.last)
		if ns-last < l.interval {
			return false
		}
		if atomic.CompareAndSwapInt64(&l.last, last, ns) {
			return true
		}
	}
}

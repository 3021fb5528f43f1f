package dkv

// This file is the directory service's overload-control wiring, mirroring
// the rpc layer's: an optional admission gate on the DATA operations
// (lookup/claim/release/batch lookup), the request budget a cache node's
// deadline-bounded lookups carry in the request header, and a client-side
// circuit breaker + per-RPC deadline so a hung or dead directory costs a
// bounded stall before the caller degrades to local-only operation.
//
// Liveness traffic (register, heartbeat) and ring gossip are deliberately
// NEVER gated: shedding heartbeats during overload would turn a busy
// directory into a false mass-death event, which is strictly worse than
// the load it sheds.

import (
	"time"

	"icache/internal/overload"
)

// dirDataOp reports whether op is a data-plane operation the admission
// gate covers. Liveness (register/heartbeat), introspection, and ring
// gossip always pass.
func dirDataOp(op byte) bool {
	switch op {
	case opLookup, opLookupBatch, opClaim, opRelease:
		return true
	}
	return false
}

// SetAdmission installs an admission gate on the directory server's data
// operations. Must be called before Serve. nil disables gating.
func (s *DirServer) SetAdmission(g *overload.Gate) { s.tr.Gate = g }

// Admission reports the installed gate (nil when disabled).
func (s *DirServer) Admission() *overload.Gate { return s.tr.Gate }

// SetRPCTimeout bounds every directory round trip. <= 0 leaves round trips
// unbounded, the default. Call before the client is shared across
// goroutines.
func (c *DirClient) SetRPCTimeout(d time.Duration) { c.tc.SetRPCTimeout(d) }

// SetBreaker installs a circuit breaker on the directory client: after
// cfg.Threshold consecutive transport failures the client fails fast
// (overload.ErrBreakerOpen) without touching the network until a
// half-open probe succeeds. Any answer — a served error, a shed or an
// expiry — proves the directory alive. Call before the client is shared
// across goroutines; without it the client always tries.
func (c *DirClient) SetBreaker(cfg overload.BreakerConfig) {
	c.tc.SetBreaker(overload.NewBreaker(cfg))
}

package rpc

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"icache/internal/metrics"
	"icache/internal/overload"
	"icache/internal/wire"
)

// MetricsSnapshot is the JSON document served by the metrics endpoint: the
// cache counters plus the operational gauges an operator dashboards.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Substitutions int64   `json:"substitutions"`
	HitRatio      float64 `json:"hit_ratio"`
	Inserts       int64   `json:"inserts"`
	Evictions     int64   `json:"evictions"`

	HCacheLen  int `json:"hcache_len"`
	LCacheLen  int `json:"lcache_len"`
	Tier2Len   int `json:"tier2_len"`
	PayloadLen int `json:"payload_len"`

	PackagesLoaded    int64 `json:"packages_loaded"`
	LoaderUsefulBytes int64 `json:"loader_useful_bytes"`
	LoaderWastedBytes int64 `json:"loader_wasted_bytes"`
	Tier2Hits         int64 `json:"tier2_hits"`

	PeerServes int64 `json:"peer_serves"`
	PeerHits   int64 `json:"peer_hits"`

	// Node-lifecycle counters (zero unless StartMembership ran).
	MembershipRegisters  int64 `json:"membership_registers"`
	MembershipHeartbeats int64 `json:"membership_heartbeats"`
	MembershipHBRejects  int64 `json:"membership_heartbeat_rejects"`
	ScrubSweeps          int64 `json:"scrub_sweeps"`
	ScrubReleased        int64 `json:"scrub_released"`
	ScrubReclaimed       int64 `json:"scrub_reclaimed"`
	ScrubDropped         int64 `json:"scrub_dropped"`
	ReplayedClaims       int64 `json:"replayed_claims"`
	ReplayDenied         int64 `json:"replay_denied"`

	// Concurrent-serving-path counters (see metrics.ServingStats).
	CoalescedMisses    int64   `json:"coalesced_misses"`
	PrefetchWorkers    int64   `json:"prefetch_workers"`
	PrefetchQueued     int64   `json:"prefetch_queued"`
	PrefetchCompleted  int64   `json:"prefetch_completed"`
	PrefetchDropped    int64   `json:"prefetch_dropped"`
	PrefetchFailed     int64   `json:"prefetch_failed"`
	PrefetchQueueDepth int64   `json:"prefetch_queue_depth"`
	BufferPoolGets     int64   `json:"buffer_pool_gets"`
	BufferPoolAllocs   int64   `json:"buffer_pool_allocs"`
	BufferReuseRate    float64 `json:"buffer_reuse_rate"`
}

// ServingStats gathers the concurrent-serving-path counters: coalesced
// misses, prefetch-pool activity, and wire buffer-pool reuse. (The buffer
// pool is process-wide — shared with the dkv directory protocol — so its
// numbers cover every wire user in the process, which is what an operator
// wants on a combined node.)
func (s *Server) ServingStats() metrics.ServingStats {
	out := metrics.ServingStats{
		CoalescedMisses: atomic.LoadInt64(&s.coalescedMisses),
	}
	if p := s.prefetch; p != nil {
		out.PrefetchQueued = atomic.LoadInt64(&p.queued)
		out.PrefetchCompleted = atomic.LoadInt64(&p.completed)
		out.PrefetchDropped = atomic.LoadInt64(&p.dropped)
		out.PrefetchFailed = atomic.LoadInt64(&p.failed)
		out.PrefetchQueueDepth = int64(p.depth())
		out.PrefetchWorkers = int64(p.workers)
	}
	gets, news, discards := wire.PoolStats()
	out.BufferGets, out.BufferAllocs, out.BufferDiscards = gets, news, discards
	vgets, vnews, vdiscards := wire.VecPoolStats()
	out.VecGets, out.VecAllocs, out.VecDiscards = vgets, vnews, vdiscards
	sl := s.payloads.slabStats()
	out.SlabAllocs = sl.allocs
	out.SlabRecycled = sl.recycled
	out.SlabAdopted = sl.adopted
	out.SlabFreed = sl.freed
	out.SlabBytes = sl.slabBytes
	out.PayloadBytes = sl.liveBytes
	out.PayloadPins = sl.pins
	out.PeerBatchRPCs, out.PeerBatchSamples = s.PeerBatchStats()
	out.MuxInflight = s.MuxInflight()
	return out
}

// OverloadStats gathers the overload-control counters: admission gate
// decisions, server-side deadline drops, and per-peer breaker lifecycle
// aggregated across peers. (Deliberately NOT part of MetricsSnapshot — the
// JSON document is byte-pinned for existing dashboards; these surface via
// Prometheus and this accessor.)
func (s *Server) OverloadStats() metrics.OverloadStats {
	out := metrics.OverloadStats{
		Shed:    s.tr.Shed(),
		Expired: atomic.LoadInt64(&s.expiredCount),
	}
	if g := s.tr.Gate; g != nil {
		gs := g.Stats()
		out.GateState = gs.State.String()
		out.Inflight = gs.Inflight
		out.Admitted = gs.Admitted
		out.Brownouts = gs.Brownouts
		out.Sheds = gs.Sheds
	}
	for _, bs := range s.PeerBreakerStats() {
		if bs.State != overload.BreakerClosed {
			out.BreakersOpen++
		}
		out.BreakerTrips += bs.Trips
		out.BreakerFastFails += bs.FastFails
		out.BreakerProbes += bs.Probes
		out.BreakerRecoveries += bs.Recoveries
	}
	return out
}

// Metrics gathers a consistent snapshot of the policy counters (one short
// policyMu critical section) plus the lock-free serving counters.
func (s *Server) Metrics() MetricsSnapshot {
	s.policyMu.Lock()
	st := s.cache.Stats()
	snap := MetricsSnapshot{
		UptimeSeconds:     time.Since(s.start).Seconds(),
		Hits:              st.Hits,
		Misses:            st.Misses,
		Substitutions:     st.Substitutions,
		HitRatio:          st.HitRatio(),
		Inserts:           st.Inserts,
		Evictions:         st.Evictions,
		HCacheLen:         s.cache.HCacheLen(),
		LCacheLen:         s.cache.LCacheLen(),
		Tier2Len:          s.cache.Tier2Len(),
		PackagesLoaded:    s.cache.PackagesLoaded(),
		LoaderUsefulBytes: s.cache.LoaderUsefulBytes(),
		LoaderWastedBytes: s.cache.LoaderWastedBytes(),
		Tier2Hits:         s.cache.Tier2Hits(),
	}
	s.policyMu.Unlock()

	snap.PayloadLen = s.payloads.len()
	if s.dist != nil {
		snap.PeerServes = atomic.LoadInt64(&s.dist.peerServes)
		snap.PeerHits = atomic.LoadInt64(&s.dist.peerHits)
		mem := s.MembershipStats()
		snap.MembershipRegisters = mem.Registers
		snap.MembershipHeartbeats = mem.Heartbeats
		snap.MembershipHBRejects = mem.HeartbeatRejects
		snap.ScrubSweeps = mem.ScrubSweeps
		snap.ScrubReleased = mem.ScrubReleased
		snap.ScrubReclaimed = mem.ScrubReclaimed
		snap.ScrubDropped = mem.ScrubDropped
		snap.ReplayedClaims = mem.ReplayedClaims
		snap.ReplayDenied = mem.ReplayDenied
	}
	sv := s.ServingStats()
	snap.CoalescedMisses = sv.CoalescedMisses
	snap.PrefetchWorkers = sv.PrefetchWorkers
	snap.PrefetchQueued = sv.PrefetchQueued
	snap.PrefetchCompleted = sv.PrefetchCompleted
	snap.PrefetchDropped = sv.PrefetchDropped
	snap.PrefetchFailed = sv.PrefetchFailed
	snap.PrefetchQueueDepth = sv.PrefetchQueueDepth
	snap.BufferPoolGets = sv.BufferGets
	snap.BufferPoolAllocs = sv.BufferAllocs
	snap.BufferReuseRate = sv.BufferReuseRate()
	return snap
}

// MetricsHandler serves the snapshot on GET /metrics (any path): JSON by
// default (byte-compatible with previous releases), Prometheus text
// exposition with ?format=prom.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := s.WritePrometheus(w); err != nil && s.Logf != nil {
				s.Logf("rpc: prometheus write: %v", err)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.Metrics()); err != nil && s.Logf != nil {
			s.Logf("rpc: metrics encode: %v", err)
		}
	})
}

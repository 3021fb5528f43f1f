package dkv

import (
	"net/http"
	"time"

	"icache/internal/obs"
	"icache/internal/trace"
	"icache/internal/transport"
)

// This file is the directory service's observability wiring, mirroring the
// rpc layer's: an opt-in per-request latency histogram on the server, and
// spans at the hop the request header carries, so a traced cache request's
// directory lookups appear in the cross-node hop chain.

// StageDirServe is the directory server's per-request serve stage; it
// becomes icache_stage_dir_serve_seconds on the Prometheus surface.
const StageDirServe = "dir_serve"

// dirObs is a DirServer's observability state.
type dirObs struct {
	reg   *obs.Registry
	serve *obs.Histogram

	tracer *trace.Recorder
	start  time.Time // trace-clock epoch (set at EnableObs)
}

func (o *dirObs) histsOn() bool { return o.reg != nil }

func (o *dirObs) tracing(ctx obs.TraceCtx) bool { return o.tracer != nil && ctx.Valid() }

// EnableObs arms the directory server's per-request latency histogram
// (reg) and span tracing (tracer). Either may be nil to leave that surface
// off. Must be called before Serve.
func (s *DirServer) EnableObs(reg *obs.Registry, tracer *trace.Recorder) {
	s.obs.reg = reg
	s.obs.serve = reg.Hist(StageDirServe)
	s.obs.tracer = tracer
	s.obs.start = time.Now()
}

// ObsRegistry reports the stage-histogram registry (nil when disabled).
func (s *DirServer) ObsRegistry() *obs.Registry { return s.obs.reg }

// DebugObsHandler serves the shared human-readable observability summary
// (per-stage latency table + trace-ring state) for /debug/obs.
func (s *DirServer) DebugObsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		var ring *obs.RingStats
		if s.obs.tracer != nil {
			ring = &obs.RingStats{Retained: s.obs.tracer.Len(), Total: s.obs.tracer.Total()}
		}
		obs.WriteDebug(w, s.obs.reg, ring, 0)
	})
}

// record notes one served request: the dir_serve histogram, and a
// KindRPCRecv span at the carried hop (Arg = opcode) when it is traced.
func (o *dirObs) record(h transport.Header, dur time.Duration) {
	o.serve.Record(dur)
	if o.tracing(h.Trace) {
		o.tracer.RecordSpan(time.Since(o.start), trace.KindRPCRecv, 0, int64(h.Op), h.Trace.ID, h.Trace.Hop, dur)
	}
}

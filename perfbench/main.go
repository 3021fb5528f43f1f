// Command perfbench is the repository's end-to-end benchmark. It boots the
// live iCache stack in process — rpc.Server nodes over loopback TCP, a
// dkv.DirServer when there are two nodes, and a backend that charges the
// internal/storage cost model in wall time — and drives it from this one
// process with two client connections, checking every delivered payload
// and the servers' conservation identities. The last line of standard
// output is one JSON result.
//
// Run from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload train-1node --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of one untraced pass.
// With --trace 1 it runs an untraced pass, then a traced pass whose layer
// wrappers time every backend read and directory call, and prints the
// per-layer metrics of the traced pass plus the tracing overhead (the
// traced pass's samples_per_s against the untraced one's). Per-epoch lines
// on standard error carry each epoch's schedule hash, so two runs with one
// seed can be shown to access the same samples.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hot-set loopback reference: the hotset-serve response shape.
const (
	loopbackConns  = 2
	loopbackWindow = 2 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: train-1node, train-2node-plan or hotset-serve")
		seed    = flag.Int64("seed", 1, "input seed: schedules, hot set and zipf stream")
		seconds = flag.Int("seconds", 20, "minimum measured time per pass (whole epochs are run)")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: add a traced pass and print per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *traced)
	// A stack that hangs fails the run rather than outlive its caller's
	// time limit. A pass takes its measured time plus about 45 s of setup,
	// cold epochs and checks on the slowest workload.
	passes := time.Duration(1 + *traced)
	time.AfterFunc(passes*(dur+time.Minute)+15*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
		os.Exit(3)
	})

	plain, err := runPass(w, *seed, dur, false)
	if err != nil {
		fatal(err)
	}
	out := result{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}
	errs := plain.checkErrs
	var tr *passResult
	if *traced == 1 && len(errs) == 0 {
		if tr, err = runPass(w, *seed, dur, true); err != nil {
			fatal(err)
		}
		out.Attempted += tr.attempted
		out.Failed += tr.failed
		errs = append(errs, tr.checkErrs...)
	}
	out.Correct = out.Failed == 0 && len(errs) == 0
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %v\n", e)
	}
	switch {
	case !out.Correct:
		// No metrics: a run that failed a check measured nothing valid.
	case tr == nil:
		out.Metrics = endToEnd(plain)
	default:
		var loopback float64
		if w.hot != nil {
			if loopback, err = loopbackSamplesPerSec(loopbackConns, w.batch, w.stack.spec.MeanSampleBytes, loopbackWindow); err != nil {
				fatal(fmt.Errorf("loopback reference: %w", err))
			}
		}
		out.Metrics = perLayer(plain, tr, loopback)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// liveHeap is the live heap after forced collections: the second one
// also frees what the first moved to the sync.Pool victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// warmSum pools the warm epochs' wall time, waits, deliveries and hits.
func (r *passResult) warmSum() (es epochStat) {
	for _, e := range r.warm {
		es.wall += e.wall
		es.stall += e.stall
		es.delivered += e.delivered
		es.hits += e.hits
		es.served += e.served
	}
	return es
}

// median of vs (the mean of the middle two for an even count).
func median[T time.Duration | uint64 | float64](vs []T) T {
	s := append([]T(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// samplesPerSec is verified samples delivered per second of warm epoch
// wall time.
func (r *passResult) samplesPerSec() float64 {
	w := r.warmSum()
	return ratio(float64(w.delivered), w.wall.Seconds())
}

// endToEnd derives the metrics a user of the system sees from one untraced
// pass. Everything but setup_s and cold_epoch_s covers the warm epochs:
// epoch_s is their mean, rates and ratios pool them, heap_mb is the median
// of the heap samples taken during them, and latency quantiles are medians
// over windows (see quantileWindows).
func endToEnd(r *passResult) map[string]metric {
	w := r.warmSum()
	return map[string]metric{
		"setup_s":       {median(r.setups).Seconds(), "s"},
		"epoch_s":       {w.wall.Seconds() / float64(len(r.warm)), "s"},
		"cold_epoch_s":  {median(r.colds).Seconds(), "s"},
		"stall_frac":    {ratio(float64(w.stall), float64(w.wall)), "ratio"},
		"hit_ratio":     {ratio(float64(w.hits), float64(w.served)), "ratio"},
		"samples_per_s": {r.samplesPerSec(), "1/s"},
		"batch_p50_ms":  {median(r.batchLat.p50), "ms"},
		"batch_p99_ms":  {median(r.batchLat.p99), "ms"},
		"success_frac":  {ratio(float64(r.attempted-r.failed), float64(r.attempted)), "ratio"},
		"heap_mb":       {float64(median(r.heap)) / 1e6, "MB"},
	}
}

// perLayer derives the per-layer metrics from the traced pass tr (counts
// cover its whole measured window, all epochs), the tracing overhead
// against the untraced pass, and the same-run loopback reference (zero
// when the workload has none). A layer that does no work reports 0.
func perLayer(plain, tr *passResult, loopback float64) map[string]metric {
	var all epochStat
	for _, e := range append([]epochStat{tr.cold}, tr.warm...) {
		all.delivered += e.delivered
		all.compute += e.compute
		all.verify += e.verify
	}
	samples := float64(all.delivered)
	from, to := tr.from, tr.to
	src := struct{ reads, modelNs, waitNs, busyNs float64 }{
		float64(to.src.reads - from.src.reads), float64(to.src.modelNs - from.src.modelNs),
		float64(to.src.waitNs - from.src.waitNs), float64(to.src.busyNs - from.src.busyNs),
	}
	var d struct {
		hits, misses, subs, packages, subFallback, evictCap                   float64
		coalesced, issued, inTime, late, wasted, dropped                      float64
		planEntries, planDone, preplaced, throttled, peerRPCs, peerSamples    float64
		dirLookups, dirBatches, dirKeys, dirClaims, dirRels, dirErrs, demandW float64
	}
	for i := range to.nodes {
		a, b := from.nodes[i], to.nodes[i]
		d.hits += float64(b.stats.Hits - a.stats.Hits)
		d.misses += float64(b.stats.Misses - a.stats.Misses)
		d.subs += float64(b.stats.Substitutions - a.stats.Substitutions)
		d.packages += float64(b.stats.Packages - a.stats.Packages)
		d.subFallback += float64(b.dec.SubFallback - a.dec.SubFallback)
		d.evictCap += float64(b.dec.EvictCapacity - a.dec.EvictCapacity)
		d.coalesced += float64(b.serving.CoalescedMisses - a.serving.CoalescedMisses)
		d.issued += float64(b.dec.PrefetchIssued - a.dec.PrefetchIssued)
		d.inTime += float64(b.dec.PrefetchInTime - a.dec.PrefetchInTime)
		d.late += float64(b.dec.PrefetchLate - a.dec.PrefetchLate)
		d.wasted += float64(b.dec.PrefetchWasted - a.dec.PrefetchWasted)
		d.dropped += float64(b.dec.PrefetchDropped - a.dec.PrefetchDropped)
		d.planEntries += float64(b.plan.EntriesTotal - a.plan.EntriesTotal)
		d.planDone += float64(b.plan.CompletedTotal - a.plan.CompletedTotal)
		d.preplaced += float64(b.plan.PreplaceSent - a.plan.PreplaceSent)
		d.throttled += float64(b.plan.ThrottleWaits - a.plan.ThrottleWaits)
		d.peerRPCs += float64(b.serving.PeerBatchRPCs - a.serving.PeerBatchRPCs)
		d.peerSamples += float64(b.serving.PeerBatchSamples - a.serving.PeerBatchSamples)
		d.dirLookups += float64(b.dirLookups - a.dirLookups)
		d.dirBatches += float64(b.dirBatches - a.dirBatches)
		d.dirKeys += float64(b.dirKeys - a.dirKeys)
		d.dirClaims += float64(b.dirClaims - a.dirClaims)
		d.dirRels += float64(b.dirRels - a.dirRels)
		d.dirErrs += float64(b.dirErrs - a.dirErrs)
		d.demandW += float64(b.stats.DemandFetches - a.stats.DemandFetches)
	}
	plainSps, trSps := plain.samplesPerSec(), tr.samplesPerSec()
	var ceiling float64
	if loopback > 0 {
		ceiling = plainSps / loopback
	}
	window := to.at.Sub(from.at)
	return map[string]metric{
		"storage.reads_per_sample":   {ratio(src.reads, samples), "ratio"},
		"storage.busy_ms_p50":        {percentileMs(tr.busy, 0.50), "ms"},
		"storage.queue_wait_ms_mean": {ratio(src.waitNs, src.reads) / 1e6, "ms"},
		"storage.concurrency":        {ratio(src.busyNs, float64(window)), "ratio"},
		"storage.service_ratio":      {ratio(src.busyNs, src.modelNs), "ratio"},

		"icache.hits":           {d.hits, "count"},
		"icache.misses":         {d.misses, "count"},
		"icache.substitutions":  {d.subs, "count"},
		"icache.sub_fallback":   {d.subFallback, "count"},
		"icache.evict_capacity": {d.evictCap, "count"},
		"icache.packages":       {d.packages, "count"},

		"rpc.demand_fetches_per_epoch": {ratio(d.demandW-float64(tr.cold.demand), float64(len(tr.warm))), "count"},
		"rpc.coalesced_misses":         {d.coalesced, "count"},
		"rpc.prefetch.issued":          {d.issued, "count"},
		"rpc.prefetch.in_time_ratio":   {ratio(d.inTime, d.inTime+d.late+d.wasted), "ratio"},
		"rpc.prefetch.wasted":          {d.wasted, "count"},
		"rpc.prefetch.dropped":         {d.dropped, "count"},
		"rpc.plan.drained_frac":        {ratio(d.planDone, d.planEntries), "ratio"},
		"rpc.plan.preplace_sent":       {d.preplaced, "count"},
		"rpc.plan.throttle_waits":      {d.throttled, "count"},
		"rpc.peer.batch_rpcs":          {d.peerRPCs, "count"},
		"rpc.peer.samples_per_rpc":     {ratio(d.peerSamples, d.peerRPCs), "ratio"},
		"rpc.get_batch_ms_p50":         {median(tr.batchLat.p50), "ms"},
		"rpc.get_batch_ms_p99":         {median(tr.batchLat.p99), "ms"},

		"dkv.lookup_calls":        {d.dirLookups, "count"},
		"dkv.lookup_batch_calls":  {d.dirBatches, "count"},
		"dkv.lookup_batch_ms_p50": {percentileMs(tr.dirBatchLat, 0.50), "ms"},
		"dkv.lookup_batch_ms_p99": {percentileMs(tr.dirBatchLat, 0.99), "ms"},
		"dkv.keys_per_lookup":     {ratio(d.dirKeys, d.dirBatches), "ratio"},
		"dkv.claim_calls":         {d.dirClaims, "count"},
		"dkv.release_calls":       {d.dirRels, "count"},
		"dkv.claim_ms_p50":        {percentileMs(tr.dirClaimLat, 0.50), "ms"},
		"dkv.errors":              {d.dirErrs, "count"},

		"wire.loopback_samples_per_s": {loopback, "1/s"},
		"wire.ceiling_frac":           {ceiling, "ratio"},

		"train.stall_ms_p50":          {median(tr.stalls.p50), "ms"},
		"train.compute_ms_total":      {float64(all.compute) / 1e6, "ms"},
		"train.verify_ms_total":       {float64(all.verify) / 1e6, "ms"},
		"proc.alloc_bytes_per_sample": {ratio(float64(to.mem.TotalAlloc-from.mem.TotalAlloc-tr.inputAlloc), samples), "B"},
		"proc.gc_cycles":              {float64((to.mem.NumGC - to.mem.NumForcedGC) - (from.mem.NumGC - from.mem.NumForcedGC)), "count"},

		"trace.overhead_frac": {ratio(plainSps-trSps, plainSps), "ratio"},
	}
}

package rpc

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/faults"
	"icache/internal/icache"
	"icache/internal/obs"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/trace"
)

// startObsServer is startServer with the observability layer armed before
// Serve: per-stage histograms and span tracing.
func startObsServer(t *testing.T) (*Server, string, *obs.Registry, *trace.Recorder) {
	t.Helper()
	spec := testSpec()
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	cacheSrv, err := icache.NewServer(back, icache.DefaultConfig(spec.TotalBytes()/5), sampling.DefaultIIS(), 5)
	if err != nil {
		t.Fatal(err)
	}
	source, err := storage.NewDataSource(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cacheSrv, source)
	srv.Logf = nil
	reg := obs.NewRegistry()
	tracer := trace.NewRecorder(1 << 14)
	srv.EnableObs(reg, tracer)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String(), reg, tracer
}

// hotIDs pushes ids 0..n-1 as H-samples through c and returns them.
func hotIDs(t *testing.T, c *Client, n int) []dataset.SampleID {
	t.Helper()
	var items []sampling.Item
	var ids []dataset.SampleID
	for id := dataset.SampleID(0); id < dataset.SampleID(n); id++ {
		items = append(items, sampling.Item{ID: id, IV: 5})
		ids = append(ids, id)
	}
	if err := c.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestMetricsJSONBytesUnchanged pins the JSON exposition byte-for-byte for
// a zero snapshot: existing dashboards parse this document, so adding,
// removing, renaming, or reordering fields is a breaking change that must
// show up here. New metrics belong on the Prometheus surface.
func TestMetricsJSONBytesUnchanged(t *testing.T) {
	got, err := json.MarshalIndent(MetricsSnapshot{}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "uptime_seconds": 0,
  "hits": 0,
  "misses": 0,
  "substitutions": 0,
  "hit_ratio": 0,
  "inserts": 0,
  "evictions": 0,
  "hcache_len": 0,
  "lcache_len": 0,
  "tier2_len": 0,
  "payload_len": 0,
  "packages_loaded": 0,
  "loader_useful_bytes": 0,
  "loader_wasted_bytes": 0,
  "tier2_hits": 0,
  "peer_serves": 0,
  "peer_hits": 0,
  "membership_registers": 0,
  "membership_heartbeats": 0,
  "membership_heartbeat_rejects": 0,
  "scrub_sweeps": 0,
  "scrub_released": 0,
  "scrub_reclaimed": 0,
  "scrub_dropped": 0,
  "replayed_claims": 0,
  "replay_denied": 0,
  "coalesced_misses": 0,
  "prefetch_workers": 0,
  "prefetch_queued": 0,
  "prefetch_completed": 0,
  "prefetch_dropped": 0,
  "prefetch_failed": 0,
  "prefetch_queue_depth": 0,
  "buffer_pool_gets": 0,
  "buffer_pool_allocs": 0,
  "buffer_reuse_rate": 0
}`
	if string(got) != want {
		t.Fatalf("JSON exposition changed (breaking for existing scrapers):\n got: %s\nwant: %s", got, want)
	}
}

// TestPrometheusExposition drives traffic through an obs-enabled server
// and scrapes /metrics?format=prom: every stats family must render, the
// per-stage histograms must appear, and the values must agree with the
// JSON snapshot taken in the same breath.
func TestPrometheusExposition(t *testing.T) {
	srv, addr, _, _ := startObsServer(t)
	c := dial(t, addr)
	ids := hotIDs(t, c, 32)
	for i := 0; i < 3; i++ {
		if _, err := c.GetBatch(ids); err != nil {
			t.Fatal(err)
		}
	}

	ts := httptest.NewServer(srv.MetricsHandler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	text := string(body)

	// One representative metric per family, plus the occupancy gauges.
	for _, name := range []string{
		"icache_cache_hits_total",               // cache family
		"icache_cache_degraded_total",           // field the JSON view never carried
		"icache_cache_rejections_total",         //
		"icache_loader_packages_total",          // loader family
		"icache_resilience_peer_failures_total", // resilience family
		"icache_membership_registers_total",     // membership family
		"icache_membership_suspects_total",      // field the JSON view never carried
		"icache_serving_coalesced_misses_total", // serving family
		"icache_buffer_pool_gets_total",
		"icache_hcache_len",
		"icache_uptime_seconds",
		"icache_evict_capacity_total",      // decision family: reason-coded evictions
		"icache_evict_reasoned_total",      //
		"icache_admit_fetch_total",         // admission provenance
		"icache_prefetch_issued_total",     // prefetch-outcome ledger
		"icache_prefetch_timeliness_ratio", //
		"icache_substitution_exact_total",  // substitution quality
		"icache_epoch_hcache_len",          // epoch-boundary residency
		"icache_journal_events_total",      // journal retention
		"icache_trace_dropped_spans_total", // trace-ring retention
	} {
		if !strings.Contains(text, "\n"+name+" ") && !strings.Contains(text, "\n# TYPE "+name+" ") {
			t.Errorf("prometheus exposition missing %s", name)
		}
	}

	// The serving path registers its stage histograms up front; at least
	// these must expose buckets, sum/count, and quantile companions.
	stages := []string{
		StageRequest, StagePolicyLockHold, StageLocalHit, StageSingleflightWait,
		StageBackendFetch, StagePrefetchQueueWait,
		StageSubstitutionScan,
	}
	for _, st := range stages {
		base := "icache_stage_" + st + "_seconds"
		if !strings.Contains(text, base+"_bucket{le=\"+Inf\"}") {
			t.Errorf("missing histogram buckets for stage %s", st)
		}
		if !strings.Contains(text, base+"_count") || !strings.Contains(text, "icache_stage_"+st+"_p99_seconds") {
			t.Errorf("missing count/quantiles for stage %s", st)
		}
	}

	// Values agree with the JSON snapshot (counters only move forward, and
	// no traffic runs between the scrape and this snapshot).
	m := srv.Metrics()
	if m.Hits == 0 {
		t.Fatal("no hits recorded; traffic did not run")
	}
	wantLine := "icache_cache_hits_total " + strconv.FormatInt(m.Hits, 10)
	if !strings.Contains(text, wantLine) {
		t.Errorf("exposition lacks %q", wantLine)
	}

	// The stage histograms actually recorded the traffic.
	reqLine := "icache_stage_request_seconds_count "
	i := strings.Index(text, reqLine)
	if i < 0 {
		t.Fatal("no request stage count")
	}
	rest := text[i+len(reqLine):]
	if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
		rest = rest[:nl]
	}
	if rest == "0" {
		t.Fatal("request stage histogram never recorded")
	}

	// JSON stays the default view.
	jresp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	if ct := jresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default content type %q", ct)
	}
}

// startTracedDistFixture is the two-node distributed fixture with the
// observability layer armed on both nodes and the directory server. When
// inj is non-nil, node 0's cache listener is wrapped with the injector, so
// node 1's peer reads toward node 0 hit connection faults.
type tracedDistFixture struct {
	*distFixture
	tracers [2]*trace.Recorder
	dirTrc  *trace.Recorder
}

func startTracedDistFixture(t *testing.T, inj *faults.Injector) *tracedDistFixture {
	t.Helper()
	spec := testSpec()

	dir := dkv.NewDirectory()
	dirSrv := dkv.NewDirServer(dir)
	dirTrc := trace.NewRecorder(1 << 14)
	dirSrv.EnableObs(obs.NewRegistry(), dirTrc)
	dirLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go dirSrv.Serve(dirLn)
	t.Cleanup(func() { dirSrv.Close() })

	f := &tracedDistFixture{distFixture: &distFixture{dirAddr: dirLn.Addr().String()}, dirTrc: dirTrc}
	var lns [2]net.Listener
	for n := 0; n < 2; n++ {
		back, err := storage.NewBackend(spec, storage.OrangeFS())
		if err != nil {
			t.Fatal(err)
		}
		cacheSrv, err := icache.NewServer(back, icache.DefaultConfig(spec.TotalBytes()/5), sampling.DefaultIIS(), int64(n+5))
		if err != nil {
			t.Fatal(err)
		}
		source, err := storage.NewDataSource(spec)
		if err != nil {
			t.Fatal(err)
		}
		f.sources[n] = source
		f.nodes[n] = NewServer(cacheSrv, source)
		f.nodes[n].Logf = nil
		f.tracers[n] = trace.NewRecorder(1 << 14)
		f.nodes[n].EnableObs(obs.NewRegistry(), f.tracers[n])
		lns[n], err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		f.addrs[n] = lns[n].Addr().String()
	}
	if inj != nil {
		lns[0] = faults.WrapListener(lns[0], inj)
	}
	for n := 0; n < 2; n++ {
		dirClient, err := dkv.DialDir(f.dirAddr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		peer := map[dkv.NodeID]string{dkv.NodeID(1 - n): f.addrs[1-n]}
		f.nodes[n].EnableDistributed(dkv.NodeID(n), dirClient, peer)
		go f.nodes[n].Serve(lns[n])
	}
	t.Cleanup(func() {
		f.nodes[0].Close()
		f.nodes[1].Close()
	})
	return f
}

// allSpans merges the span events recorded by every participant: the
// training client, both cache nodes, and the directory server — exactly
// what an operator does by concatenating the processes' trace CSVs.
func (f *tracedDistFixture) allSpans(client *trace.Recorder) []trace.Event {
	events := client.Snapshot()
	events = append(events, f.tracers[0].Snapshot()...)
	events = append(events, f.tracers[1].Snapshot()...)
	events = append(events, f.dirTrc.Snapshot()...)
	return events
}

// TestTracedRequestFullHopChain runs a traced GetBatch whose samples live
// on the *other* node: client (hop 0) → node 1 (hop 1) → directory and
// peer node 0 (hop 2). Merging every participant's ring must reconstruct
// the full chain.
func TestTracedRequestFullHopChain(t *testing.T) {
	f := startTracedDistFixture(t, nil)

	cA := dial(t, f.addrs[0])
	cB := dial(t, f.addrs[1])
	ids := hotIDs(t, cA, 12)
	hotIDs(t, cB, 12) // same H-list on node 1, so serving is exact
	// Node 0 fetches and claims the samples.
	if _, err := cA.GetBatch(ids); err != nil {
		t.Fatal(err)
	}

	// Trace every request from this client.
	clientTrc := trace.NewRecorder(1 << 12)
	cB.EnableObs(nil, clientTrc, obs.NewSampler(1))
	samples, err := cB.GetBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		if s.ID != ids[i] {
			t.Fatalf("H-sample %d substituted", ids[i])
		}
	}
	if _, hits := f.nodes[1].PeerStats(); hits == 0 {
		t.Fatal("node 1 recorded no peer hits; the chain under test did not happen")
	}

	chains := trace.Chains(f.allSpans(clientTrc))
	if len(chains) == 0 {
		t.Fatal("no trace chains reconstructed")
	}
	// At least one chain must span all three hops with the expected kinds.
	var full *trace.Chain
	for _, ch := range chains {
		hops := map[uint8]map[trace.Kind]int{}
		for _, sp := range ch.Spans {
			if hops[sp.Hop] == nil {
				hops[sp.Hop] = map[trace.Kind]int{}
			}
			hops[sp.Hop][sp.Kind]++
		}
		if hops[0][trace.KindRPCSend] >= 1 &&
			hops[1][trace.KindRPCRecv] >= 1 &&
			hops[1][trace.KindRPCSend] >= 2 && // directory lookup + peer read
			hops[2][trace.KindRPCRecv] >= 2 { // directory serve + peer serve
			full = ch
			break
		}
	}
	if full == nil {
		for _, ch := range chains {
			t.Logf("chain %016x: %d spans", ch.TraceID, len(ch.Spans))
			for _, sp := range ch.Spans {
				t.Logf("  hop %d %s arg=%d dur=%s", sp.Hop, sp.Kind, sp.Arg, sp.Dur)
			}
		}
		t.Fatal("no chain reconstructs client -> node -> {directory, peer}")
	}
	// Every span carries the chain's trace ID (Chains groups by ID, so
	// corruption would have splintered the chain instead; assert the root
	// duration is sane: the client round trip bounds every inner span).
	for _, sp := range full.Spans {
		if sp.TraceID != full.TraceID {
			t.Fatalf("span trace ID %016x in chain %016x", sp.TraceID, full.TraceID)
		}
		if sp.Hop > 0 && sp.Dur > 2*full.Root+time.Second {
			t.Fatalf("inner span dur %s exceeds root %s beyond tolerance", sp.Dur, full.Root)
		}
	}
}

// TestTracedChainSurvivesPeerFault injects connection faults on the peer
// owner's listener: peer reads from node 1 fail and degrade to backend
// reads, but (a) every requested sample is still served exactly —
// conservation — and (b) the spans that were recorded still form coherent
// chains: no fault may corrupt or cross-wire a trace context.
func TestTracedChainSurvivesPeerFault(t *testing.T) {
	inj := faults.New(17).Add(faults.DropEvery(faults.OpConnRead, 5))
	f := startTracedDistFixture(t, inj)

	cA := dial(t, f.addrs[0])
	cB := dial(t, f.addrs[1])
	ids := hotIDs(t, cA, 16)
	hotIDs(t, cB, 16) // same H-list on node 1, so serving is exact
	if _, err := cA.GetBatch(ids); err != nil {
		t.Fatal(err)
	}

	clientTrc := trace.NewRecorder(1 << 12)
	cB.EnableObs(nil, clientTrc, obs.NewSampler(1))
	for round := 0; round < 4; round++ {
		samples, err := cB.GetBatch(ids)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(samples) != len(ids) {
			t.Fatalf("round %d: served %d of %d", round, len(samples), len(ids))
		}
		for i, s := range samples {
			if s.ID != ids[i] {
				t.Fatalf("round %d: H-sample %d substituted", round, ids[i])
			}
			if err := testSpec().VerifyPayload(s.ID, s.Payload); err != nil {
				t.Fatalf("round %d: corrupt payload: %v", round, err)
			}
		}
	}
	if inj.TotalFired() == 0 {
		t.Fatal("fault rules never fired")
	}

	// Conservation on the serving node: every request fell into exactly
	// one outcome class.
	f.nodes[1].policyMu.Lock()
	st := f.nodes[1].cache.Stats()
	f.nodes[1].policyMu.Unlock()
	if got, want := st.Hits+st.Misses+st.Substitutions+st.Degraded, st.Requests(); got != want {
		t.Fatalf("outcome classes sum to %d, Requests() = %d", got, want)
	}
	if st.Requests() == 0 {
		t.Fatal("node 1 recorded no requests")
	}

	// Chains must stay coherent: hop 0 always has the client send span,
	// hop 1 the serve span, and no chain mixes trace IDs (Chains groups by
	// ID — a corrupted ID would orphan spans into junk chains whose hop
	// structure breaks the invariants below).
	chains := trace.Chains(f.allSpans(clientTrc))
	if len(chains) == 0 {
		t.Fatal("no chains under fault")
	}
	clientIDs := map[uint64]bool{}
	for _, sp := range clientTrc.Snapshot() {
		clientIDs[sp.TraceID] = true
	}
	for _, ch := range chains {
		if !clientIDs[ch.TraceID] {
			t.Fatalf("chain %016x does not correspond to any client-issued trace", ch.TraceID)
		}
		for _, sp := range ch.Spans {
			if sp.TraceID != ch.TraceID {
				t.Fatalf("span trace ID %016x inside chain %016x", sp.TraceID, ch.TraceID)
			}
			if !sp.Kind.IsSpan() {
				t.Fatalf("non-span event %v leaked into chain %016x", sp.Kind, ch.TraceID)
			}
		}
	}
}

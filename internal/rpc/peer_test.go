package rpc

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/icache"
	"icache/internal/obs"
	"icache/internal/sampling"
	"icache/internal/storage"
)

// distFixture is a two-node distributed deployment over loopback TCP: a
// directory service plus two cache nodes wired to it and to each other.
type distFixture struct {
	dirAddr string
	nodes   [2]*Server
	addrs   [2]string
	sources [2]*storage.DataSource
}

func startDistFixture(t *testing.T) *distFixture {
	return startDistFixtureHook(t, nil)
}

// startDistFixtureHook is startDistFixture with a per-node hook that runs
// after EnableDistributed and before Serve — tuning tests adjust peer
// configs.
func startDistFixtureHook(t *testing.T, hook func(n int, srv *Server)) *distFixture {
	t.Helper()
	spec := testSpec()

	dir := dkv.NewDirectory()
	dirSrv := dkv.NewDirServer(dir)
	dirLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go dirSrv.Serve(dirLn)
	t.Cleanup(func() { dirSrv.Close() })

	f := &distFixture{dirAddr: dirLn.Addr().String()}
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
		lns[n], err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		f.addrs[n] = lns[n].Addr().String()
	}
	for n := 0; n < 2; n++ {
		dirClient, err := dkv.DialDir(f.dirAddr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		peer := map[dkv.NodeID]string{dkv.NodeID(1 - n): f.addrs[1-n]}
		f.nodes[n].EnableDistributed(dkv.NodeID(n), dirClient, peer)
		if hook != nil {
			hook(n, f.nodes[n])
		}
		go f.nodes[n].Serve(lns[n])
	}
	t.Cleanup(func() {
		f.nodes[0].Close()
		f.nodes[1].Close()
	})
	return f
}

func TestPeerServedWithoutBackendRead(t *testing.T) {
	f := startDistFixture(t)
	spec := testSpec()

	cA := dial(t, f.addrs[0])
	cB := dial(t, f.addrs[1])

	// Make ids 0..9 H-samples on both nodes so delivery is exact.
	var items []sampling.Item
	var ids []dataset.SampleID
	for id := dataset.SampleID(0); id < 10; id++ {
		items = append(items, sampling.Item{ID: id, IV: 5})
		ids = append(ids, id)
	}
	if err := cA.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if err := cB.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}

	// Node A fetches and claims the samples.
	if _, err := cA.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	// Node B must now serve the same IDs from A's cache: its own backend
	// reads must not grow.
	before := f.sources[1].Reads()
	samples, err := cB.GetBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	if delta := f.sources[1].Reads() - before; delta != 0 {
		t.Fatalf("node B hit its backend %d times; want peer-served", delta)
	}
	for i, s := range samples {
		if s.ID != ids[i] {
			t.Fatalf("sample %d substituted", ids[i])
		}
		if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
			t.Fatalf("peer payload corrupt: %v", err)
		}
	}
	if served, _ := f.nodes[0].PeerStats(); served == 0 {
		t.Fatal("node A never served a peer request")
	}
	if _, hits := f.nodes[1].PeerStats(); hits == 0 {
		t.Fatal("node B recorded no peer hits")
	}
}

func TestNoDuplicatePayloadsAcrossNodes(t *testing.T) {
	f := startDistFixture(t)

	cA := dial(t, f.addrs[0])
	cB := dial(t, f.addrs[1])
	var items []sampling.Item
	var ids []dataset.SampleID
	for id := dataset.SampleID(20); id < 40; id++ {
		items = append(items, sampling.Item{ID: id, IV: 5})
		ids = append(ids, id)
	}
	if err := cA.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if err := cB.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if _, err := cA.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	if _, err := cB.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	// No sample's payload may be stored on both nodes.
	aStored := make(map[dataset.SampleID]bool)
	for _, id := range f.nodes[0].payloads.ids() {
		aStored[id] = true
	}
	for _, id := range f.nodes[1].payloads.ids() {
		if aStored[id] {
			t.Fatalf("sample %d stored on both nodes", id)
		}
	}
}

func TestPeerGetMissIsNotAnError(t *testing.T) {
	f := startDistFixture(t)
	c := dial(t, f.addrs[0])
	res, err := c.peerGetBatch([]dataset.SampleID{1999}, obs.TraceCtx{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != nil {
		t.Fatal("uncached sample reported found")
	}
}

func TestDistributedSurvivesDirectoryOutage(t *testing.T) {
	// If the directory connection dies, nodes must degrade to backend
	// fetches rather than failing requests.
	f := startDistFixture(t)
	c := dial(t, f.addrs[0])
	f.nodes[0].dist.dir.(*dkv.DirClient).Close()
	var ids []dataset.SampleID
	for id := dataset.SampleID(100); id < 110; id++ {
		ids = append(ids, id)
	}
	samples, err := c.GetBatch(ids)
	if err != nil {
		t.Fatalf("request failed during directory outage: %v", err)
	}
	if len(samples) != len(ids) {
		t.Fatalf("served %d of %d", len(samples), len(ids))
	}
}

// staleCountingDir wraps a node's directory client: it counts ownership
// probes and can answer LookupBatch with a stale owner for chosen ids
// (claims still go to the real directory), standing in for an owner that
// dropped the bytes after the directory answered.
type staleCountingDir struct {
	dkv.Service
	lookups       atomic.Int64
	lookupBatches atomic.Int64

	mu    sync.Mutex
	stale map[dataset.SampleID]dkv.NodeID
}

func (d *staleCountingDir) Lookup(id dataset.SampleID) (dkv.NodeID, bool, error) {
	d.lookups.Add(1)
	return d.Service.Lookup(id)
}

func (d *staleCountingDir) LookupBatch(ids []dataset.SampleID) ([]dkv.Owner, error) {
	d.lookupBatches.Add(1)
	owners, err := d.Service.LookupBatch(ids)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, id := range ids {
		if n, ok := d.stale[id]; ok {
			owners[i] = dkv.Owner{Node: n, Found: true}
		}
	}
	return owners, nil
}

// waitPrefetchIdle blocks until srv's prefetch pool has resolved every
// entry it accepted.
func waitPrefetchIdle(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		sv := srv.ServingStats()
		if srv.prefetch.depth() == 0 && sv.PrefetchQueued == sv.PrefetchCompleted+sv.PrefetchFailed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("prefetch pool never settled: %+v", sv)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPrefetchRemoteUsesBatchedPath pins the prefetch pool's remote path on
// a distributed node: a reactive delivery and a plan entry for a sample
// another node owns each cost one LookupBatch and one opPeerGetBatch —
// never a per-sample Lookup — and never count as demand fetches. For each
// delivery kind, one sample is held by its owner (a peer hit: node B keeps
// no copy and reads no backend byte), and one is named by a stale
// directory answer (the peer misses: node B reads the backend and admits
// the bytes with prefetch provenance). After the epoch sweep the prefetch
// ledger balances exactly.
func TestPrefetchRemoteUsesBatchedPath(t *testing.T) {
	var dir *staleCountingDir
	f := startDistFixtureHook(t, func(n int, srv *Server) {
		if n == 1 {
			dir = &staleCountingDir{Service: srv.dist.dir}
			srv.dist.dir = dir
		}
	})
	a, b := f.nodes[0], f.nodes[1]
	if b.prefetch == nil {
		t.Fatal("fixture node has no prefetch pool")
	}

	// Node A fetches and claims the held samples; both nodes carry every
	// test sample in their H-list so plan admission accepts it.
	held := []dataset.SampleID{10, 20}
	cA := dial(t, f.addrs[0])
	cB := dial(t, f.addrs[1])
	var items []sampling.Item
	for id := dataset.SampleID(0); id < 2000; id += 10 {
		items = append(items, sampling.Item{ID: id, IV: 5})
	}
	if err := cA.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if err := cB.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if _, err := cA.GetBatch(held); err != nil {
		t.Fatal(err)
	}
	waitPrefetchIdle(t, a)
	for _, id := range held {
		if !a.payloads.has(id) {
			t.Fatalf("node A did not keep sample %d", id)
		}
	}
	// Stale samples: unowned, not on node A, yet named as node A's.
	var stale []dataset.SampleID
	for id := dataset.SampleID(1000); len(stale) < 2; id += 10 {
		if _, owned, err := f.nodes[0].dist.dir.Lookup(id); err != nil || owned || a.payloads.has(id) {
			continue
		}
		stale = append(stale, id)
	}
	dir.mu.Lock()
	dir.stale = map[dataset.SampleID]dkv.NodeID{stale[0]: 0, stale[1]: 0}
	dir.mu.Unlock()

	reactive := func(id dataset.SampleID) {
		// The loader delivers a sample it just made resident, under the
		// policy lock.
		b.policyMu.Lock()
		b.cache.PlanAdmitH(id)
		b.prefetch.enqueue(id)
		b.policyMu.Unlock()
	}
	planned := func(id dataset.SampleID) {
		if !b.prefetch.enqueuePlanned(id, nil) {
			t.Fatal("plan entry refused")
		}
	}
	for _, tc := range []struct {
		name    string
		deliver func(dataset.SampleID)
		id      dataset.SampleID
		peerHit bool
	}{
		{"reactive/held", reactive, held[0], true},
		{"planned/held", planned, held[1], true},
		{"reactive/stale", reactive, stale[0], false},
		{"planned/stale", planned, stale[1], false},
	} {
		lk, lb := dir.lookups.Load(), dir.lookupBatches.Load()
		rpcs, _ := b.PeerBatchStats()
		_, hits := b.PeerStats()
		reads, demand, dec := f.sources[1].Reads(), b.DemandFetches(), b.DecisionStats()

		tc.deliver(tc.id)
		waitPrefetchIdle(t, b)

		if got := dir.lookups.Load() - lk; got != 0 {
			t.Errorf("%s: %d per-sample Lookups; want 0", tc.name, got)
		}
		if got := dir.lookupBatches.Load() - lb; got != 1 {
			t.Errorf("%s: %d LookupBatch calls; want 1", tc.name, got)
		}
		if got, _ := b.PeerBatchStats(); got-rpcs != 1 {
			t.Errorf("%s: %d opPeerGetBatch RPCs; want 1", tc.name, got-rpcs)
		}
		if got := b.DemandFetches() - demand; got != 0 {
			t.Errorf("%s: prefetch counted %d demand fetches", tc.name, got)
		}
		d := b.DecisionStats()
		if d.AdmitFetch != dec.AdmitFetch {
			t.Errorf("%s: %d admissions with fetch provenance", tc.name, d.AdmitFetch-dec.AdmitFetch)
		}
		_, hitsNow := b.PeerStats()
		wantHits, wantReads, wantAdmits := int64(1), int64(0), int64(0)
		if !tc.peerHit {
			wantHits, wantReads, wantAdmits = 0, 1, 1
		}
		if got := hitsNow - hits; got != wantHits {
			t.Errorf("%s: %d peer hits; want %d", tc.name, got, wantHits)
		}
		if got := f.sources[1].Reads() - reads; got != wantReads {
			t.Errorf("%s: %d backend reads; want %d", tc.name, got, wantReads)
		}
		if got := d.AdmitPrefetch - dec.AdmitPrefetch; got != wantAdmits {
			t.Errorf("%s: %d admissions with prefetch provenance; want %d", tc.name, got, wantAdmits)
		}
		if b.payloads.has(tc.id) == tc.peerHit {
			t.Errorf("%s: node B holds sample %d = %v", tc.name, tc.id, !tc.peerHit)
		}
	}

	b.policyMu.Lock()
	b.prefetch.sweepEpoch()
	b.policyMu.Unlock()
	d := b.DecisionStats()
	if d.PrefetchIssued != 4 {
		t.Fatalf("prefetch issued %d; want 4", d.PrefetchIssued)
	}
	if got := d.PrefetchInTime + d.PrefetchLate + d.PrefetchWasted + d.PrefetchDropped; got != d.PrefetchIssued {
		t.Fatalf("ledger: in_time(%d)+late(%d)+wasted(%d)+dropped(%d) = %d, issued %d",
			d.PrefetchInTime, d.PrefetchLate, d.PrefetchWasted, d.PrefetchDropped, got, d.PrefetchIssued)
	}
}

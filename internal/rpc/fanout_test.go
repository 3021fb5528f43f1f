package rpc

// Tests for the lone-server miss fan-out and the per-server backend read
// budget: a batch's distinct misses are resolved concurrently, every
// backend read (demand, prefetch pool, plan) holds a budget slot, a
// repeated id costs one read, and a failed miss leaves no singleflight key
// behind.

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/leakcheck"
	"icache/internal/obs"
	"icache/internal/storage"
)

// peakSource is a gated ByteSource: every Fetch holds for delay, and the
// source records how many fetches were in flight at once (peak) and how
// often each id was read.
type peakSource struct {
	inner ByteSource
	delay time.Duration

	inflight, peak int64

	mu    sync.Mutex
	reads map[dataset.SampleID]int
}

func newPeakSource(t *testing.T, delay time.Duration) *peakSource {
	t.Helper()
	inner, err := storage.NewDataSource(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	return &peakSource{inner: inner, delay: delay, reads: make(map[dataset.SampleID]int)}
}

func (p *peakSource) Spec() dataset.Spec { return p.inner.Spec() }

func (p *peakSource) Fetch(id dataset.SampleID) ([]byte, error) {
	n := atomic.AddInt64(&p.inflight, 1)
	for {
		cur := atomic.LoadInt64(&p.peak)
		if n <= cur || atomic.CompareAndSwapInt64(&p.peak, cur, n) {
			break
		}
	}
	p.mu.Lock()
	p.reads[id]++
	p.mu.Unlock()
	time.Sleep(p.delay)
	atomic.AddInt64(&p.inflight, -1)
	return p.inner.Fetch(id)
}

func (p *peakSource) readsOf(id dataset.SampleID) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reads[id]
}

// getBatchWithin fails the test if GetBatch does not answer within d — a
// leaked singleflight leader key hangs the request instead of failing it.
func getBatchWithin(t *testing.T, c *Client, ids []dataset.SampleID, d time.Duration) ([]Sample, error) {
	t.Helper()
	type result struct {
		samples []Sample
		err     error
	}
	done := make(chan result, 1)
	go func() {
		s, err := c.GetBatch(ids)
		done <- result{s, err}
	}()
	select {
	case r := <-done:
		return r.samples, r.err
	case <-time.After(d):
		t.Fatalf("GetBatch(%v) did not answer within %s", ids, d)
		return nil, nil
	}
}

// TestLoneMissFanoutWithinBudget sends one request with 64 distinct
// misses to a lone server: the misses must be fetched concurrently (peak
// in flight above 1) but never beyond the per-server read budget, and every
// payload must verify.
func TestLoneMissFanoutWithinBudget(t *testing.T) {
	defer leakcheck.Check(t)
	src := newPeakSource(t, 5*time.Millisecond)
	srv := newUnstartedServer(t, src, 0)
	c := dial(t, serveOn(t, srv))
	ids := hotIDs(t, c, 64)

	samples, err := c.GetBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	for i, s := range samples {
		if s.ID != ids[i] {
			t.Fatalf("position %d: H-sample %d substituted with %d", i, ids[i], s.ID)
		}
		if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
			t.Fatal(err)
		}
	}
	peak := atomic.LoadInt64(&src.peak)
	if peak <= 1 {
		t.Fatalf("peak backend reads in flight = %d: the batch's misses were fetched one at a time", peak)
	}
	if peak > backendReadBudget {
		t.Fatalf("peak backend reads in flight = %d, above the budget of %d", peak, backendReadBudget)
	}
	if got := srv.DemandFetches(); got != int64(len(ids)) {
		t.Fatalf("demand fetches = %d, want one per distinct miss (%d)", got, len(ids))
	}
	if got := srv.BackendInflight(); got != 0 {
		t.Fatalf("backend in-flight gauge = %d after the request, want 0", got)
	}
}

// TestBackendBudgetHoldsUnderConcurrentClients storms a lone server that
// runs the prefetch pool with 8 clients of miss-heavy batches: demand
// fan-out from every request plus the pool's reads share one budget, so the
// source never sees more than backendReadBudget reads at once.
func TestBackendBudgetHoldsUnderConcurrentClients(t *testing.T) {
	defer leakcheck.Check(t)
	src := newPeakSource(t, 2*time.Millisecond)
	srv := newUnstartedServer(t, src, -1)
	if srv.prefetch == nil {
		t.Fatal("fixture has no prefetch pool")
	}
	addr := serveOn(t, srv)
	hotIDs(t, dial(t, addr), 200)

	const clients, rounds, batch = 8, 6, 48
	spec := testSpec()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for k := 0; k < clients; k++ {
		c := dial(t, addr)
		wg.Add(1)
		go func(k int, c *Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(k) + 1))
			ids := make([]dataset.SampleID, batch)
			for r := 0; r < rounds; r++ {
				for j := range ids {
					ids[j] = dataset.SampleID(rng.Intn(spec.NumSamples))
				}
				if _, err := c.GetBatch(ids); err != nil {
					errs <- err
					return
				}
			}
		}(k, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	peak := atomic.LoadInt64(&src.peak)
	if peak <= 1 {
		t.Fatalf("peak backend reads in flight = %d under 8 clients", peak)
	}
	if peak > backendReadBudget {
		t.Fatalf("peak backend reads in flight = %d, above the budget of %d", peak, backendReadBudget)
	}
}

// TestLoneDuplicateIDsInOneBatch mirrors TestBatchedDuplicateIDsInOneBatch
// on the lone-server path: a batch repeating uncached ids fills every
// position and costs one backend read per distinct id.
func TestLoneDuplicateIDsInOneBatch(t *testing.T) {
	src := newPeakSource(t, time.Millisecond)
	srv := newUnstartedServer(t, src, 0)
	c := dial(t, serveOn(t, srv))
	hotIDs(t, c, 16)

	ids := []dataset.SampleID{2, 2, 9, 9, 2}
	samples, err := getBatchWithin(t, c, ids, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	if len(samples) != len(ids) {
		t.Fatalf("got %d samples for %d requests", len(samples), len(ids))
	}
	for i, s := range samples {
		if s.ID != ids[i] {
			t.Fatalf("position %d: H-sample %d substituted with %d", i, ids[i], s.ID)
		}
		if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []dataset.SampleID{2, 9} {
		if n := src.readsOf(id); n != 1 {
			t.Fatalf("sample %d read %d times from the backend, want 1", id, n)
		}
	}
}

// failOnceSource fails the first read of one sample and serves the rest.
type failOnceSource struct {
	ByteSource
	bad    dataset.SampleID
	failed int32
}

func (f *failOnceSource) Fetch(id dataset.SampleID) ([]byte, error) {
	if id == f.bad && atomic.CompareAndSwapInt32(&f.failed, 0, 1) {
		return nil, errors.New("injected disk failure")
	}
	return f.ByteSource.Fetch(id)
}

// TestBackendFailureAmongManyMisses fails one of N misses in a lone-server
// batch: the error surfaces, the connection stays usable, and the other
// N-1 samples — then the failed one — are served on re-request, which
// shows the fan-out finished every singleflight key it led.
func TestBackendFailureAmongManyMisses(t *testing.T) {
	defer leakcheck.Check(t)
	const n = 24
	inner, err := storage.NewDataSource(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	src := &failOnceSource{ByteSource: inner, bad: 11}
	srv := newUnstartedServer(t, src, 0)
	c := dial(t, serveOn(t, srv))
	ids := hotIDs(t, c, n)

	if _, err := getBatchWithin(t, c, ids, 10*time.Second); err == nil || !strings.Contains(err.Error(), "injected disk failure") {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal("connection dead after backend failure")
	}
	var rest []dataset.SampleID
	for _, id := range ids {
		if id != src.bad {
			rest = append(rest, id)
		}
	}
	spec := testSpec()
	for _, batch := range [][]dataset.SampleID{rest, {src.bad}} {
		samples, err := getBatchWithin(t, c, batch, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range samples {
			if s.ID != batch[i] {
				t.Fatalf("position %d: H-sample %d substituted with %d", i, batch[i], s.ID)
			}
			if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBackendQueueWaitStage checks the read budget's observability: with
// stage histograms on, every backend read records one backend_queue_wait
// and one backend_fetch observation, and the in-flight gauge renders on
// Prometheus and the timeline.
func TestBackendQueueWaitStage(t *testing.T) {
	src := newPeakSource(t, time.Millisecond)
	srv := newUnstartedServer(t, src, 0)
	reg := obs.NewRegistry()
	srv.EnableObs(reg, nil)
	c := dial(t, serveOn(t, srv))
	ids := hotIDs(t, c, 2*backendReadBudget)
	if _, err := c.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	wait := reg.Hist(StageBackendQueueWait).Snapshot()
	fetch := reg.Hist(StageBackendFetch).Snapshot()
	if wait.Count != uint64(len(ids)) || fetch.Count != uint64(len(ids)) {
		t.Fatalf("queue-wait / fetch observations = %d / %d, want %d each", wait.Count, fetch.Count, len(ids))
	}
	var b strings.Builder
	if err := srv.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"icache_backend_inflight 0", "icache_stage_backend_queue_wait_seconds"} {
		if !strings.Contains(b.String(), name) {
			t.Errorf("Prometheus exposition lacks %q", name)
		}
	}
	p := srv.TimelinePoint()
	if _, ok := p["backend_inflight"]; !ok {
		t.Error("timeline point lacks backend_inflight")
	}
	if p["backend_queue_wait_s"] != time.Duration(wait.Sum).Seconds() {
		t.Errorf("timeline backend_queue_wait_s = %v, want %v", p["backend_queue_wait_s"], time.Duration(wait.Sum).Seconds())
	}
}

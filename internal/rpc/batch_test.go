package rpc

// Tests for the batched remote data plane: the scatter-gather miss path,
// clean-close logging hygiene, chaos conservation under
// mid-batch peer connection drops, batched directory lookups in the
// scrubber, and the O(owning nodes) peer-RPC bound.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/faults"
	"icache/internal/icache"
	"icache/internal/leakcheck"
	"icache/internal/sampling"
	"icache/internal/storage"
)

// newUnstartedServer builds a server without serving it, so tests can
// configure pre-Serve state (distribution wiring, log capture) race-free — those fields are read without synchronization by
// the serving path and must not change once connections exist. src may be
// nil for a plain storage.DataSource; prefetchWorkers < 0 keeps the config
// default.
func newUnstartedServer(t *testing.T, src ByteSource, prefetchWorkers int) *Server {
	t.Helper()
	spec := testSpec()
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	cfg := icache.DefaultConfig(spec.TotalBytes() / 5)
	if prefetchWorkers >= 0 {
		cfg.PrefetchWorkers = prefetchWorkers
	}
	cacheSrv, err := icache.NewServer(back, cfg, sampling.DefaultIIS(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if src == nil {
		source, err := storage.NewDataSource(spec)
		if err != nil {
			t.Fatal(err)
		}
		src = source
	}
	srv := NewServer(cacheSrv, src)
	srv.Logf = nil
	return srv
}

// serveOn starts srv on a loopback listener and returns its address.
func serveOn(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// waitNoConns blocks until the server has no live connections (the read
// loop observed the close and exited).
func waitNoConns(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := srv.tr.Conns()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still live", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// hangUpListener wraps the first accepted connection in a hangUpConn.
type hangUpListener struct {
	net.Listener
	once sync.Once
}

func (l *hangUpListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.once.Do(func() { c = &hangUpConn{Conn: c} })
	}
	return c, err
}

// hangUpConn is a server-side connection that answers its first request
// and hangs up on the next one, as a crashed server does mid-exchange.
type hangUpConn struct {
	net.Conn
	replied atomic.Bool
}

func (c *hangUpConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.replied.Store(true)
	return n, err
}

func (c *hangUpConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.replied.Load() {
		c.Conn.Close()
		return 0, io.EOF
	}
	return n, err
}

// TestCleanCloseLogsNothing pins the EOF contract of the connection loop: a
// client that completes its requests and closes cleanly must not produce a
// single server log line — EOF and net.ErrClosed are normal teardown, not
// connection errors. Both client connection kinds are checked: the
// pipelined session, which closes from the demux reader's side, and the
// one-shot dial-exchange-close connection a retried call uses.
func TestCleanCloseLogsNothing(t *testing.T) {
	defer leakcheck.Check(t)
	for _, tc := range []struct {
		name  string
		retry bool // break the session first, so the call retries one-shot
	}{
		{"mux", false},
		{"one-shot-retry", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newUnstartedServer(t, nil, -1)
			var mu sync.Mutex
			var lines []string
			srv.Logf = func(format string, args ...interface{}) {
				mu.Lock()
				lines = append(lines, fmt.Sprintf(format, args...))
				mu.Unlock()
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			if tc.retry {
				// The session's server end answers the ping, then hangs up on
				// the next request: that call fails mid-exchange, so its
				// retry takes the one-shot connection.
				ln = &hangUpListener{Listener: ln}
			}
			go srv.Serve(ln)
			t.Cleanup(func() { srv.Close() })

			c := dial(t, ln.Addr().String())
			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.GetBatch([]dataset.SampleID{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			if _, redials := c.Resilience(); tc.retry != (redials > 0) {
				t.Fatalf("redials = %d; the %s case %s retry", redials, tc.name, map[bool]string{true: "must", false: "must not"}[tc.retry])
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			waitNoConns(t, srv)
			mu.Lock()
			defer mu.Unlock()
			if len(lines) != 0 {
				t.Fatalf("clean close logged %d lines: %q", len(lines), lines)
			}
		})
	}
}

// TestBatchedMissCoalescing is the K-concurrent-misses test for the
// scatter-gather path: with distribution enabled (which routes getBatch
// through collectBatched), many clients storming the same uncached samples
// must coalesce onto one backend fetch per sample via the singleflight
// Begin/Finish orchestration, and every client must still receive correct
// bytes.
func TestBatchedMissCoalescing(t *testing.T) {
	defer leakcheck.Check(t)
	spec := testSpec()
	inner, err := storage.NewDataSource(spec)
	if err != nil {
		t.Fatal(err)
	}
	src := &slowFetchSource{inner: inner, delay: 100 * time.Millisecond}
	srv := newUnstartedServer(t, src, -1)
	srv.EnableDistributed(0, dkv.Local{Dir: dkv.NewDirectory()}, nil)
	addr := serveOn(t, srv)

	ids := []dataset.SampleID{3, 5, 8, 13}
	var items []sampling.Item
	for _, id := range ids {
		items = append(items, sampling.Item{ID: id, IV: 10})
	}
	setup := dial(t, addr)
	if err := setup.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}

	const clients = 6
	start := make(chan struct{})
	results := make([][]Sample, clients)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cl := dial(t, addr)
		wg.Add(1)
		go func(c int, cl *Client) {
			defer wg.Done()
			<-start
			samples, err := cl.GetBatch(ids)
			if err != nil {
				errs <- err
				return
			}
			results[c] = samples
		}(c, cl)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for c, samples := range results {
		if len(samples) != len(ids) {
			t.Fatalf("client %d got %d samples for %d requests", c, len(samples), len(ids))
		}
		for i, s := range samples {
			if s.ID != ids[i] {
				t.Fatalf("client %d: H-sample %d substituted with %d", c, ids[i], s.ID)
			}
			if !bytes.Equal(s.Payload, spec.Payload(s.ID)) {
				t.Fatalf("client %d: payload of %d corrupt under batched coalescing", c, s.ID)
			}
		}
	}
	if got := atomic.LoadInt64(&src.fetches); got >= int64(clients*len(ids)) {
		t.Fatalf("%d backend fetches for %d coalesced-candidate requests: no coalescing on the batched path", got, clients*len(ids))
	}
	if srv.CoalescedMisses() == 0 {
		t.Fatal("coalesced-miss counter never moved on the batched path")
	}
}

// TestBatchedDuplicateIDsInOneBatch guards the dedupe in collectBatched: a
// mini-batch repeating the same uncached id must not deadlock the request
// goroutine against its own singleflight key, and every position must be
// filled.
func TestBatchedDuplicateIDsInOneBatch(t *testing.T) {
	srv := newUnstartedServer(t, nil, -1)
	srv.EnableDistributed(0, dkv.Local{Dir: dkv.NewDirectory()}, nil)
	addr := serveOn(t, srv)
	spec := testSpec()

	c := dial(t, addr)
	if err := c.UpdateImportance([]sampling.Item{{ID: 2, IV: 9}, {ID: 9, IV: 9}}); err != nil {
		t.Fatal(err)
	}
	ids := []dataset.SampleID{2, 2, 9, 9, 2}
	done := make(chan struct{})
	var samples []Sample
	var err error
	go func() {
		samples, err = c.GetBatch(ids)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("GetBatch with duplicate ids hung (self-deadlock in the miss orchestration)")
	}
	if err != nil {
		t.Fatal(err)
	}
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
}

// TestChaosMidBatchPeerDropConservation injects connection drops on the
// owning node's listener, so the victim node's batched peer RPCs die
// mid-batch. The victim must degrade the failed chunks to backend reads —
// never error a client — and its outcome counters must conserve EXACTLY:
// the stats delta equals the number of samples its clients requested, with
// no sample double-counted or lost by the scatter-gather fan-out.
func TestChaosMidBatchPeerDropConservation(t *testing.T) {
	inj := faults.New(17).Add(faults.DropEvery(faults.OpConnRead, 5))
	f := startTracedDistFixture(t, inj)
	spec := testSpec()

	cA := dial(t, f.addrs[0])
	cB := dial(t, f.addrs[1])
	ids := hotIDs(t, cA, 16)
	hotIDs(t, cB, 16) // same H-list on node 1, so serving is exact
	if _, err := cA.GetBatch(ids); err != nil {
		t.Fatal(err)
	}

	base := cacheStats(f.nodes[1]).Requests()
	const rounds = 8
	for round := 0; round < rounds; round++ {
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
			if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
				t.Fatalf("round %d: corrupt payload: %v", round, err)
			}
		}
	}
	if inj.TotalFired() == 0 {
		t.Fatal("fault rules never fired")
	}
	if rpcs, _ := f.nodes[1].PeerBatchStats(); rpcs == 0 {
		t.Fatal("victim node never used the batched peer path")
	}

	// Exact conservation: cB is the only client of node 1 and its transport
	// is NOT faulted (only node 0's listener is wrapped), so no client retry
	// can replay a request — the delta must equal exactly what we issued.
	delta := cacheStats(f.nodes[1]).Requests() - base
	if want := int64(rounds * len(ids)); delta != want {
		t.Fatalf("conservation violated under mid-batch drops: outcome classes advanced by %d for %d requested samples", delta, want)
	}
}

// countingDir wraps the in-process directory adapter and counts ownership
// probes, so tests can assert HOW the server talks to the directory, not
// just that it gets answers.
type countingDir struct {
	dkv.Local
	lookups       int64
	lookupBatches int64
	batchedIDs    int64
}

func (c *countingDir) Lookup(id dataset.SampleID) (dkv.NodeID, bool, error) {
	atomic.AddInt64(&c.lookups, 1)
	return c.Local.Lookup(id)
}

func (c *countingDir) LookupBatch(ids []dataset.SampleID) ([]dkv.Owner, error) {
	atomic.AddInt64(&c.lookupBatches, 1)
	atomic.AddInt64(&c.batchedIDs, int64(len(ids)))
	return c.Local.LookupBatch(ids)
}

// TestScrubSweepUsesOneBatchedLookup pins the scrubber's directory cost
// model: one anti-entropy sweep probes its whole resident window with a
// single LookupBatch — not ScrubBatch per-id Lookups — so the directory
// RPC count per sweep drops by ~ScrubBatch×. Claims and releases stay
// per-id (they are the rare repairs), but the common probe is batched.
func TestScrubSweepUsesOneBatchedLookup(t *testing.T) {
	srv := newUnstartedServer(t, nil, 0) // no prefetch pool: its misses would add probes
	cd := &countingDir{Local: dkv.Local{Dir: dkv.NewDirectory()}}
	srv.EnableDistributed(4, cd, nil)
	addr := serveOn(t, srv)

	c := dial(t, addr)
	warmOverWire(t, c, 40) // 40 residents, claimed through cd

	const window = 8
	srv.dist.memCfg = MembershipConfig{ScrubBatch: window}.withDefaults()
	baseLk := atomic.LoadInt64(&cd.lookups)
	baseLB := atomic.LoadInt64(&cd.lookupBatches)
	baseIDs := atomic.LoadInt64(&cd.batchedIDs)
	srv.scrubOnce()

	if got := atomic.LoadInt64(&cd.lookups) - baseLk; got != 0 {
		t.Fatalf("scrub sweep issued %d per-id Lookups; want 0 (batched probe only)", got)
	}
	if got := atomic.LoadInt64(&cd.lookupBatches) - baseLB; got != 1 {
		t.Fatalf("scrub sweep issued %d LookupBatch calls; want exactly 1", got)
	}
	if got := atomic.LoadInt64(&cd.batchedIDs) - baseIDs; got != window {
		t.Fatalf("scrub sweep probed %d ids in one RPC; want the full window of %d", got, window)
	}
	if sweeps := srv.MembershipStats().ScrubSweeps; sweeps != 1 {
		t.Fatalf("ScrubSweeps = %d after one scrubOnce", sweeps)
	}
}

// TestPeerRPCsScaleWithOwnersNotMisses pins the headline property of the
// scatter-gather miss path: a mini-batch whose misses all live on ONE peer
// costs exactly one opPeerGetBatch RPC (plus one directory multi-lookup) —
// O(owning nodes), not O(misses).
func TestPeerRPCsScaleWithOwnersNotMisses(t *testing.T) {
	f := startDistFixture(t)
	spec := testSpec()

	cA := dial(t, f.addrs[0])
	cB := dial(t, f.addrs[1])
	const n = 64
	var items []sampling.Item
	var ids []dataset.SampleID
	for id := dataset.SampleID(0); id < n; id++ {
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

	rpcs0, samples0 := f.nodes[1].PeerBatchStats()
	samples, err := cB.GetBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		if s.ID != ids[i] {
			t.Fatalf("H-sample %d substituted", ids[i])
		}
		if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
			t.Fatal(err)
		}
	}
	rpcs, carried := f.nodes[1].PeerBatchStats()
	if got := rpcs - rpcs0; got != 1 {
		t.Fatalf("%d misses owned by one peer cost %d batched RPCs; want exactly 1", n, got)
	}
	if got := carried - samples0; got != n {
		t.Fatalf("the batched RPC carried %d samples; want all %d misses", got, n)
	}
	if _, hits := f.nodes[1].PeerStats(); hits != n {
		t.Fatalf("peer hits = %d; want %d (every miss served remotely)", hits, n)
	}
}

package rpc

import (
	"fmt"
	"math/rand"
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
	"icache/internal/trace"
	"icache/internal/transport"
)

// slowSource wraps a ByteSource with a fixed per-fetch service time,
// standing in for a congested PFS backend. It makes the miss path the
// bottleneck, which is exactly what the concurrent-serving benchmark needs
// to expose lock serialization: under a single global server lock, backend
// fetches cannot overlap, so adding clients adds no throughput.
type slowSource struct {
	inner   ByteSource
	latency time.Duration
	fetches int64
}

func (s *slowSource) Spec() dataset.Spec { return s.inner.Spec() }

func (s *slowSource) Fetch(id dataset.SampleID) ([]byte, error) {
	atomic.AddInt64(&s.fetches, 1)
	time.Sleep(s.latency)
	return s.inner.Fetch(id)
}

// benchServer builds a serving stack sized for a miss-heavy workload: no
// L-cache (every L-routed request goes to the backend), a deliberately slow
// byte source, and a small payload footprint so byte copies do not mask
// lock behavior.
func benchServer(b *testing.B, backendLatency time.Duration) (*Server, string, *slowSource) {
	b.Helper()
	spec := dataset.Spec{Name: "bench", NumSamples: 4096, MeanSampleBytes: 1024, Seed: 7}
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		b.Fatal(err)
	}
	cfg := icache.DefaultConfig(spec.TotalBytes() / 10)
	cfg.EnableLCache = false // miss-heavy: uncached L-requests hit storage
	cacheSrv, err := icache.NewServer(back, cfg, sampling.DefaultIIS(), 11)
	if err != nil {
		b.Fatal(err)
	}
	inner, err := storage.NewDataSource(spec)
	if err != nil {
		b.Fatal(err)
	}
	src := &slowSource{inner: inner, latency: backendLatency}
	srv := NewServer(cacheSrv, src)
	srv.Logf = nil
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	b.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String(), src
}

// BenchmarkServeConcurrent measures end-to-end serving throughput against
// client count on a miss-heavy workload (every sample fetch pays a 200µs
// backend service time). One benchmark iteration is one GetBatch of
// batchSize samples; the reported samples/sec metric is the headline
// number. With the serving path properly parallel, throughput should scale
// with clients until the backend or the NIC saturates; a global server
// lock pins it flat.
func BenchmarkServeConcurrent(b *testing.B) {
	const (
		batchSize      = 16
		backendLatency = 200 * time.Microsecond
	)
	for _, clients := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			_, addr, _ := benchServer(b, backendLatency)
			spec := dataset.Spec{Name: "bench", NumSamples: 4096, MeanSampleBytes: 1024, Seed: 7}

			conns := make([]*Client, clients)
			for i := range conns {
				c, err := Dial(addr, 2*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				conns[i] = c
			}

			b.ResetTimer()
			var next int64
			var wg sync.WaitGroup
			errc := make(chan error, clients)
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(i)*1299709 + 1))
					ids := make([]dataset.SampleID, batchSize)
					for atomic.AddInt64(&next, 1) <= int64(b.N) {
						for j := range ids {
							ids[j] = dataset.SampleID(rng.Intn(spec.NumSamples))
						}
						if _, err := conns[i].GetBatch(ids); err != nil {
							errc <- err
							return
						}
					}
				}(i)
			}
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-errc:
				b.Fatal(err)
			default:
			}
			elapsed := b.Elapsed().Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N*batchSize)/elapsed, "samples/sec")
			}
		})
	}
}

// discardConn satisfies net.Conn over a sink — the server-side hit-path
// benchmark drives the vectored serving path against it so the measurement
// isolates serve-side work (no client, no loopback socket).
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkServeHitPath measures the server-side cost of one pure-hit
// GetBatch on the zero-copy path: request decode, policy verdict, slab
// pins, vectored framing, write. Run with -benchmem: the headline
// acceptance number is 0 allocs/op — a resident batch is served without a
// single heap allocation.
func BenchmarkServeHitPath(b *testing.B) {
	const (
		batchSize = 16
		hotSet    = 64
	)
	srv, addr, _ := benchServer(b, 0)

	var items []sampling.Item
	var hot []dataset.SampleID
	for id := dataset.SampleID(0); id < hotSet; id++ {
		items = append(items, sampling.Item{ID: id, IV: 5})
		hot = append(hot, id)
	}
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.UpdateImportance(items); err != nil {
		b.Fatal(err)
	}
	if _, err := c.GetBatch(hot); err != nil {
		b.Fatal(err)
	}

	ids := make([]dataset.SampleID, batchSize)
	rng := rand.New(rand.NewSource(17))
	for j := range ids {
		ids[j] = dataset.SampleID(rng.Intn(hotSet))
	}
	h, body, err := transport.DecodeHeader(encodeGetBatchRequest(ids), time.Now())
	if err != nil {
		b.Fatal(err)
	}
	cs := srv.tr.NewConn(discardConn{})

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, derr := decodeScratch(body)
		if err := srv.serveVecDecoded(cs, h, sc, derr); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*batchSize)/elapsed, "samples/sec")
	}
}

// BenchmarkObsOverhead pins the cost of the observability layer on the
// concurrent serving path. Three configurations run the exact workload of
// BenchmarkServeConcurrent/clients=8:
//
//	off:    no registry, no tracer — the nil-recorder fast path. This must
//	        match BenchmarkServeConcurrent/clients=8 (it is the same code).
//	hists:  stage histograms armed (what -metrics-addr costs). Budget: the
//	        samples/sec delta vs off stays within ~3% — the gated
//	        time.Now() calls and striped histogram records are the only
//	        additions.
//	traced: histograms plus span recording with every request traced
//	        (1-in-1 sampling, far denser than any production -trace-sample
//	        setting), the worst case for span recording cost.
//	armed:  the full decision-observability deployment — histograms, span
//	        tracing, the control-plane journal AND a 1s timeline ticker —
//	        i.e. what a production node runs with -metrics-addr and
//	        -trace-csv. Budget: within ~3% of traced, since the journal
//	        appends only on rare state transitions and the timeline
//	        collector runs once a second off the serving path.
//
// Archived via `make bench-obs` into BENCH_obs.json.
func BenchmarkObsOverhead(b *testing.B) {
	const (
		batchSize      = 16
		clients        = 8
		backendLatency = 200 * time.Microsecond
	)
	for _, mode := range []string{"off", "hists", "traced", "armed"} {
		b.Run(mode, func(b *testing.B) {
			srv, addr, _ := benchServer(b, backendLatency)
			spec := dataset.Spec{Name: "bench", NumSamples: 4096, MeanSampleBytes: 1024, Seed: 7}

			var clientTrc *trace.Recorder
			var sampler *obs.Sampler
			switch mode {
			case "hists":
				srv.EnableObs(obs.NewRegistry(), nil)
			case "traced", "armed":
				srv.EnableObs(obs.NewRegistry(), trace.NewRecorder(1<<16))
				clientTrc = trace.NewRecorder(1 << 16)
				sampler = obs.NewSampler(1)
			}
			if mode == "armed" {
				srv.SetJournal(obs.NewJournal(1024))
				tl := obs.NewTimeline(600, srv.TimelinePoint)
				tlStop := make(chan struct{})
				go tl.Run(time.Second, tlStop)
				defer close(tlStop)
			}

			conns := make([]*Client, clients)
			for i := range conns {
				c, err := Dial(addr, 2*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				if clientTrc != nil {
					c.EnableObs(nil, clientTrc, sampler)
				}
				conns[i] = c
			}

			b.ResetTimer()
			var next int64
			var wg sync.WaitGroup
			errc := make(chan error, clients)
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(i)*1299709 + 1))
					ids := make([]dataset.SampleID, batchSize)
					for atomic.AddInt64(&next, 1) <= int64(b.N) {
						for j := range ids {
							ids[j] = dataset.SampleID(rng.Intn(spec.NumSamples))
						}
						if _, err := conns[i].GetBatch(ids); err != nil {
							errc <- err
							return
						}
					}
				}(i)
			}
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-errc:
				b.Fatal(err)
			default:
			}
			elapsed := b.Elapsed().Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N*batchSize)/elapsed, "samples/sec")
			}
		})
	}
}

// benchDistPair builds a two-node distributed deployment over loopback with
// a real TCP directory (round trips count here), mirroring startDistFixture
// at benchmark scale.
func benchDistPair(b *testing.B) ([2]*Server, [2]string) {
	b.Helper()
	spec := dataset.Spec{Name: "bench", NumSamples: 4096, MeanSampleBytes: 1024, Seed: 7}

	dir := dkv.NewDirectory()
	dirSrv := dkv.NewDirServer(dir)
	dirLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go dirSrv.Serve(dirLn)
	b.Cleanup(func() { dirSrv.Close() })

	var nodes [2]*Server
	var addrs [2]string
	var lns [2]net.Listener
	for n := 0; n < 2; n++ {
		back, err := storage.NewBackend(spec, storage.OrangeFS())
		if err != nil {
			b.Fatal(err)
		}
		c := icache.DefaultConfig(spec.TotalBytes() / 10)
		c.EnableLCache = false
		cacheSrv, err := icache.NewServer(back, c, sampling.DefaultIIS(), int64(n+11))
		if err != nil {
			b.Fatal(err)
		}
		source, err := storage.NewDataSource(spec)
		if err != nil {
			b.Fatal(err)
		}
		nodes[n] = NewServer(cacheSrv, source)
		nodes[n].Logf = nil
		lns[n], err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		addrs[n] = lns[n].Addr().String()
	}
	for n := 0; n < 2; n++ {
		dirClient, err := dkv.DialDir(dirLn.Addr().String(), 2*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		peer := map[dkv.NodeID]string{dkv.NodeID(1 - n): addrs[1-n]}
		nodes[n].EnableDistributed(dkv.NodeID(n), dirClient, peer)
		go nodes[n].Serve(lns[n])
	}
	b.Cleanup(func() {
		nodes[0].Close()
		nodes[1].Close()
	})
	return nodes, addrs
}

// BenchmarkPeerHotSet measures the batched remote data plane (archived via
// `make bench-peer` into BENCH_peer.json): eight clients hammer node B with
// mini-batches drawn from a hot set that node A owns, so every request is a
// remote-owned miss (remote hits are never admitted locally — the
// no-duplication invariant keeps the set on A). Each mini-batch costs one
// directory multi-lookup and one opPeerGetBatch RPC, pipelined over the
// peer connection; peer-rpcs/op reports the measured RPC amortization.
func BenchmarkPeerHotSet(b *testing.B) {
	const (
		batchSize = 16
		clients   = 8
		hotSet    = 64
	)
	b.Run("mode=batched", func(b *testing.B) {
		nodes, addrs := benchDistPair(b)

		// Warm: node A fetches and claims the hot set; both nodes carry
		// the same H-list so node B serves the exact requested IDs.
		var items []sampling.Item
		var hot []dataset.SampleID
		for id := dataset.SampleID(0); id < hotSet; id++ {
			items = append(items, sampling.Item{ID: id, IV: 5})
			hot = append(hot, id)
		}
		cA, err := Dial(addrs[0], 2*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		defer cA.Close()
		if err := cA.UpdateImportance(items); err != nil {
			b.Fatal(err)
		}
		if _, err := cA.GetBatch(hot); err != nil {
			b.Fatal(err)
		}

		conns := make([]*Client, clients)
		for i := range conns {
			c, err := Dial(addrs[1], 2*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			conns[i] = c
		}
		if err := conns[0].UpdateImportance(items); err != nil {
			b.Fatal(err)
		}

		rpcs0, _ := nodes[1].PeerBatchStats()
		b.ResetTimer()
		var next int64
		var wg sync.WaitGroup
		errc := make(chan error, clients)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(i)*6700417 + 9))
				ids := make([]dataset.SampleID, batchSize)
				for atomic.AddInt64(&next, 1) <= int64(b.N) {
					for j := range ids {
						ids[j] = dataset.SampleID(rng.Intn(hotSet))
					}
					if _, err := conns[i].GetBatch(ids); err != nil {
						errc <- err
						return
					}
				}
			}(i)
		}
		wg.Wait()
		b.StopTimer()
		select {
		case err := <-errc:
			b.Fatal(err)
		default:
		}
		elapsed := b.Elapsed().Seconds()
		if elapsed > 0 {
			b.ReportMetric(float64(b.N*batchSize)/elapsed, "samples/sec")
		}
		rpcs, _ := nodes[1].PeerBatchStats()
		b.ReportMetric(float64(rpcs-rpcs0)/float64(b.N), "peer-rpcs/op")
	})
}

// BenchmarkServeHotSet is the coalescing stressor: all clients hammer a
// tiny id set, so concurrent misses on the same sample are the common
// case. With singleflight coalescing, K concurrent misses issue one
// backend read; without it they issue K.
func BenchmarkServeHotSet(b *testing.B) {
	const (
		batchSize      = 16
		hotSet         = 32
		backendLatency = 200 * time.Microsecond
	)
	for _, clients := range []int{1, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			_, addr, src := benchServer(b, backendLatency)

			conns := make([]*Client, clients)
			for i := range conns {
				c, err := Dial(addr, 2*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				conns[i] = c
			}

			b.ResetTimer()
			var next int64
			var wg sync.WaitGroup
			errc := make(chan error, clients)
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(i)*15485863 + 3))
					ids := make([]dataset.SampleID, batchSize)
					for atomic.AddInt64(&next, 1) <= int64(b.N) {
						for j := range ids {
							ids[j] = dataset.SampleID(rng.Intn(hotSet))
						}
						if _, err := conns[i].GetBatch(ids); err != nil {
							errc <- err
							return
						}
					}
				}(i)
			}
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-errc:
				b.Fatal(err)
			default:
			}
			elapsed := b.Elapsed().Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N*batchSize)/elapsed, "samples/sec")
				b.ReportMetric(float64(atomic.LoadInt64(&src.fetches))/float64(b.N*batchSize), "fetches/sample")
			}
		})
	}
}

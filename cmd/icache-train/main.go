// Command icache-train drives a live icache-server the way the paper's
// PyTorch client does: per epoch it selects samples with I/O-oriented
// importance sampling, fetches them in mini-batches over the wire, feeds
// observed losses back into the importance tracker, and pushes the fresh
// H-list to the server. It plays the role of the Python training loop,
// with the simulated loss model standing in for real SGD.
//
// Usage (with icache-server running):
//
//	icache-train -addr 127.0.0.1:7820 -dataset cifar10 -epochs 3
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/rpc"
	"icache/internal/sampling"
	"icache/internal/trace"
	"icache/internal/train"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7820", "icache-server address")
		dsName  = flag.String("dataset", "cifar10", "dataset the server hosts")
		epochs  = flag.Int("epochs", 3, "epochs to run")
		bs      = flag.Int("batch", 256, "mini-batch size")
		workers = flag.Int("workers", 4, "concurrent fetch workers (one connection each, like PyTorch data workers)")
		seed    = flag.Int64("seed", 1, "sampler seed")
		clairv  = flag.Bool("clairvoyant", false, "push each epoch's full schedule at the boundary (BeginEpochPlan) so a planning server pre-places the working set; a server without a planner treats it as a plain epoch boundary")
		timeout = flag.Duration("timeout", 5*time.Second, "dial timeout")
		traceN  = flag.Int("trace-sample", 0, "trace 1 in N GetBatch requests end to end (0 disables); traced requests carry a trace ID the server and its peers record spans under")
		traceTo = flag.String("trace-csv", "", "dump the client-side spans of traced requests to this CSV at exit (combine with the server's -trace-csv in icache-trace)")
	)
	flag.Parse()

	var spec dataset.Spec
	switch *dsName {
	case "cifar10":
		spec = dataset.CIFAR10()
	case "imagenet":
		spec = dataset.ImageNet()
	case "imagenet-10pct":
		spec = dataset.ImageNetScaled()
	default:
		log.Fatalf("icache-train: unknown dataset %q", *dsName)
	}

	if *workers < 1 {
		log.Fatalf("icache-train: -workers %d, want >= 1", *workers)
	}
	// Request tracing: one shared recorder and 1-in-N sampler across all
	// worker connections, so "1 in N" holds globally.
	var tracer *trace.Recorder
	var sampler *obs.Sampler
	if *traceN > 0 {
		tracer = trace.NewRecorder(1 << 18)
		sampler = obs.NewSampler(*traceN)
	}

	// One connection per worker, like PyTorch's per-worker loader processes.
	clients := make([]*rpc.Client, *workers)
	for w := range clients {
		c, err := rpc.Dial(*addr, *timeout)
		if err != nil {
			log.Fatalf("icache-train: %v", err)
		}
		defer c.Close()
		if tracer != nil {
			c.EnableObs(nil, tracer, sampler)
		}
		clients[w] = c
	}
	client := clients[0]
	if err := client.Ping(); err != nil {
		log.Fatalf("icache-train: server not responding: %v", err)
	}

	tracker, err := sampling.NewTracker(spec.NumSamples, 2.3, 0.3)
	if err != nil {
		log.Fatal(err)
	}
	loss, err := train.NewLossModel(spec, 0)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed))

	for epoch := 0; epoch < *epochs; epoch++ {
		loss.BeginEpoch(epoch)
		sched, hlist := sampling.IISSchedule(tracker, sampling.DefaultIIS(), rng)
		if err := client.UpdateImportance(hlist.Items); err != nil {
			log.Fatalf("icache-train: push H-list: %v", err)
		}
		// A planned boundary ships the epoch's whole access order, which
		// the sampler drew up front, so a planning server pre-places the
		// misses before the batches arrive.
		var err error
		if *clairv {
			err = client.BeginEpochPlan(epoch, sched.Fetch)
		} else {
			err = client.BeginEpoch(epoch)
		}
		if err != nil {
			log.Fatalf("icache-train: begin epoch: %v", err)
		}

		start := time.Now()
		batches := sched.Batches(*bs)
		// Workers fetch batches concurrently; results come back in order so
		// losses are observed in schedule order, like a real loader queue.
		type result struct {
			samples []rpc.Sample
			err     error
		}
		results := make([]chan result, len(batches))
		for i := range results {
			results[i] = make(chan result, 1)
		}
		next := make(chan int)
		go func() {
			for i := range batches {
				next <- i
			}
			close(next)
		}()
		for w := 0; w < *workers; w++ {
			go func(c *rpc.Client) {
				for i := range next {
					samples, err := c.GetBatch(batches[i])
					results[i] <- result{samples: samples, err: err}
				}
			}(clients[w])
		}
		var bytes int64
		trained := 0
		for i := range batches {
			r := <-results[i]
			if r.err != nil {
				log.Fatalf("icache-train: fetch: %v", r.err)
			}
			for _, s := range r.samples {
				if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
					log.Fatalf("icache-train: corrupt sample: %v", err)
				}
				bytes += int64(len(s.Payload))
				// "Train" the sample: observe its loss, update importance.
				tracker.Observe(s.ID, loss.Train(s.ID))
				trained++
			}
		}
		elapsed := time.Since(start)
		st, err := client.Stats()
		if err != nil {
			log.Fatalf("icache-train: stats: %v", err)
		}
		served := st.Hits + st.Misses + st.Substitutions
		hitRatio := float64(st.Hits+st.Substitutions) / float64(served)
		fmt.Printf("epoch %d: %d samples, %.1f MB in %s (%.0f samples/s) | server: hits=%d misses=%d subs=%d hit-ratio=%.1f%% hcache=%d lcache=%d pkgs=%d\n",
			epoch, trained, float64(bytes)/(1<<20), elapsed.Round(time.Millisecond),
			float64(trained)/elapsed.Seconds(),
			st.Hits, st.Misses, st.Substitutions, 100*hitRatio, st.HCacheLen, st.LCacheLen, st.Packages)
	}

	if tracer != nil {
		events := tracer.Snapshot()
		trace.PrintSpans(os.Stdout, trace.Chains(events), 3)
		if *traceTo != "" {
			f, err := os.Create(*traceTo)
			if err != nil {
				log.Fatalf("icache-train: trace dump: %v", err)
			}
			if err := tracer.WriteCSV(f); err != nil {
				log.Fatalf("icache-train: trace dump: %v", err)
			}
			f.Close()
			fmt.Printf("traced spans dumped to %s (analyze with icache-trace, merge with the server's CSV for the full hop chain)\n", *traceTo)
		}
	}
}

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/dataset"
	"icache/internal/rpc"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/train"
)

// A pass reports the median of its boots as setup_s. Besides the coldRuns
// boots that go on to measure, it boots and closes the stack until it has
// booted minSetups times and the extra boots took setupBudget, so a
// millisecond-scale boot is sampled often enough for a steady median.
const (
	minSetups   = 5
	maxSetups   = 51
	setupBudget = time.Second
)

// workload is one named benchmark configuration.
type workload struct {
	name    string
	stack   stackConfig
	batch   int
	compute time.Duration // charged per trained sample
	// planned pushes each node its share of the schedule at every epoch
	// boundary (BeginEpochPlan) instead of a plain BeginEpoch.
	planned bool
	// hot, when set, makes this a serving workload: a zipf stream over a
	// hot set filled at setup, cut into fixed-size blocks that stand in for
	// epochs, with no importance updates or epoch boundaries.
	hot *hotConfig
}

type hotConfig struct {
	keys         int     // hot-set size
	zipfS        float64 // zipf skew
	blockBatches int     // batches per block ("epoch")
}

// cifar8k is CIFAR10's geometry at 8192 samples.
func cifar8k() dataset.Spec {
	s := dataset.CIFAR10()
	s.NumSamples = 8192
	return s
}

// The workloads each stress different layers (see BENCHMARK.json):
// train-1node is the paper's single-node regime and never touches dkv, peer
// reads or the planner; train-2node-plan is the distributed regime and the
// only one that does; hotset-serve never reads the backend, so it isolates
// the hit path and the wire.
var workloads = map[string]workload{
	"train-1node": {
		name: "train-1node",
		stack: stackConfig{spec: cifar8k(), nodes: 1, cacheFrac: 0.2, lcache: true, prefetch: 4,
			backend: storage.OrangeFS(), connsPerNode: 2},
		batch:   256,
		compute: train.ResNet18.PerSampleGPU,
	},
	"train-2node-plan": {
		name: "train-2node-plan",
		stack: stackConfig{spec: cifar8k(), nodes: 2, cacheFrac: 0.1, lcache: true, prefetch: 4,
			clairvoyant: true, backend: storage.NFS(), connsPerNode: 1},
		batch:   256,
		compute: train.ResNet18.PerSampleGPU,
		planned: true,
	},
	"hotset-serve": {
		name: "hotset-serve",
		stack: stackConfig{spec: dataset.Spec{Name: "hotset", NumSamples: 4096, MeanSampleBytes: 16384, Seed: 7},
			nodes: 1, cacheFrac: 0.25, prefetch: 4, backend: storage.OrangeFS(), connsPerNode: 2},
		batch: 16,
		hot:   &hotConfig{keys: 512, zipfS: 1.2, blockBatches: 16384},
	},
}

// inputs generates a workload's per-epoch access schedule from the seed.
// Schedules depend only on the seed, never on what the stack returns, so
// two runs with one seed request the same samples in the same order.
type inputs interface {
	// epoch returns epoch e's batches and, for training workloads, the
	// H-list to push at its boundary. Epochs are requested in order.
	epoch(e int) (batches [][]dataset.SampleID, hlist []sampling.Item)
}

// iisInputs follows icache-train: an importance tracker and the simulated
// loss model drive the I/O-oriented importance sampler. The tracker
// observes the loss of every scheduled sample, as if each were trained.
type iisInputs struct {
	tracker *sampling.Tracker
	loss    *train.LossModel
	rng     *rand.Rand
	batch   int
}

func newIISInputs(spec dataset.Spec, batch int, seed int64) (*iisInputs, error) {
	tracker, err := sampling.NewTracker(spec.NumSamples, 2.3, 0.3)
	if err != nil {
		return nil, err
	}
	loss, err := train.NewLossModel(spec, 0)
	if err != nil {
		return nil, err
	}
	return &iisInputs{tracker: tracker, loss: loss, rng: rand.New(rand.NewSource(seed)), batch: batch}, nil
}

func (g *iisInputs) epoch(e int) ([][]dataset.SampleID, []sampling.Item) {
	g.loss.BeginEpoch(e)
	sched, h := sampling.IISSchedule(g.tracker, sampling.DefaultIIS(), g.rng)
	for _, id := range sched.Fetch {
		g.tracker.Observe(id, g.loss.Train(id))
	}
	return sched.Batches(g.batch), h.Items
}

// zipfInputs draws a zipf stream over a hot set chosen from the seed.
type zipfInputs struct {
	hot     []dataset.SampleID // by popularity rank
	zipf    *rand.Zipf
	batches [][]dataset.SampleID // reused block after block
}

func newZipfInputs(spec dataset.Spec, hc *hotConfig, batch int, seed int64) *zipfInputs {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(spec.NumSamples)[:hc.keys]
	hot := make([]dataset.SampleID, hc.keys)
	for i, p := range perm {
		hot[i] = dataset.SampleID(p)
	}
	ids := make([]dataset.SampleID, hc.blockBatches*batch)
	batches := make([][]dataset.SampleID, hc.blockBatches)
	for i := range batches {
		batches[i] = ids[i*batch : (i+1)*batch]
	}
	return &zipfInputs{hot: hot, zipf: rand.NewZipf(rng, hc.zipfS, 1, uint64(hc.keys-1)), batches: batches}
}

func (g *zipfInputs) epoch(int) ([][]dataset.SampleID, []sampling.Item) {
	for _, b := range g.batches {
		for i := range b {
			b[i] = g.hot[g.zipf.Uint64()]
		}
	}
	return g.batches, nil
}

// scheduleHash identifies an epoch's access order.
func scheduleHash(batches [][]dataset.SampleID) string {
	h := sha256.New()
	var b [8]byte
	for _, batch := range batches {
		for _, id := range batch {
			binary.LittleEndian.PutUint64(b[:], uint64(id))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// epochStat is one epoch as the trainer saw it.
type epochStat struct {
	wall      time.Duration
	stall     time.Duration // waiting for the next batch
	compute   time.Duration
	verify    time.Duration
	delivered int64
	failed    int64 // batches whose request or verification failed
	hits      int64 // hits + substitutions, summed over nodes
	served    int64 // hits + misses + substitutions, summed over nodes
	demand    int64 // demand backend fetches, summed over nodes
}

// fetched is one batch as a fetch worker handed it to the trainer.
type fetched struct {
	n      int
	lat    time.Duration // request sent to response decoded
	verify time.Duration
	err    error
}

// loader runs one epoch: every connection is a fetch worker pulling its
// node's batches (batch i belongs to node i mod nodes) in schedule order
// and verifying each sample as it is decoded; the trainer consumes batches
// in schedule order and charges the model's compute per sample. Workers
// never wait for the trainer, and each sends its next request only when
// the previous one has been answered (a closed loop per connection).
type loader struct {
	st      *stack
	verify  func(dataset.SampleID, []byte) error
	compute time.Duration
	pace    pacer          // charges compute
	slots   []chan fetched // reused across epochs; every slot is drained

	// The last epoch's per-batch GetBatch latencies and trainer waits,
	// in schedule order (reused across epochs).
	lat, stall []time.Duration
}

func (l *loader) run(batches [][]dataset.SampleID) (epochStat, error) {
	for len(l.slots) < len(batches) {
		l.slots = append(l.slots, make(chan fetched, 1))
	}
	nodes := len(l.st.nodes)
	var wg sync.WaitGroup
	for ni, n := range l.st.nodes {
		var next atomic.Int64 // the node's next batch: ni, ni+nodes, ...
		for _, c := range n.clients {
			wg.Add(1)
			go func(c *rpc.Client) {
				defer wg.Done()
				for {
					i := ni + int(next.Add(1)-1)*nodes
					if i >= len(batches) {
						return
					}
					l.slots[i] <- l.fetch(c, batches[i])
				}
			}(c)
		}
	}
	var es epochStat
	var firstErr error
	l.lat, l.stall = l.lat[:0], l.stall[:0]
	for i := range batches {
		t0 := time.Now()
		r := <-l.slots[i]
		wait := time.Since(t0)
		es.stall += wait
		l.stall = append(l.stall, wait)
		l.lat = append(l.lat, r.lat)
		es.verify += r.verify
		if r.err != nil {
			es.failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("batch %d: %w", i, r.err)
			}
			continue
		}
		es.delivered += int64(r.n)
		if l.compute > 0 {
			c0 := time.Now()
			l.pace.sleepUntil(c0.Add(l.compute * time.Duration(r.n)))
			es.compute += time.Since(c0)
		}
	}
	wg.Wait()
	return es, firstErr
}

func (l *loader) fetch(c *rpc.Client, ids []dataset.SampleID) fetched {
	f := fetched{n: len(ids)}
	t0 := time.Now()
	f.err = c.GetBatchFunc(ids, func(samples []rpc.Sample) error {
		t1 := time.Now()
		f.lat = t1.Sub(t0)
		defer func() { f.verify = time.Since(t1) }()
		for _, s := range samples {
			if err := l.verify(s.ID, s.Payload); err != nil {
				return err
			}
		}
		return nil
	})
	return f
}

// passResult is everything one pass of a workload measured.
type passResult struct {
	setups []time.Duration
	// colds are the cold epochs' wall times, one per fresh stack; cold is
	// the last stack's cold epoch (zero for hotset-serve, whose cold pass
	// is the fill that precedes the measured window).
	colds     []time.Duration
	cold      epochStat
	warm      []epochStat // the last stack's warm epochs
	attempted int64       // GetBatch requests
	failed    int64
	checkErrs []error
	heap      []uint64 // live heap samples over the warm epochs
	// inputAlloc is what generating the last stack's schedules allocated.
	inputAlloc uint64

	// Warm-epoch GetBatch latencies and trainer waits.
	batchLat, stalls quantileWindows

	// Per-layer material: the last stack's counters at its start and end,
	// and its layer wrappers' timings.
	from, to    snap
	busy        []time.Duration
	dirBatchLat []time.Duration
	dirClaimLat []time.Duration
}

// coldRuns is how many freshly booted stacks measure a cold epoch;
// cold_epoch_s is their median, and the last stack goes on to the warm
// epochs. A training workload's cold epoch is its epoch 0; a serving
// workload's is the hot-set fill, the one pass over its working set that
// meets an empty cache.
const coldRuns = 3

// runPass measures one pass of a workload: the setup boots, coldRuns cold
// epochs on fresh stacks, then warm epochs on the last of those stacks
// until the pass has run for at least the given time. Every stack that ran
// epochs has its invariants checked.
func runPass(w workload, seed int64, seconds time.Duration, traced bool) (*passResult, error) {
	res := &passResult{}
	var spent time.Duration
	for i := 0; i < maxSetups-coldRuns && (i < minSetups-coldRuns || spent < setupBudget); i++ {
		s, err := startSession(w, seed, traced, res)
		if err != nil {
			return nil, err
		}
		s.st.close()
		spent += res.setups[i]
	}
	var s *session
	for k := 0; k < coldRuns && len(res.checkErrs) == 0; k++ {
		if s != nil {
			err := s.finish(res)
			s.st.close()
			if err != nil {
				return nil, err
			}
		}
		var err error
		if s, err = startSession(w, seed, traced, res); err != nil {
			return nil, err
		}
		if w.hot != nil {
			res.colds = append(res.colds, s.fill)
			continue
		}
		if err := s.epoch(res, true); err != nil {
			s.st.close()
			return nil, err
		}
	}
	defer s.st.close()
	fmt.Fprintf(os.Stderr, "perfbench: %s %d boots, median setup %v, cold epochs %v\n", w.name, len(res.setups), median(res.setups), res.colds)

	stopHeap := sampleHeap(res)
	start := time.Now()
	for len(res.checkErrs) == 0 && (len(res.warm) == 0 || time.Since(start) < seconds) {
		if err := s.epoch(res, false); err != nil {
			stopHeap()
			return nil, err
		}
	}
	stopHeap()
	if err := s.finish(res); err != nil {
		return nil, err
	}
	res.from, res.to, res.inputAlloc = s.from, s.prev, s.inputAlloc
	res.batchLat.finish()
	res.stalls.finish()
	res.busy = s.st.src.busySince(res.from.src)
	res.dirBatchLat, res.dirClaimLat = s.st.dirLatSince(res.from)
	return res, nil
}

// session is one booted stack being measured.
type session struct {
	w         workload
	seed      int64
	traced    bool
	st        *stack
	in        inputs
	ld        *loader
	from      snap          // counters before the first epoch
	prev      snap          // counters at the last epoch end
	requested []int64       // samples requested of each node
	epochs    int           // epochs run
	fill      time.Duration // the hot-set fill, for a serving workload
	// inputAlloc is what generating the schedules allocated.
	inputAlloc uint64
}

// startSession boots the workload's stack (filling the hot set, for a
// serving workload), recording the boot's duration as one setup time.
func startSession(w workload, seed int64, traced bool, res *passResult) (*session, error) {
	s := &session{w: w, seed: seed, traced: traced}
	verify := w.stack.spec.VerifyPayload
	if w.hot != nil {
		zi := newZipfInputs(w.stack.spec, w.hot, w.batch, seed)
		s.in, verify = zi, hotVerifier(w.stack.spec, zi.hot)
	} else {
		ii, err := newIISInputs(w.stack.spec, w.batch, seed)
		if err != nil {
			return nil, err
		}
		s.in = ii
	}
	t0 := time.Now()
	st, err := boot(w.stack, traced)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	if w.hot != nil {
		t1 := time.Now()
		if err := fillHotSet(st, s.in.(*zipfInputs).hot, verify); err != nil {
			st.close()
			return nil, fmt.Errorf("hot-set fill: %w", err)
		}
		s.fill = time.Since(t1)
	}
	res.setups = append(res.setups, time.Since(t0))
	s.st = st
	s.ld = &loader{st: st, verify: verify, compute: w.compute}
	s.requested = make([]int64, len(st.nodes))
	if s.from, err = st.snapshot(); err != nil {
		st.close()
		return nil, err
	}
	s.prev = s.from
	return s, nil
}

// epoch runs the session's next epoch and records it in res: a cold one
// as the stack's cold epoch, a warm one with its latencies. A failed
// request or payload check joins res.checkErrs; err reports a broken stack.
func (s *session) epoch(res *passResult, cold bool) error {
	e := s.epochs
	// Input generation is the benchmark's own work: keep its allocations
	// out of proc.alloc_bytes_per_sample.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	batches, hlist := s.in.epoch(e)
	runtime.ReadMemStats(&m1)
	s.inputAlloc += m1.TotalAlloc - m0.TotalAlloc

	t0 := time.Now()
	if s.w.hot == nil {
		if err := boundary(s.st, e, batches, hlist, s.w.planned); err != nil {
			return err
		}
	}
	es, runErr := s.ld.run(batches)
	es.wall = time.Since(t0)
	s.epochs++
	res.attempted += int64(len(batches))
	res.failed += es.failed
	for i, b := range batches {
		s.requested[i%len(s.st.nodes)] += int64(len(b))
	}
	if runErr != nil {
		res.checkErrs = append(res.checkErrs, runErr)
		return nil
	}
	cur, err := s.st.snapshot()
	if err != nil {
		return err
	}
	for i := range cur.nodes {
		a, b := s.prev.nodes[i].stats, cur.nodes[i].stats
		es.hits += (b.Hits - a.Hits) + (b.Substitutions - a.Substitutions)
		es.served += (b.Hits - a.Hits) + (b.Misses - a.Misses) + (b.Substitutions - a.Substitutions)
		es.demand += b.DemandFetches - a.DemandFetches
	}
	s.prev = cur
	if cold {
		res.colds = append(res.colds, es.wall)
		res.cold = es
	} else {
		res.warm = append(res.warm, es)
		res.batchLat.addEpoch(s.ld.lat)
		res.stalls.addEpoch(s.ld.stall)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d traced=%v epoch=%d samples=%d schedule_sha256=%s wall=%.3fs stall=%.3f hit_ratio=%.3f demand_fetches=%d batch_p50=%.3fms batch_p99=%.3fms\n",
		s.w.name, s.seed, s.traced, e, es.delivered, scheduleHash(batches), es.wall.Seconds(),
		ratio(float64(es.stall), float64(es.wall)), ratio(float64(es.hits), float64(es.served)), es.demand,
		percentileMs(s.ld.lat, 0.50), percentileMs(s.ld.lat, 0.99))
	return nil
}

// finish crosses the final quiescent boundary and checks the session's
// invariants over all its epochs; a violated invariant joins
// res.checkErrs, a broken stack is returned as an error.
func (s *session) finish(res *passResult) error {
	if len(res.checkErrs) == 0 {
		if err := s.st.quiesce(s.epochs, s.w.planned); err != nil {
			res.checkErrs = append(res.checkErrs, err)
		}
	}
	to, err := s.st.snapshot()
	if err != nil {
		return err
	}
	s.prev = to
	if len(res.checkErrs) == 0 {
		if err := s.st.check(s.from, to, s.requested); err != nil {
			res.checkErrs = append(res.checkErrs, err)
		}
	}
	return nil
}

// heapPeriod spaces the live-heap samples heap_mb is the median of. The
// heap moves by whole peer frames and prefetch bursts from one instant to
// the next, so a steady figure takes many samples, not one per epoch.
const heapPeriod = time.Second

// sampleHeap records the live heap into res.heap every heapPeriod until the
// returned stop function is called; stop waits for the sampler to exit.
func sampleHeap(res *passResult) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(heapPeriod)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				res.heap = append(res.heap, liveHeap())
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// boundary crosses epoch e on every node: the fresh H-list, then the
// boundary itself, planned with the node's own share of the schedule.
func boundary(st *stack, e int, batches [][]dataset.SampleID, hlist []sampling.Item, planned bool) error {
	for ni, n := range st.nodes {
		c := n.clients[0]
		if err := c.UpdateImportance(hlist); err != nil {
			return fmt.Errorf("node %d: push H-list: %w", ni, err)
		}
		if !planned {
			if err := c.BeginEpoch(e); err != nil {
				return fmt.Errorf("node %d: begin epoch: %w", ni, err)
			}
			continue
		}
		var ids []dataset.SampleID
		for i := ni; i < len(batches); i += len(st.nodes) {
			ids = append(ids, batches[i]...)
		}
		if err := c.BeginEpochPlan(e, ids); err != nil {
			return fmt.Errorf("node %d: begin planned epoch: %w", ni, err)
		}
	}
	return nil
}

// hotVerifier applies spec.VerifyPayload's checks (the payload's length,
// its ID header, and its body bytes at offsets 8, len/2 and len-1) against
// reference bytes computed once per hot sample. VerifyPayload regenerates
// the whole payload on every call, which at this workload's rate would
// make the benchmark measure its own checker instead of the serving path.
func hotVerifier(spec dataset.Spec, hot []dataset.SampleID) func(dataset.SampleID, []byte) error {
	type ref struct {
		n    int
		body [3]byte
	}
	refs := make(map[dataset.SampleID]ref, len(hot))
	for _, id := range hot {
		p := spec.Payload(id)
		n := len(p)
		refs[id] = ref{n: n, body: [3]byte{p[8], p[n/2], p[n-1]}}
	}
	return func(id dataset.SampleID, p []byte) error {
		r, ok := refs[id]
		switch {
		case !ok:
			return fmt.Errorf("sample %d delivered but not in the hot set", id)
		case len(p) != r.n:
			return fmt.Errorf("sample %d: payload length %d, want %d", id, len(p), r.n)
		case binary.LittleEndian.Uint64(p) != uint64(id):
			return fmt.Errorf("sample %d: payload header mismatch", id)
		case p[8] != r.body[0] || p[r.n/2] != r.body[1] || p[r.n-1] != r.body[2]:
			return fmt.Errorf("sample %d: payload body mismatch", id)
		}
		return nil
	}
}

// fillHotSet makes the hot set H-resident: it marks every hot sample
// important, requests each once over both connections, and confirms the
// node now holds all of them.
func fillHotSet(st *stack, hot []dataset.SampleID, verify func(dataset.SampleID, []byte) error) error {
	n := st.nodes[0]
	items := make([]sampling.Item, len(hot))
	for i, id := range hot {
		items[i] = sampling.Item{ID: id, IV: 5}
	}
	if err := n.clients[0].UpdateImportance(items); err != nil {
		return err
	}
	const chunk = 16
	errs := make([]error, len(n.clients))
	var wg sync.WaitGroup
	for k, c := range n.clients {
		wg.Add(1)
		go func(k int, c *rpc.Client) {
			defer wg.Done()
			for off := k * chunk; off < len(hot) && errs[k] == nil; off += chunk * len(n.clients) {
				ids := hot[off:min(off+chunk, len(hot))]
				errs[k] = c.GetBatchFunc(ids, func(ss []rpc.Sample) error {
					for _, s := range ss {
						if err := verify(s.ID, s.Payload); err != nil {
							return err
						}
					}
					return nil
				})
			}
		}(k, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	stats, err := n.clients[0].Stats()
	if err != nil {
		return err
	}
	if stats.HCacheLen < int64(len(hot)) {
		return fmt.Errorf("only %d of %d hot samples resident after the fill", stats.HCacheLen, len(hot))
	}
	return nil
}

// quantileWindows turns warm-epoch latencies into per-window quantiles. A
// window closes at the first epoch end at which it holds windowMin values
// (so its p99 has at least ten values beyond it), and a metric reports the
// median over windows, which discounts a window disturbed by the host. A
// pass with fewer values than windowMin pools them into one window. The
// buffer is reused, so the benchmark's own heap does not grow with the run.
type quantileWindows struct {
	buf      []time.Duration
	p50, p99 []float64
}

const windowMin = 1000

func (w *quantileWindows) addEpoch(vals []time.Duration) {
	w.buf = append(w.buf, vals...)
	if len(w.buf) >= windowMin {
		w.close()
	}
}

func (w *quantileWindows) finish() {
	if len(w.buf) > 0 && len(w.p50) == 0 {
		w.close()
	}
}

func (w *quantileWindows) close() {
	w.p50 = append(w.p50, percentileMs(w.buf, 0.50))
	w.p99 = append(w.p99, percentileMs(w.buf, 0.99))
	w.buf = w.buf[:0]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentileMs is the q-quantile (nearest rank) of ds in milliseconds; 0
// for no samples.
func percentileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.999999) - 1
	k = max(0, min(k, len(s)-1))
	return float64(s[k]) / 1e6
}

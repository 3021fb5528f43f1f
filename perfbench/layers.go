package main

import (
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/storage"
)

// chargedSource is the benchmark's backend: the bytes of a
// storage.DataSource, charged in wall time by the storage.Config cost
// model. One read costs the per-read overhead plus its transfer time
// (server share and link), and holds one of ServerParallelism FIFO slots
// on the storage server that owns the sample (IDs stripe round-robin over
// Servers, as in storage.Backend).
//
// Slots are booked on a modelled timeline: a read starts when its slot's
// previous booking ends (or on arrival, if the slot is idle) and sleeps
// until its modelled end (through a pacer), so a late wake-up delays only
// its own caller, never the bookings queued behind it.
// storage.service_ratio (measured / modelled service time) shows how
// closely the wall-time backend follows its model.
//
// Counters are always kept; the per-read busy-time sample list (for
// storage.busy_ms_p50) is kept only on a traced pass.
type chargedSource struct {
	inner   *storage.DataSource
	cfg     storage.Config
	servers []*slotQueue
	traced  bool

	reads   atomic.Int64
	modelNs atomic.Int64 // modelled service time
	waitNs  atomic.Int64 // time spent queued for a slot
	busyNs  atomic.Int64 // measured: modelled start to actual wake-up
	pace    pacer

	mu   sync.Mutex
	busy []time.Duration
}

// slotQueue books one storage server's parallel service slots.
type slotQueue struct {
	mu   sync.Mutex
	free []time.Time // when each slot's last booking ends
}

func newChargedSource(spec dataset.Spec, cfg storage.Config, traced bool) (*chargedSource, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inner, err := storage.NewDataSource(spec)
	if err != nil {
		return nil, err
	}
	c := &chargedSource{inner: inner, cfg: cfg, traced: traced}
	for i := 0; i < cfg.Servers; i++ {
		c.servers = append(c.servers, &slotQueue{free: make([]time.Time, cfg.ServerParallelism)})
	}
	return c, nil
}

func (c *chargedSource) Spec() dataset.Spec { return c.inner.Spec() }

// service is the modelled service time of one read of id.
func (c *chargedSource) service(id dataset.SampleID) time.Duration {
	size := c.inner.Spec().SampleBytes(id)
	perServer := size
	if size > c.cfg.StripeBytes {
		perServer = (size + c.cfg.Servers - 1) / c.cfg.Servers
	}
	return c.cfg.PerReadOverhead + perSec(perServer, c.cfg.ServerBandwidth) + perSec(size, c.cfg.LinkBandwidth)
}

func perSec(bytes int, bandwidth float64) time.Duration {
	return time.Duration(float64(bytes) / bandwidth * float64(time.Second))
}

// Fetch charges the read, then returns the sample's bytes.
func (c *chargedSource) Fetch(id dataset.SampleID) ([]byte, error) {
	if !c.inner.Spec().Contains(id) {
		return c.inner.Fetch(id) // the inner source reports the range error
	}
	svc := c.service(id)
	q := c.servers[int(uint64(id)%uint64(len(c.servers)))]
	arrive := time.Now()
	start, end := q.book(arrive, svc)
	c.pace.sleepUntil(end)
	busy := time.Since(start)

	c.reads.Add(1)
	c.modelNs.Add(int64(svc))
	c.waitNs.Add(int64(start.Sub(arrive)))
	c.busyNs.Add(int64(busy))
	if c.traced {
		c.mu.Lock()
		c.busy = append(c.busy, busy)
		c.mu.Unlock()
	}
	return c.inner.Fetch(id)
}

// pacer sleeps until deadlines. Sleeps overshoot by the timer's
// granularity (0.5-1 ms against a 1.5 ms read on a loaded 2-vCPU host, and
// varying with the host's load), so each sleep wakes early by a lead that
// tracks the median overshoot: every sleep nudges the lead one paceStep
// toward its own overshoot. A median, unlike a mean, is not dragged up by
// the occasional long stall, which would make the following sleeps wake
// far too early.
type pacer struct{ leadNs atomic.Int64 }

const paceStep = 10 * time.Microsecond

// sleepUntil sleeps until t less the lead, then moves the lead toward this
// sleep's overshoot.
func (p *pacer) sleepUntil(t time.Time) {
	lead := time.Duration(p.leadNs.Load())
	target := t.Add(-lead)
	d := time.Until(target)
	if d <= 0 {
		return
	}
	time.Sleep(d)
	if time.Since(target) > lead {
		p.leadNs.Add(int64(paceStep))
	} else if lead > 0 {
		p.leadNs.Add(-int64(paceStep))
	}
}

// book reserves the slot that frees first and returns the read's modelled
// service interval.
func (q *slotQueue) book(now time.Time, svc time.Duration) (start, end time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	k := 0
	for i := range q.free {
		if q.free[i].Before(q.free[k]) {
			k = i
		}
	}
	start = now
	if q.free[k].After(now) {
		start = q.free[k]
	}
	end = start.Add(svc)
	q.free[k] = end
	return start, end
}

// sourceCounters is a snapshot of a chargedSource's counters.
type sourceCounters struct {
	reads, modelNs, waitNs, busyNs int64
	busySamples                    int
}

func (c *chargedSource) snapshot() sourceCounters {
	c.mu.Lock()
	n := len(c.busy)
	c.mu.Unlock()
	return sourceCounters{
		reads: c.reads.Load(), modelNs: c.modelNs.Load(),
		waitNs: c.waitNs.Load(), busyNs: c.busyNs.Load(), busySamples: n,
	}
}

// busySince returns the per-read busy times recorded after a snapshot.
func (c *chargedSource) busySince(s sourceCounters) []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.busy[s.busySamples:]...)
}

// timedDir wraps the directory client a node's EnableDistributed receives.
// It counts every directory read and write the node makes and, on a
// traced pass, times them. Embedding keeps the DirClient's optional
// methods (deadline- and trace-aware lookups) visible to the rpc layer's
// interface probes, so the node takes the same code paths as without the
// wrapper; the deadline-aware batched lookup is overridden to count it.
type timedDir struct {
	*dkv.DirClient
	traced bool

	lookups    atomic.Int64 // single-sample Lookup calls
	batchCalls atomic.Int64 // LookupBatch calls, deadline-aware or not
	batchKeys  atomic.Int64
	claims     atomic.Int64
	releases   atomic.Int64
	errs       atomic.Int64

	mu       sync.Mutex
	batchLat []time.Duration
	claimLat []time.Duration
}

func (d *timedDir) start() time.Time {
	if d.traced {
		return time.Now()
	}
	return time.Time{}
}

func (d *timedDir) done(t0 time.Time, lat *[]time.Duration, err error) {
	if err != nil {
		d.errs.Add(1)
	}
	if !t0.IsZero() {
		dur := time.Since(t0)
		d.mu.Lock()
		*lat = append(*lat, dur)
		d.mu.Unlock()
	}
}

func (d *timedDir) Lookup(id dataset.SampleID) (dkv.NodeID, bool, error) {
	d.lookups.Add(1)
	n, ok, err := d.DirClient.Lookup(id)
	if err != nil {
		d.errs.Add(1)
	}
	return n, ok, err
}

func (d *timedDir) LookupBatch(ids []dataset.SampleID) ([]dkv.Owner, error) {
	d.batchCalls.Add(1)
	d.batchKeys.Add(int64(len(ids)))
	t0 := d.start()
	out, err := d.DirClient.LookupBatch(ids)
	d.done(t0, &d.batchLat, err)
	return out, err
}

func (d *timedDir) LookupBatchDeadline(ids []dataset.SampleID, dl time.Time) ([]dkv.Owner, error) {
	d.batchCalls.Add(1)
	d.batchKeys.Add(int64(len(ids)))
	t0 := d.start()
	out, err := d.DirClient.LookupBatchDeadline(ids, dl)
	d.done(t0, &d.batchLat, err)
	return out, err
}

func (d *timedDir) Claim(id dataset.SampleID, node dkv.NodeID) (bool, error) {
	d.claims.Add(1)
	t0 := d.start()
	ok, err := d.DirClient.Claim(id, node)
	d.done(t0, &d.claimLat, err)
	return ok, err
}

func (d *timedDir) Release(id dataset.SampleID, node dkv.NodeID) (bool, error) {
	d.releases.Add(1)
	ok, err := d.DirClient.Release(id, node)
	if err != nil {
		d.errs.Add(1)
	}
	return ok, err
}

package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/icache"
	"icache/internal/metrics"
	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/rpc"
	"icache/internal/sampling"
	"icache/internal/storage"
)

// stackConfig describes the live stack a workload boots in process.
type stackConfig struct {
	spec         dataset.Spec
	nodes        int
	cacheFrac    float64 // per-node cache size as a share of the dataset
	lcache       bool
	prefetch     int // prefetch worker pool size per node
	clairvoyant  bool
	backend      storage.Config // shared by all nodes
	connsPerNode int            // client connections to each node
}

// node is one cache server and the benchmark's connections to it.
type node struct {
	srv     *rpc.Server
	ln      net.Listener
	clients []*rpc.Client
	dir     *timedDir // nil on a lone server
}

// stack is a booted deployment: one charged backend shared by every node,
// the nodes, and a directory server when there is more than one node.
type stack struct {
	src    *chargedSource
	dirSrv *dkv.DirServer
	dirLn  net.Listener
	nodes  []*node
	serve  sync.WaitGroup
}

// boot starts the servers (and directory), then dials the clients.
func boot(cfg stackConfig, traced bool) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if st.src, err = newChargedSource(cfg.spec, cfg.backend, traced); err != nil {
		return st, err
	}
	if cfg.nodes > 1 {
		st.dirSrv = dkv.NewDirServer(dkv.NewDirectory())
		if st.dirLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return st, err
		}
		st.serve.Add(1)
		go func() {
			defer st.serve.Done()
			_ = st.dirSrv.Serve(st.dirLn) // returns once closed
		}()
	}
	for i := 0; i < cfg.nodes; i++ {
		back, err := storage.NewBackend(cfg.spec, cfg.backend)
		if err != nil {
			return st, err
		}
		icfg := icache.DefaultConfig(int64(float64(cfg.spec.TotalBytes()) * cfg.cacheFrac))
		icfg.EnableLCache = cfg.lcache
		icfg.PrefetchWorkers = cfg.prefetch
		policy, err := icache.NewServer(back, icfg, sampling.DefaultIIS(), int64(42+i))
		if err != nil {
			return st, err
		}
		n := &node{srv: rpc.NewServer(policy, st.src)}
		n.srv.Logf = nil
		n.srv.SetJournal(obs.NewJournal(1024)) // always on in icache-server
		if cfg.clairvoyant {
			n.srv.SetClairvoyant(rpc.PlanConfig{})
		}
		if n.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return st, err
		}
		st.nodes = append(st.nodes, n)
	}
	if cfg.nodes > 1 {
		for i, n := range st.nodes {
			dc, err := dkv.DialDir(st.dirLn.Addr().String(), 5*time.Second)
			if err != nil {
				return st, err
			}
			// The directory client settings icache-server uses by default.
			dc.SetRPCTimeout(time.Second)
			dc.SetBreaker(overload.BreakerConfig{})
			n.dir = &timedDir{DirClient: dc, traced: traced}
			peers := make(map[dkv.NodeID]string)
			for j, p := range st.nodes {
				if j != i {
					peers[dkv.NodeID(j)] = p.ln.Addr().String()
				}
			}
			n.srv.EnableDistributed(dkv.NodeID(i), n.dir, peers)
		}
	}
	for _, n := range st.nodes {
		st.serve.Add(1)
		go func(n *node) {
			defer st.serve.Done()
			_ = n.srv.Serve(n.ln) // returns once closed
		}(n)
	}
	for _, n := range st.nodes {
		for k := 0; k < cfg.connsPerNode; k++ {
			c, err := rpc.Dial(n.ln.Addr().String(), 5*time.Second)
			if err != nil {
				return st, err
			}
			n.clients = append(n.clients, c)
		}
	}
	return st, nil
}

// close tears the stack down and waits for every serve loop to return.
// Each server closes only after its clients have: a server whose Accept
// returns just as Close runs registers that connection after Close closed
// the others, then waits on it, so its client must hang up first.
func (st *stack) close() {
	for _, n := range st.nodes {
		for _, c := range n.clients {
			c.Close()
		}
	}
	for _, n := range st.nodes {
		n.srv.Close()
		if n.ln != nil {
			n.ln.Close() // in case Serve never ran
		}
	}
	for _, n := range st.nodes {
		if n.dir != nil {
			n.dir.Close()
		}
	}
	if st.dirSrv != nil {
		st.dirSrv.Close()
		st.dirLn.Close()
	}
	st.serve.Wait()
}

// nodeSnap is one node's counters at an instant.
type nodeSnap struct {
	stats      rpc.Stats
	dec        metrics.DecisionStats
	serving    metrics.ServingStats
	plan       rpc.PlanStats
	shed       int64
	expired    int64
	peerFails  int64
	dirFails   int64
	dirLookups int64
	dirBatches int64
	dirKeys    int64
	dirClaims  int64
	dirRels    int64
	dirErrs    int64
}

// snap is the whole stack's counters at an instant.
type snap struct {
	at    time.Time
	nodes []nodeSnap
	src   sourceCounters
	dir   []dirMark
	mem   runtime.MemStats
}

// dirMark remembers how many latency samples a directory wrapper held.
type dirMark struct{ batch, claim int }

func (st *stack) snapshot() (snap, error) {
	s := snap{src: st.src.snapshot()}
	for _, n := range st.nodes {
		stats, err := n.clients[0].Stats()
		if err != nil {
			return s, fmt.Errorf("stats: %w", err)
		}
		ns := nodeSnap{stats: stats, dec: n.srv.DecisionStats(), serving: n.srv.ServingStats(), plan: n.srv.PlanStats()}
		ns.shed, ns.expired = n.srv.OverloadCounters()
		ns.peerFails, ns.dirFails = n.srv.ResilienceStats()
		var m dirMark
		if d := n.dir; d != nil {
			ns.dirLookups, ns.dirBatches, ns.dirKeys = d.lookups.Load(), d.batchCalls.Load(), d.batchKeys.Load()
			ns.dirClaims, ns.dirRels, ns.dirErrs = d.claims.Load(), d.releases.Load(), d.errs.Load()
			d.mu.Lock()
			m = dirMark{batch: len(d.batchLat), claim: len(d.claimLat)}
			d.mu.Unlock()
		}
		s.nodes = append(s.nodes, ns)
		s.dir = append(s.dir, m)
	}
	runtime.ReadMemStats(&s.mem)
	s.at = time.Now()
	return s, nil
}

// dirLatSince returns every node's directory latency samples recorded after
// a snapshot: batched lookups and claims.
func (st *stack) dirLatSince(s snap) (batch, claim []time.Duration) {
	for i, n := range st.nodes {
		if n.dir == nil {
			continue
		}
		n.dir.mu.Lock()
		batch = append(batch, n.dir.batchLat[s.dir[i].batch:]...)
		claim = append(claim, n.dir.claimLat[s.dir[i].claim:]...)
		n.dir.mu.Unlock()
	}
	return batch, claim
}

// quiesce crosses a final epoch boundary on every node once background
// prefetching has settled, so the prefetch outcome ledger can be checked
// exactly. A planned boundary with an empty schedule first supersedes any
// plan still draining; once no node has issued a prefetch for a while, a
// plain boundary sweeps every outstanding prefetch token.
func (st *stack) quiesce(epoch int, planned bool) error {
	if planned {
		for _, n := range st.nodes {
			if err := n.clients[0].BeginEpochPlan(epoch, nil); err != nil {
				return fmt.Errorf("final planned boundary: %w", err)
			}
		}
		epoch++
	}
	issued := func() (sum int64, remaining int64) {
		for _, n := range st.nodes {
			sum += n.srv.DecisionStats().PrefetchIssued
			remaining += n.srv.PlanStats().Remaining
		}
		return sum, remaining
	}
	const settle = 100 * time.Millisecond
	last, _ := issued()
	stable := time.Now()
	for deadline := time.Now().Add(10 * time.Second); ; {
		time.Sleep(10 * time.Millisecond)
		cur, remaining := issued()
		if cur != last || remaining != 0 {
			last, stable = cur, time.Now()
		} else if time.Since(stable) >= settle {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("prefetching did not settle within 10s of the last epoch")
		}
	}
	for _, n := range st.nodes {
		if err := n.clients[0].BeginEpoch(epoch); err != nil {
			return fmt.Errorf("final boundary: %w", err)
		}
	}
	return nil
}

// check verifies the run's invariants between two snapshots: every sample
// requested from a node is accounted a hit, miss or substitution exactly
// once; nothing was shed, expired or degraded by a peer or directory
// failure; and, at the quiescent boundary, every issued prefetch resolved
// to exactly one outcome.
func (st *stack) check(from, to snap, requested []int64) error {
	var errs []error
	for i := range st.nodes {
		a, b := from.nodes[i], to.nodes[i]
		served := (b.stats.Hits - a.stats.Hits) + (b.stats.Misses - a.stats.Misses) + (b.stats.Substitutions - a.stats.Substitutions)
		if served != requested[i] {
			errs = append(errs, fmt.Errorf("node %d: hits+misses+substitutions advanced by %d, want %d requested", i, served, requested[i]))
		}
		if b.shed != 0 || b.expired != 0 {
			errs = append(errs, fmt.Errorf("node %d: %d shed, %d expired requests in a fault-free run", i, b.shed, b.expired))
		}
		if b.peerFails != 0 || b.dirFails != 0 {
			errs = append(errs, fmt.Errorf("node %d: %d peer and %d directory failures degraded reads in a fault-free run", i, b.peerFails, b.dirFails))
		}
		d := b.dec
		if sum := d.PrefetchInTime + d.PrefetchLate + d.PrefetchWasted + d.PrefetchDropped; sum != d.PrefetchIssued {
			errs = append(errs, fmt.Errorf("node %d: prefetch ledger in_time %d + late %d + wasted %d + dropped %d = %d, want issued %d",
				i, d.PrefetchInTime, d.PrefetchLate, d.PrefetchWasted, d.PrefetchDropped, sum, d.PrefetchIssued))
		}
	}
	return errors.Join(errs...)
}

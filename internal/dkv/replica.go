package dkv

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/retry"
	"icache/internal/simclock"
	"icache/internal/wire"
)

// Server-side replica mode: an icache-dkv process started with -replica-id
// and -peers becomes one shard holder in a partitioned directory. Replicas
// track each other with exactly the lease machinery nodes use (lease /
// stateAt from membership.go) and gossip epoch-numbered ring views over two
// new wire opcodes:
//
//   - opRingView (12): periodic view exchange. The sender offers its view;
//     the receiver renews the sender's peer lease, adopts the view if its
//     epoch is higher, and answers with its own (possibly just-updated)
//     view. Transport success alone renews the lease — a legacy (pre-ring)
//     dkv answers statusErr for the unknown opcode, and that reply still
//     proves the peer is alive, so mixed-version rings stay stable.
//   - opHandoff (13): shard hand-off hygiene. When the ring changes — a
//     peer's lease expired, or a revived replica re-entered — shards remap,
//     and entries for shards a replica no longer owns become unreachable
//     garbage (clients only route a shard's traffic to its current owner).
//     opHandoff pushes the new view and asks the receiver to drop up to max
//     such entries. Dropping is safe precisely because the entries are
//     unreachable: the shard's current owner repopulates organically from
//     the nodes' claim traffic.
//
// Replicas deliberately accept data operations for ANY shard, not just
// their own: the client's view may trail the server's by an epoch during
// failover, and a legacy DirClient has no view at all. Shard placement is
// enforced by routing, not by rejection; hand-off hygiene cleans up what
// routing strands.
const (
	opRingView = 12
	opHandoff  = 13
)

// maxRingReplicas bounds the replica list in one opRingView/opHandoff
// request, mirroring maxLookupBatch: real rings hold a handful of replicas,
// so a huge count is a corrupt frame.
const maxRingReplicas = 1 << 10

// DropNotOwned removes up to max directory entries (max <= 0 means all)
// whose shard is NOT owned by self under view, in sorted order for
// determinism, and reports how many were removed. This is the shard
// hand-off sweep: after a ring change the entries it removes are
// unreachable through routing, so dropping them only reclaims memory.
func (d *Directory) DropNotOwned(view RingView, self ReplicaID, max int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var doomed []dataset.SampleID
	for id := range d.owner {
		if r, ok := view.Owner(id); ok && r != self {
			doomed = append(doomed, id)
		}
	}
	sort.Slice(doomed, func(i, j int) bool { return doomed[i] < doomed[j] })
	if max > 0 && len(doomed) > max {
		doomed = doomed[:max]
	}
	for _, id := range doomed {
		delete(d.owner, id)
	}
	return len(doomed)
}

// replicaState is a DirServer's ring-membership state when running as one
// replica of a partitioned directory. nil on legacy single-directory
// servers (the new opcodes then answer statusErr).
type replicaState struct {
	mu            sync.Mutex
	self          ReplicaID
	peers         map[ReplicaID]string // peer address book (static, from -peers)
	leases        map[ReplicaID]*lease // peer liveness, same machinery as node leases
	clients       map[ReplicaID]*DirClient
	view          RingView
	ttl           time.Duration
	suspectWindow time.Duration
	start         time.Time
	dialTimeout   time.Duration
	handoffBatch  int
	dropped       int64 // entries removed by hand-off sweeps
}

// ReplicaConfig tunes a DirServer's replica mode.
type ReplicaConfig struct {
	// Self is this replica's ID; Peers maps every OTHER replica's ID to its
	// dkv address.
	Self  ReplicaID
	Peers map[ReplicaID]string
	// LeaseTTL/SuspectWindow govern peer liveness exactly like node leases
	// (zero selects the membership defaults). A peer whose lease goes Dead
	// is removed from the ring.
	LeaseTTL      time.Duration
	SuspectWindow time.Duration
	// DialTimeout bounds one peer dial during ring exchange.
	DialTimeout time.Duration
	// HandoffBatch caps one hand-off sweep (<= 0 means unbounded), bounding
	// the directory lock hold exactly like the scrubber's PurgeDead cap.
	HandoffBatch int
}

// EnableReplica puts the server in replica mode: it answers opRingView and
// opHandoff, tracks peers by lease, and starts from the optimistic view
// containing every configured replica (epoch 1). Must be called before
// Serve.
func (s *DirServer) EnableReplica(cfg ReplicaConfig) {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.SuspectWindow <= 0 {
		cfg.SuspectWindow = DefaultSuspectWindow
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	all := []ReplicaID{cfg.Self}
	leases := make(map[ReplicaID]*lease, len(cfg.Peers))
	for r := range cfg.Peers {
		all = append(all, r)
		// Peers start with a full lease of grace: they are presumed live
		// until an exchange cycle proves otherwise.
		leases[r] = &lease{ttl: cfg.LeaseTTL, expires: simclock.Time(cfg.LeaseTTL), state: NodeLive}
	}
	s.rep = &replicaState{
		self:          cfg.Self,
		peers:         cfg.Peers,
		leases:        leases,
		clients:       make(map[ReplicaID]*DirClient),
		view:          NewRingView(1, all),
		ttl:           cfg.LeaseTTL,
		suspectWindow: cfg.SuspectWindow,
		start:         time.Now(),
		dialTimeout:   cfg.DialTimeout,
		handoffBatch:  cfg.HandoffBatch,
	}
}

// ReplicaView reports the server's current ring view (nil-safe: a legacy
// server reports the zero view).
func (s *DirServer) ReplicaView() RingView {
	if s.rep == nil {
		return RingView{}
	}
	s.rep.mu.Lock()
	defer s.rep.mu.Unlock()
	return NewRingView(s.rep.view.Epoch, s.rep.view.Replicas)
}

// HandoffDropped reports how many entries hand-off sweeps removed.
func (s *DirServer) HandoffDropped() int64 {
	if s.rep == nil {
		return 0
	}
	s.rep.mu.Lock()
	defer s.rep.mu.Unlock()
	return s.rep.dropped
}

// mergeView folds a remote view into the local one (rep.mu held) and
// reports whether the local view changed. The higher epoch wins; a view
// that would exclude self is re-entered (self adds itself back and bumps
// past the remote epoch — a replica never routes itself out of existence).
func (rs *replicaState) mergeView(remote RingView) bool {
	if remote.Epoch <= rs.view.Epoch {
		return false
	}
	if !remote.Contains(rs.self) {
		rs.view = NewRingView(remote.Epoch+1, append([]ReplicaID{rs.self}, remote.Replicas...))
		return true
	}
	adopted := NewRingView(remote.Epoch, remote.Replicas)
	changed := !adopted.Equal(rs.view)
	rs.view = adopted
	return changed
}

// renewPeer re-stamps sender's lease (rep.mu held): any proof of life —
// an inbound request from the peer, or a completed round trip to it —
// counts.
func (rs *replicaState) renewPeer(sender ReplicaID, now simclock.Time) {
	l, ok := rs.leases[sender]
	if !ok {
		if sender == rs.self {
			return
		}
		l = &lease{ttl: rs.ttl}
		rs.leases[sender] = l
	}
	l.expires = now + simclock.Time(rs.ttl)
	l.state = NodeLive
}

// recomputeLocked derives the live set from peer leases (rep.mu held) and
// reports whether the view changed (epoch bumped). Dead peers leave the
// ring; revived peers re-enter it on their next proof of life via
// renewPeer + this recompute.
func (rs *replicaState) recomputeLocked(now simclock.Time) bool {
	live := []ReplicaID{rs.self}
	for r, l := range rs.leases {
		if l.stateAt(now, rs.suspectWindow) != NodeDead {
			live = append(live, r)
		}
	}
	next := NewRingView(rs.view.Epoch, live)
	if next.Equal(rs.view) {
		return false
	}
	rs.view = NewRingView(rs.view.Epoch+1, live)
	return true
}

// now reads the replica's wall clock as a lease timestamp.
func (rs *replicaState) now() simclock.Time { return simclock.Time(time.Since(rs.start)) }

// isServerError reports whether err is an application-level statusErr reply
// (the transport worked; the server refused the request). Used to tell a
// live legacy peer from a dead one.
func isServerError(err error) bool {
	var se *ServerError
	return errors.As(err, &se)
}

// handleRingView serves one opRingView request: renew the sender's lease,
// merge the offered view, recompute liveness, and answer with the current
// view. A view change triggers a local hand-off sweep.
func (s *DirServer) handleRingView(sender ReplicaID, remote RingView) RingView {
	rs := s.rep
	rs.mu.Lock()
	now := rs.now()
	rs.renewPeer(sender, now)
	changed := rs.mergeView(remote)
	changed = rs.recomputeLocked(now) || changed
	view := NewRingView(rs.view.Epoch, rs.view.Replicas)
	max := rs.handoffBatch
	rs.mu.Unlock()
	if changed {
		s.handoffSweep(view, max)
	}
	return view
}

// handleHandoff serves one opHandoff request: adopt the pushed view if
// newer, sweep entries for shards self no longer owns, and report how many
// were dropped plus the current epoch.
func (s *DirServer) handleHandoff(sender ReplicaID, remote RingView, max int) (int, uint64) {
	rs := s.rep
	rs.mu.Lock()
	now := rs.now()
	rs.renewPeer(sender, now)
	rs.mergeView(remote)
	rs.recomputeLocked(now)
	view := NewRingView(rs.view.Epoch, rs.view.Replicas)
	if max <= 0 {
		max = rs.handoffBatch
	}
	rs.mu.Unlock()
	dropped := s.handoffSweep(view, max)
	return dropped, view.Epoch
}

// handoffSweep drops entries for shards self no longer owns under view.
func (s *DirServer) handoffSweep(view RingView, max int) int {
	rs := s.rep
	dropped := s.dir.DropNotOwned(view, rs.self, max)
	if dropped > 0 {
		rs.mu.Lock()
		rs.dropped += int64(dropped)
		rs.mu.Unlock()
		s.journal.Add(obs.EventHandoff, int64(rs.self), int64(view.Epoch), int64(dropped),
			"shard hand-off sweep")
	}
	return dropped
}

// peerClient returns (dialing lazily) the exchange client for peer r.
func (rs *replicaState) peerClient(r ReplicaID) (*DirClient, error) {
	rs.mu.Lock()
	c := rs.clients[r]
	addr := rs.peers[r]
	timeout := rs.dialTimeout
	rs.mu.Unlock()
	if c != nil {
		return c, nil
	}
	// Exchange clients retry nothing: the exchange loop IS the retry, and a
	// prompt failure is the liveness signal.
	c, err := DialDirPolicy(addr, timeout, retry.None())
	if err != nil {
		return nil, err
	}
	rs.mu.Lock()
	if prev := rs.clients[r]; prev != nil {
		rs.mu.Unlock()
		c.Close()
		return prev, nil
	}
	rs.clients[r] = c
	rs.mu.Unlock()
	return c, nil
}

// ExchangeRing runs one ring-exchange cycle: offer the local view to every
// configured peer (sorted order), renew leases on any reply — a statusErr
// from a legacy peer is still proof of life — merge newer views, then
// recompute liveness so expired peers leave the ring. A view change hands
// off: the local sweep runs, and the new view is pushed to live peers via
// opHandoff. It reports whether the view changed this cycle.
func (s *DirServer) ExchangeRing() bool {
	rs := s.rep
	if rs == nil {
		return false
	}
	rs.mu.Lock()
	view := NewRingView(rs.view.Epoch, rs.view.Replicas)
	self := rs.self
	peerIDs := make([]ReplicaID, 0, len(rs.peers))
	for r := range rs.peers {
		peerIDs = append(peerIDs, r)
	}
	rs.mu.Unlock()
	sort.Slice(peerIDs, func(i, j int) bool { return peerIDs[i] < peerIDs[j] })

	for _, r := range peerIDs {
		c, err := rs.peerClient(r)
		if err != nil {
			continue // lease keeps aging; Dead once TTL + suspect window lapse
		}
		remote, legacy, err := c.RingViewExchange(self, view)
		if err != nil {
			continue // the client redials on its next call
		}
		rs.mu.Lock()
		rs.renewPeer(r, rs.now())
		if !legacy {
			rs.mergeView(remote)
		}
		rs.mu.Unlock()
	}

	rs.mu.Lock()
	changed := rs.recomputeLocked(rs.now())
	next := NewRingView(rs.view.Epoch, rs.view.Replicas)
	max := rs.handoffBatch
	rs.mu.Unlock()

	if changed || !next.Equal(view) || next.Epoch != view.Epoch {
		s.handoffSweep(next, max)
		for _, r := range peerIDs {
			if !next.Contains(r) {
				continue
			}
			c, err := rs.peerClient(r)
			if err != nil {
				continue
			}
			// A failed push is retried by the next cycle's exchange.
			_, _, _ = c.Handoff(self, next, max)
		}
		return true
	}
	return false
}

// RunRingExchange loops ExchangeRing every interval until stop closes.
// cmd/icache-dkv runs this in a background goroutine when -peers is set.
func (s *DirServer) RunRingExchange(interval time.Duration, stop <-chan struct{}) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.ExchangeRing()
		}
	}
}

// CloseReplica tears down the exchange clients (idempotent; nil-safe).
func (s *DirServer) CloseReplica() {
	rs := s.rep
	if rs == nil {
		return
	}
	rs.mu.Lock()
	clients := rs.clients
	rs.clients = make(map[ReplicaID]*DirClient)
	rs.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
}

// --- wire encoding helpers shared by client and dispatcher ---

// encodeRingView appends sender + view to e (the common body of opRingView
// and opHandoff frames and their responses).
func encodeRingView(e *wire.Buffer, sender ReplicaID, view RingView) {
	e.I64(int64(sender))
	e.I64(int64(view.Epoch))
	e.U32(uint32(len(view.Replicas)))
	for _, r := range view.Replicas {
		e.I64(int64(r))
	}
}

// decodeRingView reads sender + view from d, enforcing maxRingReplicas.
func decodeRingView(d *wire.Reader) (ReplicaID, RingView, error) {
	sender := ReplicaID(d.I64())
	epoch := uint64(d.I64())
	n := int(d.U32())
	if d.Err != nil {
		return 0, RingView{}, d.Err
	}
	if n < 0 || n > maxRingReplicas {
		return 0, RingView{}, fmt.Errorf("dkv: unreasonable ring size %d", n)
	}
	reps := make([]ReplicaID, n)
	for i := 0; i < n; i++ {
		reps[i] = ReplicaID(d.I64())
	}
	if d.Err != nil {
		return 0, RingView{}, d.Err
	}
	return sender, NewRingView(epoch, reps), nil
}

// RingViewExchange offers the caller's view to the server and returns the
// server's view. legacy reports that the server predates replica mode (it
// answered the opcode with an error): the peer is alive but has no view to
// merge.
func (c *DirClient) RingViewExchange(sender ReplicaID, view RingView) (remote RingView, legacy bool, err error) {
	err = c.call(opRingView, obs.TraceCtx{}, time.Time{}, func(e *wire.Buffer) { encodeRingView(e, sender, view) },
		func(d *wire.Reader) error {
			var derr error
			_, remote, derr = decodeRingView(d)
			return derr
		})
	if isServerError(err) {
		return RingView{}, true, nil
	}
	if err != nil {
		return RingView{}, false, err
	}
	return remote, false, nil
}

// Handoff pushes view to the server and asks it to drop up to max entries
// for shards it no longer owns (max <= 0 defers to the server's cap). It
// returns the server's drop count and current epoch.
func (c *DirClient) Handoff(sender ReplicaID, view RingView, max int) (dropped int, epoch uint64, err error) {
	err = c.call(opHandoff, obs.TraceCtx{}, time.Time{}, func(e *wire.Buffer) {
		encodeRingView(e, sender, view)
		e.U32(uint32(clampMax(max)))
	}, func(d *wire.Reader) error {
		dropped = int(d.I64())
		epoch = uint64(d.I64())
		return d.Err
	})
	return dropped, epoch, err
}

package dkv

import (
	"errors"
	"fmt"
	"net"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/retry"
	"icache/internal/transport"
	"icache/internal/wire"
)

// The paper's §III-E shares the directory between nodes through "a
// distributed key-value store". This file provides that deployment shape: a
// TCP service exposing the Directory operations, and a client that cache
// nodes use in place of the in-process map. Both ride the shared transport
// (internal/transport): the fixed request header carries the opcode, the
// trace context and the deadline budget, and one pipelined client
// connection carries many directory calls at once. This file is the
// directory's opcode table and its typed encoders.

// Directory-service opcodes. Numbers 10 and 14 belonged to the retired
// trace and deadline envelopes (both now travel in the request header);
// they are answered as unknown opcodes and must not be reused.
const (
	opLookup      = 1
	opClaim       = 2
	opRelease     = 3
	opLen         = 4
	opRegister    = 5
	opHeartbeat   = 6
	opListNodes   = 7
	opOwnedBy     = 8
	opPurgeDead   = 9
	opLookupBatch = 11
)

// maxLookupBatch bounds one opLookupBatch request server-side. It mirrors
// the rpc layer's "unreasonable batch size" guard: a mini-batch or a scrub
// window is at most a few thousand ids, so a million-id request is either a
// corrupt frame or abuse, and the server refuses rather than allocating.
const maxLookupBatch = 1 << 20

// DirServer serves a Directory over the shared transport.
//
// Locking: a request takes only the Directory's mutex, inside the
// Directory method it calls, before its answer is written.
// replicaState.mu (replica.go) covers view and lease bookkeeping; ring
// exchanges with peer replicas run outside it. No dkv lock is held across
// network I/O, on the server or in DirClient.
type DirServer struct {
	dir *Directory

	// rep is the ring-membership state when the server runs as one replica
	// of a partitioned directory (see replica.go); nil on a single
	// directory.
	rep *replicaState

	// tr is the accept loop, header decode and admission (its Gate,
	// installed by SetAdmission) in front of handle.
	tr *transport.Server

	// obs is the optional observability state (see obs.go); zero value =
	// everything off.
	obs dirObs

	// journal, when set, receives shard hand-off events; SetJournal also
	// arms the wrapped Directory's membership-flip events.
	journal *obs.Journal
}

// SetJournal installs a control-plane event journal on the server AND the
// wrapped Directory: membership Live/Suspect/Dead flips and shard
// hand-off sweeps are appended as typed events. Call before Serve.
func (s *DirServer) SetJournal(j *obs.Journal) {
	s.journal = j
	s.dir.SetJournal(j)
}

// NewDirServer wraps dir for network service.
func NewDirServer(dir *Directory) *DirServer {
	s := &DirServer{dir: dir}
	s.tr = transport.NewServer(s.handle, dirDataOp, nil)
	return s
}

// Serve accepts connections until Close. It always returns a non-nil error
// (net.ErrClosed after a clean shutdown).
func (s *DirServer) Serve(ln net.Listener) error { return s.tr.Serve(ln) }

// ListenAndServe listens on addr and serves until Close.
func (s *DirServer) ListenAndServe(addr string) error { return s.tr.ListenAndServe(addr) }

// Addr reports the bound address once serving.
func (s *DirServer) Addr() net.Addr { return s.tr.Addr() }

// Close stops the server and closes live connections.
func (s *DirServer) Close() error { return s.tr.Close() }

// handle answers one directory request inline on the connection's read
// loop (transport.Handler). Directory work is a short map operation under
// the Directory's mutex, cheaper than handing it to a goroutine, and body
// is consumed before the loop reads the next frame. The serve time is
// recorded before the answer is written (the dir_serve histogram when
// enabled; a KindRPCRecv span at the carried hop, Arg = opcode, when the
// request is traced).
func (s *DirServer) handle(c *transport.Conn, h transport.Header, body []byte) {
	defer c.Done(h)
	measure := s.obs.histsOn() || s.obs.tracing(h.Trace)
	// A failed write needs no handling here: the read loop sees the same
	// broken connection on its next read and closes it.
	_ = c.Reply(h.ID, func(e *wire.Buffer) {
		var t0 time.Time
		if measure {
			t0 = time.Now()
		}
		s.dispatch(h, body, e)
		if measure {
			s.obs.record(h, time.Since(t0))
		}
	})
}

// dispatch decodes one request body and appends the status and response
// body into e. Protocol errors are answered, never fatal.
func (s *DirServer) dispatch(h transport.Header, body []byte, e *wire.Buffer) {
	// Directory work is sub-millisecond, so a budget already spent when the
	// request reaches its handler is the only expired case worth answering;
	// it is answered before the directory is touched.
	if !h.Deadline.IsZero() && !time.Now().Before(h.Deadline) {
		e.U8(transport.StatusExpired)
		return
	}
	d := wire.NewReader(body)
	switch h.Op {
	case opLookup:
		id := dataset.SampleID(d.I64())
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		e.U8(transport.StatusOK)
		if node, ok := s.dir.Lookup(id); ok {
			e.U8(1)
			e.I64(int64(node))
		} else {
			e.U8(0)
		}
	case opLookupBatch:
		n := int(d.U32())
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		if n < 0 || n > maxLookupBatch {
			dirError(e, fmt.Errorf("dkv: unreasonable batch size %d", n))
			return
		}
		ids := make([]dataset.SampleID, n)
		for i := 0; i < n; i++ {
			ids[i] = dataset.SampleID(d.I64())
		}
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		owners := s.dir.LookupBatch(ids)
		e.U8(transport.StatusOK)
		e.U32(uint32(len(owners)))
		for _, o := range owners {
			if o.Found {
				e.U8(1)
				e.I64(int64(o.Node))
			} else {
				e.U8(0)
			}
		}
	case opClaim:
		id := dataset.SampleID(d.I64())
		node := NodeID(d.I64())
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		e.U8(transport.StatusOK)
		if s.dir.Claim(id, node) {
			e.U8(1)
		} else {
			e.U8(0)
		}
	case opRelease:
		id := dataset.SampleID(d.I64())
		node := NodeID(d.I64())
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		e.U8(transport.StatusOK)
		if s.dir.Release(id, node) {
			e.U8(1)
		} else {
			e.U8(0)
		}
	case opLen:
		e.U8(transport.StatusOK)
		e.I64(int64(s.dir.Len()))
	case opRegister:
		node := NodeID(d.I64())
		ttl := time.Duration(d.I64())
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		info := s.dir.Register(node, ttl)
		e.U8(transport.StatusOK)
		e.U8(byte(info.State))
		e.I64(int64(info.ExpiresIn))
	case opHeartbeat:
		node := NodeID(d.I64())
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		e.U8(transport.StatusOK)
		if s.dir.HeartbeatNode(node) {
			e.U8(1)
		} else {
			e.U8(0)
		}
	case opListNodes:
		nodes := s.dir.ListNodes()
		e.U8(transport.StatusOK)
		e.U32(uint32(len(nodes)))
		for _, n := range nodes {
			e.I64(int64(n.ID))
			e.U8(byte(n.State))
			e.I64(int64(n.ExpiresIn))
		}
	case opOwnedBy:
		node := NodeID(d.I64())
		max := int(d.U32())
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		ids := s.dir.OwnedBy(node, max)
		e.U8(transport.StatusOK)
		e.U32(uint32(len(ids)))
		for _, id := range ids {
			e.I64(int64(id))
		}
	case opPurgeDead:
		max := int(d.U32())
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		e.U8(transport.StatusOK)
		e.I64(int64(s.dir.PurgeDead(max)))
	case opRingView:
		if s.rep == nil {
			dirError(e, errors.New("dkv: not in replica mode"))
			return
		}
		sender, remote, err := decodeRingView(d)
		if err != nil {
			dirError(e, err)
			return
		}
		view := s.handleRingView(sender, remote)
		e.U8(transport.StatusOK)
		encodeRingView(e, s.rep.self, view)
	case opHandoff:
		if s.rep == nil {
			dirError(e, errors.New("dkv: not in replica mode"))
			return
		}
		sender, remote, err := decodeRingView(d)
		if err != nil {
			dirError(e, err)
			return
		}
		max := int(d.U32())
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		dropped, epoch := s.handleHandoff(sender, remote, max)
		e.U8(transport.StatusOK)
		e.I64(int64(dropped))
		e.I64(int64(epoch))
	default:
		dirError(e, fmt.Errorf("dkv: unknown opcode %d", h.Op))
	}
}

func dirError(e *wire.Buffer, err error) { transport.AppendError(e, err.Error()) }

// ServerError is an application-level StatusErr reply: the transport round
// trip succeeded and the server answered with an error. Distinguishing it
// from transport failure matters to the ring — a ServerError proves the
// peer is alive (e.g. a single-directory server refusing a ring opcode).
type ServerError = transport.ServerError

// DirClient is a node's connection to the directory service. It satisfies
// the fallible Service contract (like the in-process Directory via Local),
// so a cache node can be wired to either.
//
// The client is the shared transport's: one pipelined connection, so
// concurrent directory calls overlap instead of queueing behind each other,
// with transport failures retried under an exponential-backoff-with-jitter
// policy. Every directory operation is idempotent (Lookup is pure, Claim is
// first-claim-wins and re-claiming one's own item succeeds, Release of a
// non-owned item is a no-op), so blind retry is safe. No lock is held
// across a round trip.
type DirClient struct {
	tc *transport.Client
}

// DialDir connects to a directory service with the default retry policy.
func DialDir(addr string, timeout time.Duration) (*DirClient, error) {
	return DialDirPolicy(addr, timeout, retry.Default())
}

// DialDirPolicy connects with an explicit retry policy governing the
// initial dial and every subsequent round trip. A directory that sheds is
// alive, so sheds count as breaker successes (see SetBreaker).
func DialDirPolicy(addr string, timeout time.Duration, policy retry.Policy) (*DirClient, error) {
	tc, err := transport.Dial(addr, transport.Config{Timeout: timeout, Policy: policy, ShedIsHealthy: true})
	if err != nil {
		return nil, fmt.Errorf("dkv: %w", err)
	}
	return &DirClient{tc: tc}, nil
}

// Close tears down the connection; calls in flight fail.
func (c *DirClient) Close() error { return c.tc.Close() }

// Resilience reports how many round trips needed a retry and how many
// redials succeeded over the client's lifetime.
func (c *DirClient) Resilience() (retries, redials int64) { return c.tc.Resilience() }

// call sends one directory request — header, then whatever encode appends —
// and hands the response body to decode. A non-zero deadline rides the
// header as the request's budget and bounds the local wait; a zero one
// falls back to the configured RPC timeout. The pooled response buffer is
// recycled once decode returns, so decoders copy out everything they keep.
// The request is a small private buffer, not a pooled 4 KB one: a node's
// peer reads keep the pool drained, so a pooled request would mostly be a
// fresh 4 KB allocation.
func (c *DirClient) call(op byte, tc obs.TraceCtx, dl time.Time, encode func(e *wire.Buffer), decode func(d *wire.Reader) error) error {
	e := wire.Buffer{B: make([]byte, 0, 64)}
	transport.AppendHeader(&e, op, tc, transport.Budget(dl))
	if encode != nil {
		encode(&e)
	}
	d, owner, err := c.tc.RoundTrip(e.B, c.tc.Tighten(dl))
	if err != nil {
		return fmt.Errorf("dkv: %w", err)
	}
	err = decode(d)
	wire.PutBuffer(owner)
	return err
}

// flag decodes a u8 boolean answer.
func flag(out *bool) func(d *wire.Reader) error {
	return func(d *wire.Reader) error {
		*out = d.U8() == 1
		return d.Err
	}
}

// Lookup reports which node owns id, if any.
func (c *DirClient) Lookup(id dataset.SampleID) (node NodeID, found bool, err error) {
	err = c.call(opLookup, obs.TraceCtx{}, time.Time{}, func(e *wire.Buffer) { e.I64(int64(id)) },
		func(d *wire.Reader) error {
			if d.U8() == 1 {
				node, found = NodeID(d.I64()), true
			}
			return d.Err
		})
	return node, found, err
}

// LookupBatch resolves the owners of many ids in ONE wire round trip,
// aligned with ids. This is the amortization primitive of the batched miss
// path and the anti-entropy scrubber: a mini-batch's worth of directory
// questions costs one frame each way instead of len(ids) serial exchanges.
// An empty ids slice short-circuits without touching the network.
func (c *DirClient) LookupBatch(ids []dataset.SampleID) ([]Owner, error) {
	return c.lookupBatch(ids, obs.TraceCtx{}, time.Time{})
}

// LookupBatchDeadline is LookupBatch bounded by the caller's deadline: the
// remaining budget rides the request header (the directory answers
// expired, without touching its map, once the lookup is unservable) and
// the local wait is cut off at the same instant. A zero deadline is plain
// LookupBatch. The rpc layer probes for it when forwarding
// deadline-bounded lookups.
func (c *DirClient) LookupBatchDeadline(ids []dataset.SampleID, dl time.Time) ([]Owner, error) {
	return c.lookupBatch(ids, obs.TraceCtx{}, dl)
}

// LookupBatchTraced is LookupBatch carrying a trace context addressed to
// the directory server (the caller passes its own context's Next()), so a
// traced cache request's batched ownership lookup appears in the
// cross-node hop chain. A zero context sends the plain request. The rpc
// layer probes for it when forwarding traced lookups.
func (c *DirClient) LookupBatchTraced(ids []dataset.SampleID, ctx obs.TraceCtx) ([]Owner, error) {
	return c.lookupBatch(ids, ctx, time.Time{})
}

func (c *DirClient) lookupBatch(ids []dataset.SampleID, tc obs.TraceCtx, dl time.Time) (out []Owner, err error) {
	if len(ids) == 0 {
		return nil, nil
	}
	err = c.call(opLookupBatch, tc, dl, func(e *wire.Buffer) {
		e.U32(uint32(len(ids)))
		for _, id := range ids {
			e.I64(int64(id))
		}
	}, func(d *wire.Reader) error {
		n := int(d.U32())
		if d.Err != nil {
			return d.Err
		}
		if n != len(ids) {
			return fmt.Errorf("dkv: lookup batch length mismatch: sent %d, got %d", len(ids), n)
		}
		out = make([]Owner, n)
		for i := range out {
			if d.U8() == 1 {
				out[i] = Owner{Node: NodeID(d.I64()), Found: true}
			}
		}
		return d.Err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Claim registers node as the owner of id (first claim wins).
func (c *DirClient) Claim(id dataset.SampleID, node NodeID) (claimed bool, err error) {
	err = c.call(opClaim, obs.TraceCtx{}, time.Time{}, func(e *wire.Buffer) {
		e.I64(int64(id))
		e.I64(int64(node))
	}, flag(&claimed))
	return claimed, err
}

// Release removes node's ownership of id.
func (c *DirClient) Release(id dataset.SampleID, node NodeID) (released bool, err error) {
	err = c.call(opRelease, obs.TraceCtx{}, time.Time{}, func(e *wire.Buffer) {
		e.I64(int64(id))
		e.I64(int64(node))
	}, flag(&released))
	return released, err
}

// Len reports the number of owned items.
func (c *DirClient) Len() (n int, err error) {
	err = c.call(opLen, obs.TraceCtx{}, time.Time{}, nil, func(d *wire.Reader) error {
		n = int(d.I64())
		return d.Err
	})
	return n, err
}

// Register grants (or re-grants) node a lease of the given TTL (<= 0
// selects the directory default). Registration is idempotent — re-running
// it just re-stamps the lease — so blind retry under the client's backoff
// policy is safe.
func (c *DirClient) Register(node NodeID, ttl time.Duration) (info NodeInfo, err error) {
	err = c.call(opRegister, obs.TraceCtx{}, time.Time{}, func(e *wire.Buffer) {
		e.I64(int64(node))
		e.I64(int64(ttl))
	}, func(d *wire.Reader) error {
		info = NodeInfo{ID: node, State: NodeState(d.U8()), ExpiresIn: time.Duration(d.I64())}
		return d.Err
	})
	if err != nil {
		return NodeInfo{}, err
	}
	return info, nil
}

// Heartbeat renews node's lease; renewed == false means the lease lapsed
// and the node must Register again and reconcile its ownership.
func (c *DirClient) Heartbeat(node NodeID) (renewed bool, err error) {
	err = c.call(opHeartbeat, obs.TraceCtx{}, time.Time{}, func(e *wire.Buffer) { e.I64(int64(node)) }, flag(&renewed))
	return renewed, err
}

// ListNodes reports every registered node's membership state.
func (c *DirClient) ListNodes() (out []NodeInfo, err error) {
	err = c.call(opListNodes, obs.TraceCtx{}, time.Time{}, nil, func(d *wire.Reader) error {
		n := int(d.U32())
		for i := 0; i < n && d.Err == nil; i++ {
			out = append(out, NodeInfo{
				ID:        NodeID(d.I64()),
				State:     NodeState(d.U8()),
				ExpiresIn: time.Duration(d.I64()),
			})
		}
		return d.Err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// OwnedBy reports up to max of node's directory entries (sorted).
func (c *DirClient) OwnedBy(node NodeID, max int) (out []dataset.SampleID, err error) {
	err = c.call(opOwnedBy, obs.TraceCtx{}, time.Time{}, func(e *wire.Buffer) {
		e.I64(int64(node))
		e.U32(uint32(clampMax(max)))
	}, decodeIDs(&out))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// decodeIDs decodes a u32 n | n × i64 id answer.
func decodeIDs(out *[]dataset.SampleID) func(d *wire.Reader) error {
	return func(d *wire.Reader) error {
		n := int(d.U32())
		for i := 0; i < n && d.Err == nil; i++ {
			*out = append(*out, dataset.SampleID(d.I64()))
		}
		return d.Err
	}
}

// PurgeDead garbage-collects up to max Dead-owned entries server-side.
func (c *DirClient) PurgeDead(max int) (n int, err error) {
	err = c.call(opPurgeDead, obs.TraceCtx{}, time.Time{}, func(e *wire.Buffer) { e.U32(uint32(clampMax(max))) },
		func(d *wire.Reader) error {
			n = int(d.I64())
			return d.Err
		})
	return n, err
}

// clampMax maps a negative cap to 0, which means "all" on the server.
func clampMax(max int) int {
	if max < 0 {
		return 0
	}
	return max
}

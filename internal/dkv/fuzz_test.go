package dkv

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"icache/internal/transport"
	"icache/internal/wire"
)

// frameSink stands in for a client connection: the server only writes to
// it, and every byte written is captured.
type frameSink struct {
	net.Conn // nil: only Write is called
	mu       sync.Mutex
	buf      bytes.Buffer
}

func (c *frameSink) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

// serveOneFrame feeds one request frame to srv exactly as a connection's
// read loop does (header decode → admission → dispatch) and waits for its
// handler. closed reports that the server would close the connection;
// otherwise resp is the single response frame written back.
func serveOneFrame(t *testing.T, srv *DirServer, req []byte) (resp []byte, closed bool) {
	t.Helper()
	sink := &frameSink{}
	c := srv.tr.NewConn(sink)
	err := srv.tr.ServeFrame(c, req)
	c.Wait()
	if err != nil {
		return nil, true
	}
	r := bytes.NewReader(sink.buf.Bytes())
	resp, err = wire.ReadFrame(r)
	if err != nil {
		t.Fatalf("no response frame: %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d stray bytes after the response frame", r.Len())
	}
	return resp, false
}

// rawRequest builds a request frame field by field, so seeds can carry
// header values no client would send.
func rawRequest(op byte, id uint32, traceID uint64, hop byte, budget int64, body ...byte) []byte {
	var e wire.Buffer
	e.U8(op)
	e.U32(id)
	e.I64(int64(traceID))
	e.U8(hop)
	e.I64(budget)
	e.B = append(e.B, body...)
	return e.B
}

// req is an untraced, unbounded request frame.
func req(op byte, body ...byte) []byte { return rawRequest(op, uint32(op), 0, 0, 0, body...) }

// FuzzDirDispatch throws arbitrary request frames at the directory server
// where a connection's bytes enter it — including the membership, ring and
// multi-lookup opcodes — asserting the malformed-client contract: a frame
// is answered exactly once, with its own request ID and a known status, or
// closes the connection, and nothing panics. A broken cache node (or an
// attacker on the directory port) must not be able to take the shared
// directory down.
func FuzzDirDispatch(f *testing.F) {
	// Every opcode well-formed, truncated operand forms, and garbage.
	f.Add([]byte{})
	f.Add(req(opLookup))
	f.Add(req(opLookup, 0, 0, 0, 0, 0, 0, 0, 7))
	f.Add(req(opClaim, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 1))
	f.Add(req(opClaim, 0, 0, 0, 0))
	f.Add(req(opRelease, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 1))
	f.Add(req(opLen))
	f.Add(req(opRegister, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 84, 11, 228, 0))
	f.Add(req(opRegister, 0, 0, 0, 0, 0, 0, 0, 2, 255, 255, 255, 255, 255, 255, 255, 255))
	f.Add(req(opRegister, 1))
	f.Add(req(opHeartbeat, 0, 0, 0, 0, 0, 0, 0, 2))
	f.Add(req(opHeartbeat))
	f.Add(req(opListNodes))
	f.Add(req(opOwnedBy, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 16))
	f.Add(req(opOwnedBy, 0, 0, 0, 0, 0, 0, 0, 2))
	f.Add(req(opPurgeDead, 0, 0, 0, 0))
	f.Add(req(opPurgeDead, 255, 255, 255, 255))
	// Multi-lookup: well-formed (one owned id, one absent), truncated id
	// list, and an absurd count that must trip the "unreasonable batch
	// size" guard instead of allocating gigabytes.
	f.Add(req(opLookupBatch, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 9))
	f.Add(req(opLookupBatch, 0, 0, 0, 2, 0, 0, 0, 0))
	f.Add(req(opLookupBatch, 0xFF, 0xFF, 0xFF, 0xFF))
	// Ring-view exchange: well-formed (sender 1 offers epoch 2 over replicas
	// {0,1}), truncated replica list, and an absurd ring size that must trip
	// the "unreasonable ring size" guard.
	f.Add(req(opRingView,
		0, 0, 0, 0, 0, 0, 0, 1, // sender
		0, 0, 0, 0, 0, 0, 0, 2, // epoch
		0, 0, 0, 2, // n
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1))
	f.Add(req(opRingView, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2))
	f.Add(req(opRingView, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0xFF, 0xFF, 0xFF, 0xFF))
	f.Add(req(opRingView))
	// Shard hand-off: well-formed (sender 1 pushes epoch 3 over {1} with a
	// sweep cap), missing cap, truncated.
	f.Add(req(opHandoff,
		0, 0, 0, 0, 0, 0, 0, 1, // sender
		0, 0, 0, 0, 0, 0, 0, 3, // epoch
		0, 0, 0, 1, // n
		0, 0, 0, 0, 0, 0, 0, 1, // replica 1
		0, 0, 0, 16)) // max
	f.Add(req(opHandoff, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1))
	f.Add(req(opHandoff, 0, 0, 0, 0))
	f.Add(req(0xFF, 0x01, 0x02))
	// The retired envelopes in the op slot, each followed by the bytes its
	// old sender put there: the trace envelope (10: trace ID, hop, inner
	// lookup) and the deadline envelope (14: budget, inner lookup). Both
	// must read as unknown opcodes.
	f.Add(req(10, 0, 0, 0, 0, 0, 0, 0, 9, 1, opLookup, 0, 0, 0, 0, 0, 0, 0, 7))
	f.Add(req(14, 0, 0, 0, 0, 59, 154, 202, 0, opLookup, 0, 0, 0, 0, 0, 0, 0, 7))
	// Truncated headers: the request ID alone, and one byte short.
	f.Add([]byte{opLookup, 0, 0, 0, 1})
	f.Add(req(opLen)[:transport.HeaderLen-1])
	// Header values no client sends: a negative budget, and a hop with no
	// trace ID.
	f.Add(rawRequest(opLookup, 40, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 7))
	f.Add(rawRequest(opLen, 41, 0, 3, 0))
	// Traced and bounded requests: a generous budget, a spent one (1ns,
	// answered StatusExpired without touching the directory), and a traced
	// multi-lookup.
	f.Add(rawRequest(opLookup, 42, 0, 0, int64(time.Minute), 0, 0, 0, 0, 0, 0, 0, 7))
	f.Add(rawRequest(opLookup, 43, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7))
	f.Add(rawRequest(opLookupBatch, 44, 9, 2, int64(time.Minute), 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7))

	f.Fuzz(func(t *testing.T, frame []byte) {
		// Fresh state per input: a fuzzed Register must not grow one shared
		// lease map without bound across the whole run. Replica mode is on so
		// the ring opcodes exercise their real handlers (the exchange loop is
		// not running, so the configured peer is never dialed).
		srv := NewDirServer(NewDirectory())
		srv.EnableReplica(ReplicaConfig{Self: 0, Peers: map[ReplicaID]string{1: "127.0.0.1:1"}})
		srv.dir.Register(2, 0)
		srv.dir.Claim(7, 2)

		resp, closed := serveOneFrame(t, srv, frame)
		if closed {
			if len(frame) >= transport.HeaderLen {
				t.Fatalf("a %d-byte frame with a complete header closed the connection", len(frame))
			}
			return
		}
		if len(resp) < transport.RespHeaderLen+1 {
			t.Fatalf("short response frame (%d bytes)", len(resp))
		}
		if !bytes.Equal(resp[:transport.RespHeaderLen], frame[1:1+transport.RespHeaderLen]) {
			t.Fatalf("response carries request ID %x, want %x", resp[:transport.RespHeaderLen], frame[1:1+transport.RespHeaderLen])
		}
		switch status := resp[transport.RespHeaderLen]; status {
		case transport.StatusOK, transport.StatusErr, transport.StatusExpired:
		case transport.StatusRetryAfter:
			t.Fatalf("retry-after with no admission gate installed")
		default:
			t.Fatalf("response status %d", status)
		}
	})
}

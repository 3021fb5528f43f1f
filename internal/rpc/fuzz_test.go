package rpc

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/obs"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/transport"
	"icache/internal/wire"
)

// frameSink stands in for a client connection: serveFrame only writes to
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
func serveOneFrame(t *testing.T, srv *Server, req []byte) (resp []byte, closed bool) {
	t.Helper()
	sink := &frameSink{}
	c := srv.tr.NewConn(sink)
	if err := srv.tr.ServeFrame(c, req); err != nil {
		c.Wait()
		return nil, true
	}
	c.Wait()
	r := bytes.NewReader(sink.buf.Bytes())
	resp, err := wire.ReadFrame(r)
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
func rawRequest(op byte, id uint32, traceID uint64, hop byte, budget int64, body []byte) []byte {
	var e wire.Buffer
	e.U8(op)
	e.U32(id)
	e.I64(int64(traceID))
	e.U8(hop)
	e.I64(budget)
	e.B = append(e.B, body...)
	return e.B
}

// idsBody is the id-list body of the batch opcodes.
func idsBody(ids ...dataset.SampleID) []byte {
	var e wire.Buffer
	appendIDs(&e, ids)
	return e.B
}

// FuzzServerDispatch throws arbitrary request frames at the server where a
// connection's bytes enter it: a frame must be answered exactly once —
// with its own request ID and a known status — or close the connection,
// and never panic or hang. A malformed client must not be able to take
// the cache service down.
func FuzzServerDispatch(f *testing.F) {
	spec := testSpec()
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		f.Fatal(err)
	}
	cacheSrv, err := icache.NewServer(back, icache.DefaultConfig(spec.TotalBytes()/5), sampling.DefaultIIS(), 5)
	if err != nil {
		f.Fatal(err)
	}
	source, err := storage.NewDataSource(spec)
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(cacheSrv, source)
	srv.Logf = nil

	// Every live opcode, well-formed and truncated.
	f.Add([]byte{})
	f.Add(newRequest(opPing).B)
	f.Add(newRequest(opGetBatch).B)
	f.Add(encodeGetBatchRequest([]dataset.SampleID{7}))
	f.Add(rawRequest(opUpdateImportance, 1, 0, 0, 0, []byte{0, 0, 0, 1}))
	f.Add(rawRequest(opBeginEpoch, 2, 0, 0, 0, []byte{0, 0, 0, 0}))
	f.Add(newRequest(opStats).B)
	f.Add(rawRequest(0xFF, 3, 0, 0, 0, []byte{0x01, 0x02}))
	f.Add(encodeGetBatchRequest([]dataset.SampleID{0, 1, 2}))
	// Batched peer reads: well-formed, truncated id list, and an absurd
	// count that must trip the "unreasonable batch size" guard instead of
	// allocating gigabytes.
	f.Add(encodePeerGetBatchRequest([]dataset.SampleID{0, 1, 2}, obs.TraceCtx{}, 0))
	f.Add(rawRequest(opPeerGetBatch, 4, 0, 0, 0, []byte{0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 7}))
	f.Add(rawRequest(opPeerGetBatch, 5, 0, 0, 0, []byte{0xFF, 0xFF, 0xFF, 0xFF}))
	f.Add(encodeEpochPlanRequest(3, []dataset.SampleID{4, 5}))
	f.Add(encodePlanPreplaceRequest([]dataset.SampleID{6}))
	// Retired opcodes in the op slot: the per-sample peer read (6), the
	// trace envelope (7), the mux envelope (9) and the deadline envelope
	// (10), each followed by the bytes its old sender put there. They must
	// read as unknown opcodes.
	f.Add(rawRequest(6, 6, 0, 0, 0, []byte{0, 0, 0, 0, 0, 0, 0, 9}))
	f.Add(rawRequest(7, 7, 0, 0, 0, append([]byte{0, 0, 0, 0, 0, 0, 0, 9, 1, opGetBatch}, idsBody(0, 1)...)))
	f.Add(rawRequest(9, 9, 0, 0, 0, []byte{0, 0, 0, 1, opPing}))
	f.Add(rawRequest(10, 10, 0, 0, 0, []byte{0, 0, 0, 0, 0, 0, 0, 1, opPing}))
	// Directory-replica frames (dkv opcodes 12/13: ring-view exchange and
	// shard hand-off) aimed at the cache port by a misconfigured replica.
	// Opcode 12 is opPlanPreplace here, so the replica's body must be
	// rejected as a malformed id list or decoded harmlessly.
	f.Add([]byte{12,
		0, 0, 0, 0, 0, 0, 0, 1, // sender
		0, 0, 0, 0, 0, 0, 0, 2, // epoch
		0, 0, 0, 2, // n
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{13, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 16})
	// Truncated headers: the request ID alone, and one byte short.
	f.Add([]byte{opPing, 0, 0, 0, 1})
	f.Add(newRequest(opPing).B[:transport.HeaderLen-1])
	// Header values no client sends: a negative budget, and a hop with no
	// trace ID.
	f.Add(rawRequest(opGetBatch, 11, 0, 0, -1, idsBody(0, 1)))
	f.Add(rawRequest(opPing, 12, 0, 3, 0, nil))
	// Traced and bounded requests: a generous budget, a spent one (1ns,
	// answered statusExpired), and a traced peer read.
	f.Add(rawRequest(opGetBatch, 13, 9, 1, int64(time.Minute), idsBody(0, 1)))
	f.Add(rawRequest(opGetBatch, 14, 0, 0, 1, idsBody(1, 2)))
	f.Add(encodePeerGetBatchRequest([]dataset.SampleID{0, 1}, obs.TraceCtx{ID: 9, Hop: 2}, time.Minute))

	f.Fuzz(func(t *testing.T, req []byte) {
		resp, closed := serveOneFrame(t, srv, req)
		if closed {
			if len(req) >= transport.HeaderLen {
				t.Fatalf("a %d-byte frame with a complete header closed the connection", len(req))
			}
			return
		}
		if len(resp) < transport.RespHeaderLen+1 {
			t.Fatalf("short response frame (%d bytes)", len(resp))
		}
		if !bytes.Equal(resp[:transport.RespHeaderLen], req[1:1+transport.RespHeaderLen]) {
			t.Fatalf("response carries request ID %x, want %x", resp[:transport.RespHeaderLen], req[1:1+transport.RespHeaderLen])
		}
		switch status := resp[transport.RespHeaderLen]; status {
		case statusOK, statusErr, statusExpired:
		case statusRetryAfter:
			t.Fatalf("retry-after with no admission gate installed")
		default:
			t.Fatalf("response status %d", status)
		}
	})
}

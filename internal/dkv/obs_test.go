package dkv

import (
	"net"
	"strings"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/trace"
	"icache/internal/transport"
	"icache/internal/wire"
)

// startObsDirServer is startDirServer with the observability layer armed
// before Serve.
func startObsDirServer(t *testing.T) (string, *Directory, *obs.Registry, *trace.Recorder) {
	t.Helper()
	dir := NewDirectory()
	srv := NewDirServer(dir)
	reg := obs.NewRegistry()
	tracer := trace.NewRecorder(1 << 10)
	srv.EnableObs(reg, tracer)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), dir, reg, tracer
}

func TestDirTracedLookup(t *testing.T) {
	addr, dir, reg, tracer := startObsDirServer(t)
	if !dir.Claim(7, 3) {
		t.Fatal("claim failed")
	}
	c := dialDir(t, addr)

	// A plain lookup and a traced lookup must return the same answer.
	owners, err := c.LookupBatch([]dataset.SampleID{7})
	if err != nil || !owners[0].Found || owners[0].Node != 3 {
		t.Fatalf("LookupBatch = (%v, %v)", owners, err)
	}
	ctx := obs.TraceCtx{ID: 0xfeed, Hop: 2}
	owners, err = c.LookupBatchTraced([]dataset.SampleID{7}, ctx)
	if err != nil || !owners[0].Found || owners[0].Node != 3 {
		t.Fatalf("LookupBatchTraced = (%v, %v)", owners, err)
	}
	// A traced miss, too.
	owners, err = c.LookupBatchTraced([]dataset.SampleID{1234}, ctx)
	if err != nil || owners[0].Found {
		t.Fatalf("LookupBatchTraced(absent) = (%v, %v)", owners, err)
	}

	// The traced lookups (and only those) produced RPCRecv spans at the
	// hop their headers carried, tagged with the opcode.
	var spans []trace.Event
	for _, e := range tracer.Snapshot() {
		if e.Kind.IsSpan() {
			spans = append(spans, e)
		}
	}
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2 (one per traced lookup)", len(spans))
	}
	for _, sp := range spans {
		if sp.Kind != trace.KindRPCRecv {
			t.Fatalf("span kind %v", sp.Kind)
		}
		if sp.TraceID != 0xfeed || sp.Hop != 2 {
			t.Fatalf("span ctx = (%016x, %d), want (feed, 2)", sp.TraceID, sp.Hop)
		}
		if sp.Arg != opLookupBatch {
			t.Fatalf("span arg %d, want opcode %d", sp.Arg, opLookupBatch)
		}
	}

	// The per-request histogram counted every request (traced or not).
	var served uint64
	for _, ns := range reg.Snapshot() {
		if ns.Name == StageDirServe {
			served = ns.Snap.Count
		}
	}
	if served < 3 {
		t.Fatalf("dir_serve histogram count %d, want >= 3", served)
	}

	// A zero trace context degrades to the plain request.
	if _, err := c.LookupBatchTraced([]dataset.SampleID{7}, obs.TraceCtx{}); err != nil {
		t.Fatal(err)
	}
}

// TestDirHeaderRejections pins the request header's safety properties at
// the directory's frame entry: a hop without a trace ID and a negative
// budget are answered as errors, a retired envelope opcode (10 = trace,
// 14 = deadline) is an unknown opcode even when it wraps a well-formed
// lookup, a spent budget is answered expired before the directory is
// touched, and a truncated header closes the connection.
func TestDirHeaderRejections(t *testing.T) {
	dir := NewDirectory()
	dir.Claim(7, 3)
	srv := NewDirServer(dir)
	srv.EnableObs(obs.NewRegistry(), trace.NewRecorder(16))

	answer := func(frame []byte) (status byte, msg string) {
		t.Helper()
		resp, closed := serveOneFrame(t, srv, frame)
		if closed {
			t.Fatalf("frame %x closed the connection", frame)
		}
		d := wire.NewReader(resp[transport.RespHeaderLen:])
		status = d.U8()
		if status == transport.StatusErr {
			msg = d.Str()
		}
		return status, msg
	}
	lookup7 := []byte{0, 0, 0, 0, 0, 0, 0, 7}

	// A well-formed traced, bounded lookup dispatches fine.
	if st, msg := answer(rawRequest(opLookup, 1, 9, 1, int64(time.Minute), lookup7...)); st != transport.StatusOK {
		t.Fatalf("traced lookup rejected: %s", msg)
	}
	// Retired envelopes are unknown opcodes.
	for _, op := range []byte{10, 14} {
		inner := append([]byte{0, 0, 0, 0, 0, 0, 0, 9, 1, opLookup}, lookup7...)
		if st, msg := answer(req(op, inner...)); st != transport.StatusErr || !strings.Contains(msg, "unknown opcode") {
			t.Fatalf("retired opcode %d: status %d msg %q", op, st, msg)
		}
	}
	// A hop without a trace ID is rejected.
	if st, msg := answer(rawRequest(opLookup, 2, 0, 1, 0, lookup7...)); st != transport.StatusErr {
		t.Fatalf("hop without trace id accepted: status %d msg %q", st, msg)
	}
	// A negative budget is rejected.
	if st, msg := answer(rawRequest(opLookup, 3, 0, 0, -1, lookup7...)); st != transport.StatusErr {
		t.Fatalf("negative budget accepted: status %d msg %q", st, msg)
	}
	// A spent budget is answered expired.
	if st, _ := answer(rawRequest(opLookup, 4, 0, 0, 1, lookup7...)); st != transport.StatusExpired {
		t.Fatalf("spent budget answered status %d, want expired", st)
	}
	// A truncated header fails cleanly: the connection closes.
	if _, closed := serveOneFrame(t, srv, []byte{opLookup, 1, 2}); !closed {
		t.Fatal("truncated header answered instead of closing the connection")
	}
}

// TestDirObsDisabledIsInert pins the nil-recorder contract: a server with
// no observability wiring serves traced requests correctly (the context
// is simply dropped) and records nothing.
func TestDirObsDisabledIsInert(t *testing.T) {
	dir := NewDirectory()
	if !dir.Claim(7, 3) {
		t.Fatal("claim failed")
	}
	srv := NewDirServer(dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	c, err := DialDir(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	owners, err := c.LookupBatchTraced([]dataset.SampleID{7}, obs.TraceCtx{ID: 5, Hop: 1})
	if err != nil || !owners[0].Found || owners[0].Node != 3 {
		t.Fatalf("LookupBatchTraced on plain server = (%v, %v)", owners, err)
	}
	if srv.ObsRegistry() != nil {
		t.Fatal("registry materialized on a plain server")
	}
}

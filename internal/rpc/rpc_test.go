package rpc

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/transport"
	"icache/internal/wire"
)

func testSpec() dataset.Spec {
	return dataset.Spec{Name: "rpc", NumSamples: 2000, MeanSampleBytes: 512, Seed: 21}
}

// startServer spins up a full server on a loopback listener.
func startServer(t *testing.T) (*Server, string, *storage.DataSource) {
	t.Helper()
	spec := testSpec()
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	cacheSrv, err := icache.NewServer(back, icache.DefaultConfig(spec.TotalBytes()/5), sampling.DefaultIIS(), 5)
	if err != nil {
		t.Fatal(err)
	}
	source, err := storage.NewDataSource(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cacheSrv, source)
	srv.Logf = nil // quiet in tests
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String(), source
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPing(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestGetBatchDeliversVerifiablePayloads(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr)
	spec := testSpec()

	// Push an H-list so requested samples are H-samples (exact delivery).
	var items []sampling.Item
	ids := []dataset.SampleID{1, 2, 3, 4, 5}
	for _, id := range ids {
		items = append(items, sampling.Item{ID: id, IV: 1.0})
	}
	if err := c.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	samples, err := c.GetBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		if s.ID != ids[i] {
			t.Fatalf("H-sample %d substituted with %d", ids[i], s.ID)
		}
		if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
			t.Fatalf("payload of %d corrupt: %v", s.ID, err)
		}
	}
}

func TestRepeatedFetchHitsCache(t *testing.T) {
	_, addr, src := startServer(t)
	c := dial(t, addr)
	ids := []dataset.SampleID{10, 11, 12}
	var items []sampling.Item
	for _, id := range ids {
		items = append(items, sampling.Item{ID: id, IV: 2.0})
	}
	if err := c.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	before := src.Reads()
	if _, err := c.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	if delta := src.Reads() - before; delta != 0 {
		t.Fatalf("second fetch hit the backend %d times; want cached", delta)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits == 0 || st.HCacheLen == 0 {
		t.Fatalf("stats show no caching: %+v", st)
	}
}

func TestEvictedPayloadsDropped(t *testing.T) {
	// A tiny cache forces evictions; the payload store must track them.
	spec := testSpec()
	back, _ := storage.NewBackend(spec, storage.OrangeFS())
	cfg := icache.DefaultConfig(4 * 512) // ~4 samples total
	cfg.EnableLCache = false
	cacheSrv, err := icache.NewServer(back, cfg, sampling.DefaultIIS(), 5)
	if err != nil {
		t.Fatal(err)
	}
	source, _ := storage.NewDataSource(spec)
	srv := NewServer(cacheSrv, source)
	srv.Logf = nil
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c := dial(t, ln.Addr().String())

	var items []sampling.Item
	var ids []dataset.SampleID
	for id := dataset.SampleID(0); id < 50; id++ {
		items = append(items, sampling.Item{ID: id, IV: float64(id)})
		ids = append(ids, id)
	}
	if err := c.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	stored := srv.payloads.len()
	if stored > 8 {
		t.Fatalf("payload store holds %d samples for a ~4-sample cache", stored)
	}
}

func TestBeginEpochAndSubstitutionPath(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr)
	spec := testSpec()

	// H-list covering ids 0..99; everything else is an L-sample.
	var items []sampling.Item
	for id := dataset.SampleID(0); id < 100; id++ {
		items = append(items, sampling.Item{ID: id, IV: 1})
	}
	if err := c.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if err := c.BeginEpoch(0); err != nil {
		t.Fatal(err)
	}
	// Request L-samples; every response must be a valid payload whose ID
	// matches its content even if substituted.
	var lids []dataset.SampleID
	for id := dataset.SampleID(500); id < 600; id++ {
		lids = append(lids, id)
	}
	samples, err := c.GetBatch(lids)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
			t.Fatalf("substituted payload invalid: %v", err)
		}
	}
}

func TestOutOfRangeRequestAnsweredNotFatal(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr)
	if _, err := c.GetBatch([]dataset.SampleID{999999}); err == nil {
		t.Fatal("out-of-range request succeeded")
	}
	// The connection must still be usable.
	if err := c.Ping(); err != nil {
		t.Fatalf("connection dead after error response: %v", err)
	}
}

// TestBackendFailureSurfacesAsRPCError arms one backend failure and expects
// the next GetBatch to report it. The server runs without a prefetch pool:
// a pool worker's read could otherwise consume the armed failure first.
func TestBackendFailureSurfacesAsRPCError(t *testing.T) {
	src, err := storage.NewDataSource(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, serveOn(t, newUnstartedServer(t, src, 0)))
	src.FailNext(1, errors.New("injected disk failure"))
	_, err = c.GetBatch([]dataset.SampleID{1500})
	if err == nil || !strings.Contains(err.Error(), "injected disk failure") {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal("connection dead after backend failure")
	}
}

func TestMalformedFrameRejected(t *testing.T) {
	_, addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exchange := func(req []byte) []byte {
		t.Helper()
		if err := wire.WriteFrame(conn, req); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp) < transport.RespHeaderLen+1 || !bytes.Equal(resp[:transport.RespHeaderLen], req[1:1+transport.RespHeaderLen]) {
			t.Fatalf("response %x does not echo the request ID", resp)
		}
		return resp[transport.RespHeaderLen:]
	}
	// Unknown opcode.
	if resp := exchange(rawRequest(0xFF, 1, 0, 0, 0, nil)); resp[0] != statusErr {
		t.Fatalf("unknown opcode answered with status %d", resp[0])
	}
	// Truncated GetBatch body.
	if resp := exchange(rawRequest(opGetBatch, 2, 0, 0, 0, []byte{0, 0})); resp[0] != statusErr {
		t.Fatal("truncated request not rejected")
	}
	// A frame too short for the header has no trustworthy request ID: the
	// server closes the connection instead of answering.
	if err := wire.WriteFrame(conn, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if resp, err := wire.ReadFrame(conn); err == nil {
		t.Fatalf("short header answered with %x; want the connection closed", resp)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	_, addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF} // 4 GB frame announcement
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	// The server must drop the connection rather than allocate.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server responded to a 4 GB frame")
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr, _ := startServer(t)
	spec := testSpec()
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			c, err := Dial(addr, time.Second)
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				ids := []dataset.SampleID{dataset.SampleID((w*100 + i) % spec.NumSamples)}
				samples, err := c.GetBatch(ids)
				if err != nil {
					done <- err
					return
				}
				if err := spec.VerifyPayload(samples[0].ID, samples[0].Payload); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	spec := testSpec()
	back, _ := storage.NewBackend(spec, storage.OrangeFS())
	cacheSrv, _ := icache.NewServer(back, icache.DefaultConfig(spec.TotalBytes()/5), sampling.DefaultIIS(), 5)
	source, _ := storage.NewDataSource(spec)
	srv := NewServer(cacheSrv, source)
	srv.Logf = nil
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve returned %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

// encodeGetBatchResponse is the reference encoding of a GetBatch
// response's status and body (the server frames the same layout with
// wire.Vec; see serve_vec.go).
func encodeGetBatchResponse(samples []Sample) []byte {
	var e wire.Buffer
	e.U8(statusOK)
	e.U32(uint32(len(samples)))
	for _, s := range samples {
		e.I64(int64(s.ID))
		e.Bytes(s.Payload)
	}
	return e.B
}

func TestFrameRoundTripProperty(t *testing.T) {
	// Encode/decode symmetry for the batch response across varied sizes.
	spec := testSpec()
	var samples []Sample
	for id := dataset.SampleID(0); id < 20; id++ {
		samples = append(samples, Sample{ID: id, Payload: spec.Payload(id)})
	}
	enc := encodeGetBatchResponse(samples)
	d := wire.NewReader(enc)
	if st := d.U8(); st != statusOK {
		t.Fatal("status lost")
	}
	got, err := decodeGetBatchResponse(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) {
		t.Fatalf("len %d != %d", len(got), len(samples))
	}
	for i := range got {
		if got[i].ID != samples[i].ID || string(got[i].Payload) != string(samples[i].Payload) {
			t.Fatalf("sample %d mismatched after round trip", i)
		}
	}
}

// lateConnListener hands Serve one live connection only once Close has
// begun: its Close (which Server.Close calls while sweeping connections)
// releases the connection to the pending Accept, the exact interleaving of
// a client connecting as the server shuts down.
type lateConnListener struct {
	late       net.Conn
	conns      chan net.Conn
	accepting  chan struct{}
	acceptOnce sync.Once
	closeOnce  sync.Once
}

func newLateConnListener(late net.Conn) *lateConnListener {
	return &lateConnListener{late: late, conns: make(chan net.Conn, 1), accepting: make(chan struct{})}
}

func (l *lateConnListener) Accept() (net.Conn, error) {
	l.acceptOnce.Do(func() { close(l.accepting) })
	c, ok := <-l.conns
	if !ok {
		return nil, net.ErrClosed
	}
	return c, nil
}

func (l *lateConnListener) Close() error {
	l.closeOnce.Do(func() {
		l.conns <- l.late
		close(l.conns)
	})
	return nil
}

func (l *lateConnListener) Addr() net.Addr { return l.late.LocalAddr() }

// TestServerCloseRefusesLateConnection pins the Serve/Close accept race: a
// connection Accept returns after Close has swept the live set must be
// closed, not served, so Close returns without waiting for that client to
// hang up.
func TestServerCloseRefusesLateConnection(t *testing.T) {
	srv := newUnstartedServer(t, nil, 0)
	srvEnd, cliEnd := net.Pipe()
	defer cliEnd.Close() // the client never hangs up on its own
	ln := newLateConnListener(srvEnd)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	<-ln.accepting

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close blocked on a connection accepted after its sweep")
	}
	if err := <-errc; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve returned %v, want net.ErrClosed", err)
	}
	cliEnd.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := cliEnd.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("late connection read = %v, want io.EOF: it was served, not closed", err)
	}
}

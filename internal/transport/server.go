package transport

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/wire"
)

// Handler serves one request that passed header decode and admission and
// holds a dispatch slot of its connection. It runs on the connection's
// read loop, where body aliases the loop's reusable read buffer. Short
// work is answered inline; work that may block decodes or copies what it
// needs and moves to its own goroutine, so the loop can read the next
// frame. Either way exactly one response frame for h.ID is written (Reply
// or WriteVec), and then c.Done(h) frees the slot.
type Handler func(c *Conn, h Header, body []byte)

// Server is the accept loop, the live-connection set and the per-request
// dispatch every service on the transport shares.
//
// Locking: mu guards the listener and the connection set only and nests
// with nothing. Each connection's write mutex is held across exactly one
// frame write; nothing else is held across I/O.
type Server struct {
	handle Handler
	gated  func(op byte) bool
	onErr  func(error)

	// Gate is the optional admission controller (nil = admit everything);
	// it covers the ops gated reports. AdmissionWait, when set, records the
	// time a request waited for a dispatch slot. Set both before Serve.
	Gate          *overload.Gate
	AdmissionWait *obs.Histogram

	shed     atomic.Int64 // requests answered StatusRetryAfter
	inflight atomic.Int64 // requests holding a dispatch slot

	mu      sync.Mutex
	ln      net.Listener
	conns   sync.WaitGroup
	connSet map[net.Conn]struct{}
	closed  chan struct{}
}

// NewServer builds a server dispatching to handle. gated reports which
// opcodes the admission gate covers; onErr (nil = ignore) hears every
// connection error other than a clean close.
func NewServer(handle Handler, gated func(op byte) bool, onErr func(error)) *Server {
	return &Server{
		handle:  handle,
		gated:   gated,
		onErr:   onErr,
		connSet: make(map[net.Conn]struct{}),
		closed:  make(chan struct{}),
	}
}

// Serve accepts connections on ln until Close. It always returns a non-nil
// error (net.ErrClosed after a clean shutdown).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	select {
	case <-s.closed:
		// Closed before serving began: nothing will close ln for us.
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	default:
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return net.ErrClosed
			default:
				return err
			}
		}
		// Register under mu, checking closed there: Close sweeps connSet
		// under the same lock after closing s.closed, so a connection
		// accepted as Close runs is either swept or refused here — never
		// registered after the sweep, where Close would wait on it until the
		// client hung up.
		s.mu.Lock()
		select {
		case <-s.closed:
			s.mu.Unlock()
			conn.Close()
			continue
		default:
		}
		s.connSet[conn] = struct{}{}
		s.conns.Add(1)
		s.mu.Unlock()
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.connSet, conn)
				s.mu.Unlock()
				s.conns.Done()
			}()
			s.ServeConn(conn)
		}()
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr reports the bound listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes live connections and waits for their
// handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	select {
	case <-s.closed:
		s.mu.Unlock()
		return nil
	default:
	}
	close(s.closed)
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for conn := range s.connSet {
		conn.Close()
	}
	s.mu.Unlock()
	s.conns.Wait()
	return err
}

// Closed is closed once Close begins.
func (s *Server) Closed() <-chan struct{} { return s.closed }

// Conns reports the number of live connections.
func (s *Server) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.connSet)
}

// Shed reports how many requests the admission gate rejected.
func (s *Server) Shed() int64 { return s.shed.Load() }

// Inflight reports how many requests currently hold a dispatch slot.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// ServeConn is one connection's request loop. It reuses a single request
// read buffer across frames (handlers copy what they keep before the next
// read). On teardown the connection closes FIRST, then the loop waits for
// in-flight handlers: stragglers fail their writes fast instead of
// blocking shutdown.
func (s *Server) ServeConn(nc net.Conn) {
	c := s.NewConn(nc)
	defer c.Wait()
	defer nc.Close()
	var rbuf []byte
	for {
		req, err := wire.ReadFrameInto(nc, rbuf)
		if err != nil {
			// Normal client disconnects arrive as EOF.
			if !errors.Is(err, io.EOF) {
				s.report(err)
			}
			return
		}
		rbuf = req[:0]
		if err := s.ServeFrame(c, req); err != nil {
			s.report(err)
			return
		}
	}
}

func (s *Server) report(err error) {
	if s.onErr != nil && !errors.Is(err, net.ErrClosed) {
		s.onErr(err)
	}
}

// ServeFrame serves one request frame: header decode, admission, then the
// handler. A shed request or a bad header is answered synchronously from
// the read loop and never occupies a dispatch slot. A non-nil error — a
// frame too short to carry a request ID, or a failed write — closes the
// connection.
func (s *Server) ServeFrame(c *Conn, req []byte) error {
	h, body, err := DecodeHeader(req, time.Now())
	if errors.Is(err, ErrShortHeader) {
		return err
	}
	if err != nil {
		msg := err.Error()
		return c.Reply(h.ID, func(e *wire.Buffer) { AppendError(e, msg) })
	}
	if g := s.Gate; g != nil && s.gated(h.Op) {
		ok, after := g.Admit(time.Now())
		if !ok {
			s.shed.Add(1)
			return c.Reply(h.ID, func(e *wire.Buffer) { AppendRetryAfter(e, after) })
		}
		h.admitted = true
	}
	s.acquire(c, h.admitted)
	s.handle(c, h, body)
	return nil
}

// acquire takes a dispatch slot of c, feeding the time spent blocked on the
// full semaphore — the server's standing queue delay — to the admission
// gate's CoDel window and the AdmissionWait histogram.
func (s *Server) acquire(c *Conn, admitted bool) {
	measure := admitted || s.AdmissionWait != nil
	var t0 time.Time
	if measure {
		t0 = time.Now()
	}
	c.sem <- struct{}{}
	if measure {
		now := time.Now()
		wait := now.Sub(t0)
		if admitted {
			s.Gate.Observe(now, wait)
		}
		s.AdmissionWait.Record(wait)
	}
	c.wg.Add(1)
	s.inflight.Add(1)
}

// connInflight bounds concurrently dispatched requests per connection;
// when full, the read loop blocks, pushing backpressure onto the client's
// own in-flight bound.
const connInflight = 64

// Conn is one served connection: its response write path and its
// dispatch slots.
type Conn struct {
	nc  net.Conn
	srv *Server
	wmu sync.Mutex // held across exactly one frame write
	wg  sync.WaitGroup
	sem chan struct{}
}

// NewConn wraps nc for ServeFrame (ServeConn does this per connection).
func (s *Server) NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, srv: s, sem: make(chan struct{}, connInflight)}
}

// Wait blocks until every dispatched handler has called Done.
func (c *Conn) Wait() { c.wg.Wait() }

// Done ends the handler of h: its admission slot and dispatch slot free.
func (c *Conn) Done(h Header) {
	if h.admitted {
		c.srv.Gate.Done()
	}
	c.srv.inflight.Add(-1)
	<-c.sem
	c.wg.Done()
}

// Reply writes one response frame for request id: the echoed ID, then
// whatever fill appends (a status byte and its body).
func (c *Conn) Reply(id uint32, fill func(e *wire.Buffer)) error {
	e := wire.GetBuffer()
	e.U32(id)
	fill(e)
	c.wmu.Lock()
	err := wire.WriteFrame(c.nc, e.B)
	c.wmu.Unlock()
	wire.PutBuffer(e)
	return err
}

// WriteVec writes one pre-framed response (ID and status included) with a
// single vectored write.
func (c *Conn) WriteVec(v *wire.Vec) error {
	c.wmu.Lock()
	_, err := v.WriteTo(c.nc)
	c.wmu.Unlock()
	return err
}

package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/overload"
	"icache/internal/retry"
	"icache/internal/wire"
)

// ErrDeadlineExceeded classifies every deadline-driven failure of a round
// trip — a local per-call timeout as well as the server answering
// StatusExpired. Callers (the load harness's goodput accounting) match it
// with errors.Is; the two flavors below stay distinguishable internally
// because only the local timeout counts against the circuit breaker.
var ErrDeadlineExceeded = errors.New("deadline exceeded")

// errCallTimeout: the client gave up waiting locally (per-call timer or
// connection deadline fired). The server may be hung — a breaker failure.
var errCallTimeout = fmt.Errorf("call timed out: %w", ErrDeadlineExceeded)

// errExpiredByServer: the server answered promptly that the budget had run
// out before it would start the work. The server is healthy — not a
// breaker failure.
var errExpiredByServer = fmt.Errorf("server dropped expired request: %w", ErrDeadlineExceeded)

// ServerError is an application error the server reported in a StatusErr
// frame. The transport worked; these are never retried and never trip the
// circuit breaker.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "server error: " + e.Msg }

// DefaultInflight bounds outstanding requests per connection when the
// dialer does not choose a limit: deep enough to keep a batched miss path
// busy, shallow enough that one sick server cannot absorb unbounded
// request goroutines.
const DefaultInflight = 32

// Config parameterizes Dial. The zero value selects the defaults.
type Config struct {
	// Timeout bounds each TCP dial.
	Timeout time.Duration
	// Policy is the retry schedule (zero value: retry.Default()).
	Policy retry.Policy
	// Inflight bounds in-flight requests per connection (<= 0 selects
	// DefaultInflight).
	Inflight int
	// RPCTimeout bounds each round trip (0 = unbounded) with a per-call
	// timer, so one slow response cannot poison the shared connection.
	RPCTimeout time.Duration
	// Breaker, when non-nil, is the circuit breaker consulted before and
	// reported to after every round trip. Owned by the caller so it can
	// outlive the client (the peer table keeps one per node).
	Breaker *overload.Breaker
	// ShedIsHealthy counts a shed answer (StatusRetryAfter) as a breaker
	// success: the directory's replicas are judged on liveness alone, while
	// a cache peer that sheds is one to route around.
	ShedIsHealthy bool
}

// Client is one server's client end: one TCP connection carrying pipelined
// requests, matched back to their callers by a demux reader (mux.go).
//
// A transport failure triggers retry under an exponential-backoff-with-
// jitter policy; a retried attempt takes a one-shot connection and the next
// call re-establishes the session. Server status answers are never retried.
// No lock is held across a round trip: mu guards only the session pointer
// and the closed flag, so Close and Resilience never wait on a call.
type Client struct {
	addr string
	cfg  Config
	rng  *rand.Rand // jitter PRNG; thread-safe via lockedSource

	retries atomic.Int64 // round trips that needed at least one retry
	redials atomic.Int64 // successful connection re-establishments

	mu     sync.Mutex
	sess   *session
	closed bool
}

// Dial connects to addr. The retry policy governs both the initial dial
// and every later round trip. Jitter draws from a PRNG seeded
// deterministically per address so chaos tests replay.
func Dial(addr string, cfg Config) (*Client, error) {
	if cfg.Policy == (retry.Policy{}) {
		cfg.Policy = retry.Default()
	}
	if cfg.Inflight <= 0 {
		cfg.Inflight = DefaultInflight
	}
	c := &Client{
		addr: addr,
		cfg:  cfg,
		rng:  rand.New(newLockedSource(int64(len(addr))*0x9E37 + 1)),
	}
	err := retry.Do(cfg.Policy, c.rng, nil, func(int) error {
		conn, err := net.DialTimeout("tcp", addr, cfg.Timeout)
		if err != nil {
			return err
		}
		c.sess = newSession(conn, cfg.Inflight)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return c, nil
}

// SetRPCTimeout bounds every later round trip (<= 0 = unbounded). Call
// before the client is shared across goroutines.
func (c *Client) SetRPCTimeout(d time.Duration) { c.cfg.RPCTimeout = d }

// SetBreaker installs (nil removes) the circuit breaker. Call before the
// client is shared across goroutines.
func (c *Client) SetBreaker(b *overload.Breaker) { c.cfg.Breaker = b }

// Close tears down the connection and waits for the demux reader to exit.
// Calls in flight fail; later calls fail without touching the network.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	s := c.sess
	c.sess = nil
	c.mu.Unlock()
	if s != nil {
		s.close()
	}
	return nil
}

// Resilience reports how many round trips needed a retry and how many
// redials succeeded over the client's lifetime.
func (c *Client) Resilience() (retries, redials int64) {
	return c.retries.Load(), c.redials.Load()
}

// CallDeadline is the default per-call bound from the configured
// RPCTimeout (zero time = unbounded).
func (c *Client) CallDeadline() time.Time {
	if c.cfg.RPCTimeout > 0 {
		return time.Now().Add(c.cfg.RPCTimeout)
	}
	return time.Time{}
}

// Tighten combines a caller's deadline with the configured RPCTimeout,
// returning whichever bound is earlier (zero time = unbounded on that
// side).
func (c *Client) Tighten(dl time.Time) time.Time {
	cd := c.CallDeadline()
	if dl.IsZero() {
		return cd
	}
	if cd.IsZero() || dl.Before(cd) {
		return dl
	}
	return cd
}

// RoundTrip sends one encoded request (AppendHeader, then the body) and
// decodes the status byte of the response, returning a reader over the
// remaining body and the pooled buffer backing it (nil when the read path
// allocated outside the pool). A caller that retains nothing from the
// reader recycles the buffer with wire.PutBuffer; callers that hand bytes
// out by reference simply drop it.
//
// A non-zero deadline bounds the whole call — every attempt's network wait
// AND the retry backoff between attempts — so a caller's budget is honored
// even when the transport hangs rather than fails. An installed breaker
// gates entry (open = fail fast, no network) and absorbs the outcome.
func (c *Client) RoundTrip(req []byte, deadline time.Time) (*wire.Reader, *wire.Buffer, error) {
	b := c.cfg.Breaker
	if b != nil && !b.Allow(time.Now()) {
		return nil, nil, fmt.Errorf("transport: %s: %w", c.addr, overload.ErrBreakerOpen)
	}
	var resp []byte
	var owner *wire.Buffer
	retried := false
	err := retry.Do(c.cfg.Policy, c.rng, nil, func(attempt int) error {
		if attempt > 0 {
			retried = true
			// Budget check before a retry: a doomed attempt would only turn
			// "late" into "later". The first attempt always runs — an already
			// expired budget still reaches the server, which answers
			// StatusExpired and keeps the accounting honest.
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				return retry.Permanent(fmt.Errorf("transport: %s: retry budget spent: %w", c.addr, errCallTimeout))
			}
		}
		r, o, err := c.attempt(req, attempt > 0, deadline)
		if err != nil {
			return err
		}
		resp, owner = r, o
		return nil
	})
	if retried {
		c.retries.Add(1)
	}
	if err != nil {
		c.report(b, err)
		return nil, nil, err
	}
	d := wire.NewReader(resp)
	var callErr error
	switch status := d.U8(); status {
	case StatusOK:
		c.report(b, nil)
		return d, owner, nil
	case StatusErr:
		callErr = &ServerError{Msg: d.Str()}
	case StatusRetryAfter:
		callErr = &overload.RetryAfterError{After: time.Duration(d.I64())}
	case StatusExpired:
		callErr = errExpiredByServer
	default:
		callErr = fmt.Errorf("transport: unknown status %d", status)
	}
	wire.PutBuffer(owner)
	c.report(b, callErr)
	return nil, nil, callErr
}

// report feeds one round-trip outcome to the breaker (if any). Application
// errors and server-side expiry mean the server answered — successes for
// the circuit, as is a shed when ShedIsHealthy. Transport failures and
// local timeouts are the failures that open it.
func (c *Client) report(b *overload.Breaker, err error) {
	if b == nil {
		return
	}
	ok := err == nil || errors.Is(err, errExpiredByServer)
	var se *ServerError
	var ra *overload.RetryAfterError
	if errors.As(err, &se) || (c.cfg.ShedIsHealthy && errors.As(err, &ra)) {
		ok = true
	}
	b.Report(time.Now(), ok)
}

// attempt performs one exchange. The first attempt goes over the shared
// session; a retry goes over a ONE-SHOT connection instead of
// re-establishing the session inline: the retry's success must not depend
// on the session machinery (demux reader, pipelined calls on the same
// connection) coming back healthy — a plain dial-exchange-close is the most
// failure-independent path available, and the next regular request
// re-establishes the session lazily. This also breaks deterministic failure
// resonance: a fault schedule that keys on per-connection I/O patterns (the
// chaos suites' DropEvery rules) would otherwise hit a fresh session at the
// same relative offset on every retry.
func (c *Client) attempt(req []byte, isRetry bool, deadline time.Time) ([]byte, *wire.Buffer, error) {
	if isRetry {
		resp, err := c.oneShot(req, deadline)
		return resp, nil, err
	}
	sess, err := c.session()
	if err != nil {
		return nil, nil, err
	}
	resp, owner, err := sess.doOwned(req, deadline)
	if err != nil {
		if errors.Is(err, errCallTimeout) {
			// The SESSION is fine — only this call ran out of time.
			// Tearing it down would fail its pipelined peers.
			return nil, nil, retry.Permanent(err)
		}
		c.sessionFailed(sess)
		return nil, nil, err
	}
	return resp, owner, nil
}

// oneShot performs one exchange on a private dial-and-close connection,
// never touching the session (a racing goroutine may have installed a
// healthy new generation that must not be disturbed).
func (c *Client) oneShot(req []byte, deadline time.Time) ([]byte, error) {
	if c.isClosed() {
		return nil, retry.Permanent(fmt.Errorf("transport: client for %s is closed", c.addr))
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.Timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: redial %s: %w", c.addr, err)
	}
	defer conn.Close()
	if !deadline.IsZero() {
		conn.SetDeadline(deadline)
	}
	c.redials.Add(1)
	if err := wire.WriteFrame(conn, req); err != nil {
		return nil, fmt.Errorf("transport: send: %w", err)
	}
	resp, err := wire.ReadFrame(conn)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return nil, retry.Permanent(fmt.Errorf("transport: receive: %w", errCallTimeout))
		}
		return nil, fmt.Errorf("transport: receive: %w", err)
	}
	if len(resp) <= RespHeaderLen || !bytes.Equal(resp[:RespHeaderLen], req[1:1+RespHeaderLen]) {
		return nil, fmt.Errorf("transport: malformed response frame (%d bytes)", len(resp))
	}
	return resp[RespHeaderLen:], nil
}

// session returns a live session, dialing a new generation when the
// current one is broken. The dial runs outside mu, and a healthy generation
// another caller installed meanwhile wins.
func (c *Client) session() (*session, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, retry.Permanent(fmt.Errorf("transport: client for %s is closed", c.addr))
	}
	if s := c.sess; s != nil && !s.broken() {
		c.mu.Unlock()
		return s, nil
	}
	c.mu.Unlock()
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.Timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: redial %s: %w", c.addr, err)
	}
	c.redials.Add(1)
	fresh := newSession(conn, c.cfg.Inflight)
	c.mu.Lock()
	old := c.sess
	if c.closed {
		c.mu.Unlock()
		fresh.close()
		return nil, retry.Permanent(fmt.Errorf("transport: client for %s is closed", c.addr))
	}
	if old != nil && !old.broken() {
		c.mu.Unlock()
		fresh.close()
		return old, nil
	}
	c.sess = fresh
	c.mu.Unlock()
	if old != nil {
		old.close()
	}
	return fresh, nil
}

// sessionFailed discards a broken session generation so the next attempt
// dials fresh (a racing goroutine that already installed a new session is
// left alone).
func (c *Client) sessionFailed(s *session) {
	c.mu.Lock()
	if c.sess == s {
		c.sess = nil
	}
	c.mu.Unlock()
	s.close()
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// lockedSource is a mutex-guarded rand.Source64: retry jitter is drawn from
// concurrent request goroutines, and the stdlib sources are not safe for
// concurrent use. Draw VALUES replay under a fixed seed, though the
// interleaving across goroutines is scheduling-dependent (jitter only
// perturbs backoff timing, never logical outcomes).
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func newLockedSource(seed int64) *lockedSource {
	return &lockedSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}

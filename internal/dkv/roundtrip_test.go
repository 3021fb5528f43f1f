package dkv

import (
	"net"
	"sync"
	"testing"
	"time"

	"icache/internal/dataset"
)

// lagListener hands out server connections whose responses arrive lag
// after the server wrote them, without serializing them: a response
// written while another is in transit is not held behind it, the way a
// long network path delays packets that are in flight together.
// Every request byte the server reads is signalled on arrived.
type lagListener struct {
	net.Listener
	lag     time.Duration
	arrived chan struct{}
}

func (l *lagListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	// out holds the responses in transit; 64 is the server's dispatch
	// bound per connection, so a write never waits on the delay line.
	lc := &lagConn{Conn: c, lag: l.lag, arrived: l.arrived, out: make(chan lagged, 64), done: make(chan struct{})}
	go lc.deliver()
	return lc, nil
}

type lagged struct {
	due time.Time
	b   []byte
}

type lagConn struct {
	net.Conn
	lag     time.Duration
	arrived chan struct{}
	out     chan lagged
	done    chan struct{}
	once    sync.Once
}

func (c *lagConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		select {
		case c.arrived <- struct{}{}:
		default:
		}
	}
	return n, err
}

func (c *lagConn) Write(p []byte) (int, error) {
	select {
	case c.out <- lagged{due: time.Now().Add(c.lag), b: append([]byte(nil), p...)}:
		return len(p), nil
	case <-c.done:
		return 0, net.ErrClosed
	}
}

func (c *lagConn) deliver() {
	for {
		select {
		case m := <-c.out:
			time.Sleep(time.Until(m.due))
			if _, err := c.Conn.Write(m.b); err != nil {
				return
			}
		case <-c.done:
			return
		}
	}
}

func (c *lagConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return c.Conn.Close()
}

// startLaggedDirServer serves a directory holding 7 → node 3 behind a
// lagListener, and returns its address and the listener's arrival signal.
func startLaggedDirServer(t *testing.T, lag time.Duration) (string, <-chan struct{}) {
	t.Helper()
	dir := NewDirectory()
	dir.Claim(7, 3)
	srv := NewDirServer(dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	arrived := make(chan struct{}, 1)
	go srv.Serve(&lagListener{Listener: ln, lag: lag, arrived: arrived})
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), arrived
}

// TestDirClientCallsOverlap pins that no lock is held across a directory
// round trip: two concurrent lookups on ONE client against a directory
// whose answers take lag to arrive finish in about one lag, not two.
func TestDirClientCallsOverlap(t *testing.T) {
	const lag = 200 * time.Millisecond
	addr, _ := startLaggedDirServer(t, lag)
	c := dialDir(t, addr)

	var wg sync.WaitGroup
	results := make([][]Owner, 2)
	errs := make([]error, 2)
	start := time.Now()
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.LookupBatch([]dataset.SampleID{7, dataset.SampleID(100 + i)})
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i := range results {
		if errs[i] != nil || len(results[i]) != 2 || !results[i][0].Found || results[i][0].Node != 3 || results[i][1].Found {
			t.Fatalf("lookup %d = (%v, %v)", i, results[i], errs[i])
		}
	}
	if elapsed >= lag*3/2 {
		t.Fatalf("two concurrent lookups took %v with a %v answer lag: the calls queued behind each other", elapsed, lag)
	}
}

// TestDirClientCloseDoesNotWaitOnCall pins that Resilience and Close
// return promptly while a call is blocked on a slow answer, and that the
// blocked call fails once the client is closed instead of waiting it out.
func TestDirClientCloseDoesNotWaitOnCall(t *testing.T) {
	const lag = 3 * time.Second
	addr, arrived := startLaggedDirServer(t, lag)
	c, err := DialDir(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	callErr := make(chan error, 1)
	go func() {
		_, err := c.LookupBatch([]dataset.SampleID{7})
		callErr <- err
	}()
	<-arrived // the request reached the server; its answer is in transit

	const prompt = 500 * time.Millisecond
	start := time.Now()
	c.Resilience()
	if d := time.Since(start); d > prompt {
		t.Fatalf("Resilience took %v while a call was blocked", d)
	}
	start = time.Now()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > prompt {
		t.Fatalf("Close took %v while a call was blocked", d)
	}
	select {
	case err := <-callErr:
		if err == nil {
			t.Fatal("the blocked call succeeded on a closed client")
		}
	case <-time.After(prompt):
		t.Fatal("the blocked call kept waiting after Close")
	}
}

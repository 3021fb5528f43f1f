package transport

import (
	"net"
	"testing"
	"time"

	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/retry"
	"icache/internal/wire"
)

// TestBreakerShedVerdict pins the one difference between the services'
// breakers: against a server that sheds every request, a client with
// ShedIsHealthy (a directory replica) keeps its breaker closed, and one
// without (a cache peer) trips it.
func TestBreakerShedVerdict(t *testing.T) {
	srv := NewServer(func(c *Conn, h Header, body []byte) {
		go func() {
			defer c.Done(h)
			c.Reply(h.ID, func(e *wire.Buffer) { AppendRetryAfter(e, time.Millisecond) })
		}()
	}, func(byte) bool { return false }, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	for _, healthy := range []bool{false, true} {
		b := overload.NewBreaker(overload.BreakerConfig{Threshold: 2, Cooldown: time.Minute})
		c, err := Dial(ln.Addr().String(), Config{Timeout: time.Second, Policy: retry.None(), Breaker: b, ShedIsHealthy: healthy})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			var req wire.Buffer
			AppendHeader(&req, 1, obs.TraceCtx{}, 0)
			if _, _, err := c.RoundTrip(req.B, time.Time{}); err == nil {
				t.Fatal("a shed request succeeded")
			}
		}
		if tripped := b.Stats().Trips > 0; tripped == healthy {
			t.Fatalf("ShedIsHealthy=%v: breaker tripped=%v after three sheds", healthy, tripped)
		}
		c.Close()
	}
}

package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/retry"
	"icache/internal/sampling"
	"icache/internal/trace"
	"icache/internal/transport"
	"icache/internal/wire"
)

// ErrDeadlineExceeded classifies every deadline-driven failure of a round
// trip — a local per-call timeout as well as the server answering
// statusExpired. Callers (the load harness's goodput accounting) match it
// with errors.Is.
var ErrDeadlineExceeded = transport.ErrDeadlineExceeded

// ServerError is an application error the server reported in a statusErr
// frame. The transport worked; these are never retried and never trip the
// circuit breaker.
type ServerError = transport.ServerError

// Client is the framework-side iCache client module (the role the paper's
// iCacheImageFolder plays inside PyTorch): it forwards data-loader requests
// to the cache server and pushes the job's H-list after importance updates.
//
// A Client owns one TCP connection carrying pipelined requests: N
// goroutines can have N frames in flight at once, matched back to their
// callers by a demux reader goroutine (internal/transport).
//
// The client is resilient by default: a transport failure triggers
// redial-and-retry under an exponential-backoff-with-jitter policy
// (retry.Default), so a long-running training job rides through cache
// server restarts — servers come back warm via checkpoints. Application
// errors reported by the server (status frames) are never retried.
type Client struct {
	tc *transport.Client

	// Observability (EnableObs; all nil/zero when disabled). rtHist times
	// whole round trips (retries included); tracer+sampler arm 1-in-N
	// request tracing, with span timestamps measured from obsStart so the
	// client's trace clock starts at dial like the server's starts at
	// NewServer.
	rtHist   *obs.Histogram
	tracer   *trace.Recorder
	sampler  *obs.Sampler
	obsStart time.Time
}

// defaultMuxInflight bounds outstanding requests per connection when the
// dialer does not choose a limit (the -peer-inflight knob).
const defaultMuxInflight = transport.DefaultInflight

// DialConfig parameterizes DialConfigured. The zero value selects the
// defaults Dial uses.
type DialConfig struct {
	// Timeout bounds each TCP dial.
	Timeout time.Duration
	// Policy is the retry schedule (zero value: retry.Default()).
	Policy retry.Policy
	// MuxInflight bounds in-flight requests per multiplexed connection
	// (<= 0 selects defaultMuxInflight).
	MuxInflight int
	// RPCTimeout bounds each round trip (0 = unbounded) with a per-call
	// timer, so one slow response cannot poison the shared pipelined
	// connection.
	RPCTimeout time.Duration
	// Breaker, when non-nil, is the circuit breaker consulted before and
	// reported to after every round trip. Owned by the caller so it survives
	// client reconnects (the peer table keeps one per node).
	Breaker *overload.Breaker
}

// Dial connects to an iCache server with the default retry policy.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialPolicy(addr, timeout, retry.Default())
}

// DialPolicy connects with an explicit retry policy. The policy governs
// both the initial dial and every subsequent round trip. Jitter draws from
// a PRNG seeded deterministically per client so chaos tests replay.
func DialPolicy(addr string, timeout time.Duration, policy retry.Policy) (*Client, error) {
	return DialConfigured(addr, DialConfig{Timeout: timeout, Policy: policy})
}

// DialConfigured connects with explicit transport configuration.
func DialConfigured(addr string, cfg DialConfig) (*Client, error) {
	tc, err := transport.Dial(addr, transport.Config{
		Timeout:    cfg.Timeout,
		Policy:     cfg.Policy,
		Inflight:   cfg.MuxInflight,
		RPCTimeout: cfg.RPCTimeout,
		Breaker:    cfg.Breaker,
	})
	if err != nil {
		return nil, fmt.Errorf("rpc: %w", err)
	}
	return &Client{tc: tc, obsStart: time.Now()}, nil
}

// Close tears down the connection and waits for the demux reader to exit.
func (c *Client) Close() error { return c.tc.Close() }

// Resilience reports how many round trips needed a retry and how many
// redials succeeded over the client's lifetime.
func (c *Client) Resilience() (retries, redials int64) { return c.tc.Resilience() }

// roundTrip sends one request frame and returns the response body after
// the status byte. Transport failures are retried under the client's
// policy; server status errors surface immediately. The pooled backing
// buffer is dropped, not recycled: this path hands decoded bytes out by
// reference with an unbounded lifetime.
func (c *Client) roundTrip(req []byte) (*wire.Reader, error) {
	d, _, err := c.roundTripDeadline(req, c.tc.CallDeadline())
	return d, err
}

// roundTripDeadline is the round trip under a deadline (see
// transport.Client.RoundTrip), timed into the client_round_trip stage when
// observability is on. It also returns the pooled buffer backing the
// response (nil when none): a caller that retains nothing from the reader
// recycles it with wire.PutBuffer.
func (c *Client) roundTripDeadline(req []byte, deadline time.Time) (*wire.Reader, *wire.Buffer, error) {
	var t0 time.Time
	if c.rtHist != nil {
		t0 = time.Now()
		defer func() { c.rtHist.Since(t0) }()
	}
	d, owner, err := c.tc.RoundTrip(req, deadline)
	if err != nil {
		return nil, nil, fmt.Errorf("rpc: %w", err)
	}
	return d, owner, nil
}

// GetBatch fetches a mini-batch through the cache (the paper's rpc_loader
// interface). The returned samples may carry different IDs than requested
// when the server substituted missed L-samples.
//
// When client observability is armed (EnableObs) and the sampler fires,
// the request carries a trace ID and the client records the hop-0
// KindRPCSend span covering the full round trip.
func (c *Client) GetBatch(ids []dataset.SampleID) ([]Sample, error) {
	return c.GetBatchCtx(context.Background(), ids)
}

// GetBatchCtx is GetBatch with deadline propagation: the context's
// remaining time rides the request header as its budget, so the server
// (and every peer/directory hop it fans out to) inherits the budget and
// drops work that can no longer finish in time. The same deadline bounds
// the local wait (a hung transport cannot outlive the context).
func (c *Client) GetBatchCtx(ctx context.Context, ids []dataset.SampleID) ([]Sample, error) {
	// The pooled response buffer is dropped, not recycled: the payloads
	// alias it and are handed out with an unbounded lifetime.
	d, _, err := c.getBatch(ctx, ids)
	if err != nil {
		return nil, err
	}
	samples, err := decodeGetBatchResponse(d)
	if err != nil {
		return nil, err
	}
	if len(samples) != len(ids) {
		return nil, fmt.Errorf("rpc: got %d samples for %d requests", len(samples), len(ids))
	}
	return samples, nil
}

// getBatch is the round trip shared by GetBatchCtx and GetBatchFuncCtx. The
// request is encoded into a pooled buffer, recycled once the round trip
// returns (every attempt's write has completed by then). The caller
// decodes the response and owns its backing buffer.
func (c *Client) getBatch(ctx context.Context, ids []dataset.SampleID) (*wire.Reader, *wire.Buffer, error) {
	deadline, budget, err := c.ctxBounds(ctx)
	if err != nil {
		return nil, nil, err
	}
	tctx := c.beginTrace()
	e := wire.GetBuffer()
	transport.AppendHeader(e, opGetBatch, tctx.Next(), budget)
	appendIDs(e, ids)
	var t0 time.Time
	if tctx.Valid() {
		t0 = time.Now()
	}
	d, owner, err := c.roundTripDeadline(e.B, deadline)
	wire.PutBuffer(e)
	if tctx.Valid() {
		c.tracer.RecordSpan(time.Since(c.obsStart), trace.KindRPCSend, 0,
			spanArgPeer, tctx.ID, tctx.Hop, time.Since(t0))
	}
	return d, owner, err
}

// ctxBounds merges a context deadline with the configured per-call
// RPCTimeout: the local bound is the earlier of the two, and the wire
// budget (0 = none) is the context's remaining time. An already-done
// context fails fast without a network round trip.
func (c *Client) ctxBounds(ctx context.Context) (deadline time.Time, budget time.Duration, err error) {
	if ctxErr := ctx.Err(); ctxErr != nil {
		if errors.Is(ctxErr, context.DeadlineExceeded) {
			return time.Time{}, 0, fmt.Errorf("rpc: call timed out: %w", ErrDeadlineExceeded)
		}
		return time.Time{}, 0, ctxErr
	}
	deadline = c.tc.CallDeadline()
	if cd, ok := ctx.Deadline(); ok {
		budget = time.Until(cd)
		if budget <= 0 {
			budget = 1 // raced to expiry: still send, server answers statusExpired
		}
		if deadline.IsZero() || cd.Before(deadline) {
			deadline = cd
		}
	}
	return deadline, budget, nil
}

// sampleSlicePool recycles the decoded-sample scratch slices GetBatchFunc
// hands to its callback. Stored as pointers so checkouts don't re-box the
// slice header.
var sampleSlicePool = sync.Pool{New: func() interface{} {
	s := make([]Sample, 0, 64)
	return &s
}}

// GetBatchFunc fetches a mini-batch and hands the decoded samples to fn
// instead of returning them. The samples — every ID and Payload slice —
// are valid ONLY for the duration of the callback: they alias a pooled
// response buffer that is recycled the moment fn returns, so a caller that
// needs bytes afterwards must copy them inside fn. In exchange, a warm
// round trip on the multiplexed transport performs no per-request frame
// allocation on the client: the demux reader's pooled buffer is checked
// out, decoded, consumed, and returned. Training loops that decode each
// payload straight into a framework tensor (and the load harness, which
// only counts bytes) fit this contract exactly; use GetBatch when sample
// lifetimes are unbounded.
func (c *Client) GetBatchFunc(ids []dataset.SampleID, fn func([]Sample) error) error {
	return c.GetBatchFuncCtx(context.Background(), ids, fn)
}

// GetBatchFuncCtx is GetBatchFunc with deadline propagation (see
// GetBatchCtx).
func (c *Client) GetBatchFuncCtx(ctx context.Context, ids []dataset.SampleID, fn func([]Sample) error) error {
	d, owner, err := c.getBatch(ctx, ids)
	if err != nil {
		return err
	}
	scratch := sampleSlicePool.Get().(*[]Sample)
	samples, err := decodeGetBatchResponseInto(d, (*scratch)[:0])
	if err == nil && len(samples) != len(ids) {
		err = fmt.Errorf("rpc: got %d samples for %d requests", len(samples), len(ids))
	}
	if err == nil {
		err = fn(samples)
	}
	// Drop the payload references before pooling the scratch slice, then
	// recycle the frame buffer the payloads aliased.
	for i := range samples {
		samples[i] = Sample{}
	}
	*scratch = samples[:0]
	sampleSlicePool.Put(scratch)
	wire.PutBuffer(owner)
	return err
}

// UpdateImportance pushes the job's H-list to the server (the paper's
// update_ipersample interface).
func (c *Client) UpdateImportance(items []sampling.Item) error {
	_, err := c.roundTrip(encodeUpdateImportanceRequest(items))
	return err
}

// BeginEpoch tells the server an epoch boundary passed so it can
// repartition, reset substitution state, and roll the loading thread.
func (c *Client) BeginEpoch(epoch int) error {
	e := newRequest(opBeginEpoch)
	e.U32(uint32(epoch))
	_, err := c.roundTrip(e.B)
	return err
}

// BeginEpochPlan is BeginEpoch carrying the next epoch's known access
// sequence (the IIS sampler draws it before the epoch starts). A
// clairvoyant server installs it as a prefetch plan; a reactive one still
// crosses the boundary and ignores the schedule.
func (c *Client) BeginEpochPlan(epoch int, ids []dataset.SampleID) error {
	_, err := c.roundTrip(encodeEpochPlanRequest(epoch, ids))
	return err
}

// PlanPreplace hands the server plan entries it is the future owner of
// (planner-to-planner traffic). Returns how many entries the server
// accepted into its plan (0 when its planner is off).
func (c *Client) PlanPreplace(ids []dataset.SampleID) (int, error) {
	d, err := c.roundTrip(encodePlanPreplaceRequest(ids))
	if err != nil {
		return 0, err
	}
	accepted := d.U32()
	if err := d.Err; err != nil {
		return 0, err
	}
	return int(accepted), nil
}

// Stats fetches the server's counter snapshot.
func (c *Client) Stats() (Stats, error) {
	d, err := c.roundTrip(newRequest(opStats).B)
	if err != nil {
		return Stats{}, err
	}
	return decodeStatsResponse(d)
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.roundTrip(newRequest(opPing).B)
	return err
}

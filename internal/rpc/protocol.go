// Package rpc implements the client/server wire protocol between the
// deep-learning framework and the iCache server. The paper uses gRPC; this
// reproduction uses an equivalent length-prefixed binary protocol over TCP
// built only on the standard library, with the same two interfaces the
// paper names — fetching batches (rpc_loader) and pushing importance values
// (update_ipersample) — plus epoch-boundary and stats calls.
//
// Every frame is a 4-byte big-endian payload length, then the payload. A
// request payload opens with one fixed header, then the opcode's body:
//
//	u8 op | u32 reqID | u64 traceID | u8 hop | i64 budgetNanos | body
//
// A response payload echoes the request ID:
//
//	u32 reqID | u8 status | body
//
// The request ID lets one connection carry many requests at once: the
// server dispatches each frame on its own goroutine and answers in
// completion order, and the client's demux reader matches answers to
// callers (mux.go). Trace ID 0 means untraced, and then the hop must be 0;
// otherwise the hop is the position the receiver occupies in the trace
// chain. The budget is the remaining time the caller will wait, re-anchored
// at every hop so clocks never need to agree; 0 means no deadline and a
// negative budget is rejected. All integers are big-endian; floats are
// IEEE-754 bits.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/sampling"
	"icache/internal/wire"
)

// Opcodes. Numbers 6, 7, 9 and 10 belonged to retired request kinds
// (per-sample peer read, trace envelope, mux envelope, deadline envelope);
// they are answered as unknown opcodes and must not be reused.
const (
	opGetBatch         = 1 // the paper's rpc_loader
	opUpdateImportance = 2 // the paper's update_ipersample
	opStats            = 3
	opBeginEpoch       = 4
	opPing             = 5
	// opPeerGetBatch fetches many resident samples from a peer cache in one
	// round trip. Body: u32 n | n × i64 id. Response body: u32 n |
	// n × (u8 found | bytes payload-if-found), aligned with the request.
	opPeerGetBatch = 8
	// opEpochPlan is the clairvoyant epoch boundary: opBeginEpoch plus the
	// epoch's known access sequence, pushed in first-access order by a
	// client whose IIS sampler has already drawn the schedule. Body:
	// u32 epoch | u32 n | n × i64 id. The server performs the normal
	// epoch-boundary duties and — when clairvoyant planning is enabled —
	// installs the sequence as the epoch's prefetch plan (see plan.go). A
	// non-clairvoyant server still crosses the boundary and answers
	// statusOK.
	opEpochPlan = 11
	// opPlanPreplace routes plan entries to their future owner: the sending
	// planner decided (by rendezvous over the membership) that the receiver
	// should hold these samples, and the receiver folds them into its own
	// plan, admitting and fetching them through its own budgeted drain.
	// Body: u32 n | n × i64 id. Response body: u32 accepted (0 when the
	// receiver has no planner).
	opPlanPreplace = 12
)

// reqHeaderLen is the fixed request header: op, request ID, trace ID, hop
// and deadline budget.
const reqHeaderLen = 1 + 4 + 8 + 1 + 8

// respHeaderLen is the response prefix in front of the status byte: the
// echoed request ID.
const respHeaderLen = 4

// Response status codes.
const (
	statusOK  = 0
	statusErr = 1
	// statusRetryAfter is the admission gate's shed rejection: the body is
	// i64 backoff-hint nanoseconds. The request was NOT served and NOT
	// counted against the cache; the client should back off and retry.
	statusRetryAfter = 2
	// statusExpired reports that the request's deadline budget ran out
	// before the server started (or finished) the work; the body is empty.
	statusExpired = 3
)

// appendRequestHeader starts a request in e. The request ID is left 0: the
// transport stamps it per attempt (stampRequestID). An invalid trace
// context is sent as the untraced (0, 0).
func appendRequestHeader(e *wire.Buffer, op byte, tc obs.TraceCtx, budget time.Duration) {
	if !tc.Valid() {
		tc = obs.TraceCtx{}
	}
	e.U8(op)
	e.U32(0)
	e.I64(int64(tc.ID))
	e.U8(tc.Hop)
	e.I64(int64(budget))
}

// stampRequestID writes id into an encoded request's header.
func stampRequestID(req []byte, id uint32) { binary.BigEndian.PutUint32(req[1:5], id) }

// newRequest starts an untraced, unbounded request; callers append the body.
func newRequest(op byte) *buffer {
	e := &buffer{}
	appendRequestHeader(&e.Buffer, op, obs.TraceCtx{}, 0)
	return e
}

// wireBudget converts an absolute deadline into the budget a request
// carries: 0 for no deadline, and at least 1ns otherwise — an already
// spent budget is still sent, so the server answers statusExpired rather
// than the caller silently dropping the call.
func wireBudget(deadline time.Time) time.Duration {
	if deadline.IsZero() {
		return 0
	}
	if b := time.Until(deadline); b > 0 {
		return b
	}
	return 1
}

// requestHeader is a decoded request header.
type requestHeader struct {
	op       byte
	id       uint32
	trace    obs.TraceCtx
	deadline time.Time // zero: no deadline
}

// errShortHeader rejects a frame too short to hold the request header. Its
// request ID cannot be trusted, so the server closes the connection rather
// than answer.
var errShortHeader = errors.New("rpc: request frame shorter than its header")

// decodeRequestHeader splits a request frame into its header and body. The
// budget is anchored at now. Any error but errShortHeader comes with a
// valid h.id, so it can be answered in-band.
func decodeRequestHeader(req []byte, now time.Time) (h requestHeader, body []byte, err error) {
	if len(req) < reqHeaderLen {
		return h, nil, errShortHeader
	}
	d := wire.NewReader(req)
	h.op = d.U8()
	h.id = d.U32()
	h.trace = obs.TraceCtx{ID: uint64(d.I64()), Hop: d.U8()}
	budget := d.I64()
	if budget < 0 {
		return h, nil, fmt.Errorf("rpc: negative deadline budget %d", budget)
	}
	if h.trace.ID == 0 && h.trace.Hop != 0 {
		return h, nil, fmt.Errorf("rpc: hop %d without a trace id", h.trace.Hop)
	}
	if budget > 0 {
		h.deadline = now.Add(time.Duration(budget))
	}
	return h, req[reqHeaderLen:], nil
}

// writeFrame and readFrame delegate to the shared wire framing.
func writeFrame(w io.Writer, payload []byte) error { return wire.WriteFrame(w, payload) }

func readFrame(r io.Reader) ([]byte, error) { return wire.ReadFrame(r) }

// buffer and reader alias the shared wire encoder/decoder with the local
// lower-case method names this file was written against.
type buffer struct{ wire.Buffer }

func (e *buffer) u8(v byte)       { e.U8(v) }
func (e *buffer) u32(v uint32)    { e.U32(v) }
func (e *buffer) i64(v int64)     { e.I64(v) }
func (e *buffer) f64(v float64)   { e.F64(v) }
func (e *buffer) bytes(v []byte)  { e.Bytes(v) }
func (e *buffer) str(s string)    { e.Str(s) }
func (e *buffer) payload() []byte { return e.Buffer.B }

type reader struct{ *wire.Reader }

func newReader(b []byte) *reader { return &reader{wire.NewReader(b)} }

func (d *reader) u8() byte      { return d.U8() }
func (d *reader) u32() uint32   { return d.U32() }
func (d *reader) i64() int64    { return d.I64() }
func (d *reader) f64() float64  { return d.F64() }
func (d *reader) bytes() []byte { return d.BytesField() }
func (d *reader) str() string   { return d.Str() }
func (d *reader) err() error    { return d.Err }

// appendIDs appends the id-list body shared by opGetBatch, opPeerGetBatch,
// opEpochPlan and opPlanPreplace: u32 n | n × i64 id.
func appendIDs(e *wire.Buffer, ids []dataset.SampleID) {
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.I64(int64(id))
	}
}

// encodeGetBatchRequest encodes an untraced, unbounded GetBatch request.
func encodeGetBatchRequest(ids []dataset.SampleID) []byte {
	e := newRequest(opGetBatch)
	appendIDs(&e.Buffer, ids)
	return e.payload()
}

func decodeGetBatchRequest(d *reader) ([]dataset.SampleID, error) {
	return decodeGetBatchRequestInto(d, nil)
}

// decodeGetBatchRequestInto appends the decoded ids to dst (reusing its
// capacity) — the vectored serving path passes a pooled scratch slice so a
// request decode allocates nothing.
func decodeGetBatchRequestInto(d *reader, dst []dataset.SampleID) ([]dataset.SampleID, error) {
	n := int(d.u32())
	if n < 0 || n > 1<<20 {
		return nil, fmt.Errorf("rpc: unreasonable batch size %d", n)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, dataset.SampleID(d.i64()))
	}
	return dst, d.err()
}

// encodePeerGetBatchRequest encodes an opPeerGetBatch request carrying the
// originating request's trace context (addressed to the peer) and budget.
func encodePeerGetBatchRequest(ids []dataset.SampleID, tc obs.TraceCtx, budget time.Duration) []byte {
	var e buffer
	appendRequestHeader(&e.Buffer, opPeerGetBatch, tc, budget)
	appendIDs(&e.Buffer, ids)
	return e.payload()
}

// decodePeerGetBatchResponse decodes the per-id results of an
// opPeerGetBatch response, aligned with the n ids the caller sent: out[i]
// is the payload when the peer had ids[i] resident, nil when it did not.
func decodePeerGetBatchResponse(d *reader, want int) ([][]byte, error) {
	n := int(d.u32())
	if err := d.err(); err != nil {
		return nil, err
	}
	if n != want {
		return nil, fmt.Errorf("rpc: peer batch length mismatch: sent %d, got %d", want, n)
	}
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		if d.u8() == 1 {
			out[i] = d.bytes()
		}
		if err := d.err(); err != nil {
			return nil, err
		}
	}
	return out, d.err()
}

// encodeEpochPlanRequest/decode pair: the epoch number plus the epoch's
// access sequence in first-access order. The sequence reuses opGetBatch's
// id-list layout and size guard (an IIS schedule is at most one pass over
// the dataset, well under the guard for every spec this repo ships).
func encodeEpochPlanRequest(epoch int, ids []dataset.SampleID) []byte {
	e := newRequest(opEpochPlan)
	e.u32(uint32(epoch))
	appendIDs(&e.Buffer, ids)
	return e.payload()
}

func decodeEpochPlanRequest(d *reader) (epoch uint32, ids []dataset.SampleID, err error) {
	epoch = d.u32()
	ids, err = decodeGetBatchRequest(d)
	return epoch, ids, err
}

// encodePlanPreplaceRequest: the id-list layout again (decoded with
// decodeGetBatchRequest).
func encodePlanPreplaceRequest(ids []dataset.SampleID) []byte {
	e := newRequest(opPlanPreplace)
	appendIDs(&e.Buffer, ids)
	return e.payload()
}

// Sample is one delivered sample on the wire: the ID actually served (which
// may differ from the requested ID under substitution) and its payload.
type Sample struct {
	ID      dataset.SampleID
	Payload []byte
}

func decodeGetBatchResponse(d *reader) ([]Sample, error) {
	return decodeGetBatchResponseInto(d, nil)
}

// decodeGetBatchResponseInto appends the decoded samples to dst (reusing
// its capacity) — the borrowed-read client path passes a pooled scratch
// slice so a response decode allocates nothing. Payloads alias the frame.
func decodeGetBatchResponseInto(d *reader, dst []Sample) ([]Sample, error) {
	n := int(d.u32())
	if dst == nil {
		dst = make([]Sample, 0, n)
	}
	for i := 0; i < n; i++ {
		id := dataset.SampleID(d.i64())
		payload := d.bytes()
		if d.err() != nil {
			return nil, d.err()
		}
		dst = append(dst, Sample{ID: id, Payload: payload})
	}
	return dst, d.err()
}

func encodeUpdateImportanceRequest(items []sampling.Item) []byte {
	e := newRequest(opUpdateImportance)
	e.u32(uint32(len(items)))
	for _, it := range items {
		e.i64(int64(it.ID))
		e.f64(it.IV)
	}
	return e.payload()
}

func decodeUpdateImportanceRequest(d *reader) ([]sampling.Item, error) {
	n := int(d.u32())
	if n < 0 || n > 1<<24 {
		return nil, fmt.Errorf("rpc: unreasonable H-list size %d", n)
	}
	items := make([]sampling.Item, 0, n)
	for i := 0; i < n; i++ {
		items = append(items, sampling.Item{ID: dataset.SampleID(d.i64()), IV: d.f64()})
	}
	return items, d.err()
}

// Stats is the server-side counter snapshot exposed over the wire.
type Stats struct {
	Hits          int64
	Misses        int64
	Substitutions int64
	HCacheLen     int64
	LCacheLen     int64
	Packages      int64
	// DemandFetches counts backend reads issued on the demand path (cold
	// misses).
	DemandFetches int64
}

func encodeStatsResponseInto(e *buffer, s Stats) {
	e.u8(statusOK)
	e.i64(s.Hits)
	e.i64(s.Misses)
	e.i64(s.Substitutions)
	e.i64(s.HCacheLen)
	e.i64(s.LCacheLen)
	e.i64(s.Packages)
	e.i64(s.DemandFetches)
}

func decodeStatsResponse(d *reader) (Stats, error) {
	s := Stats{
		Hits:          d.i64(),
		Misses:        d.i64(),
		Substitutions: d.i64(),
		HCacheLen:     d.i64(),
		LCacheLen:     d.i64(),
		Packages:      d.i64(),
		DemandFetches: d.i64(),
	}
	return s, d.err()
}

func encodeErrorResponseInto(e *buffer, msg string) {
	e.u8(statusErr)
	e.str(msg)
}

// encodeRetryAfterResponseInto writes the admission gate's shed rejection.
func encodeRetryAfterResponseInto(e *buffer, after time.Duration) {
	e.u8(statusRetryAfter)
	e.i64(int64(after))
}

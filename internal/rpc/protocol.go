// Package rpc implements the client/server wire protocol between the
// deep-learning framework and the iCache server. The paper uses gRPC; this
// reproduction uses an equivalent length-prefixed binary protocol over TCP
// built only on the standard library, with the same two interfaces the
// paper names — fetching batches (rpc_loader) and pushing importance values
// (update_ipersample) — plus epoch-boundary and stats calls.
//
// Requests and responses ride the shared transport (internal/transport):
// one fixed request header carrying the opcode, request ID, trace context
// and deadline budget, and responses echoing the request ID in front of
// the status byte. This file holds the cache service's opcodes and bodies.
// All integers are big-endian; floats are IEEE-754 bits.
package rpc

import (
	"fmt"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/sampling"
	"icache/internal/transport"
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

// Response status codes (transport.Status*).
const (
	statusOK         = transport.StatusOK
	statusErr        = transport.StatusErr
	statusRetryAfter = transport.StatusRetryAfter
	statusExpired    = transport.StatusExpired
)

// newRequest starts an untraced, unbounded request; callers append the body.
func newRequest(op byte) *wire.Buffer {
	e := &wire.Buffer{}
	transport.AppendHeader(e, op, obs.TraceCtx{}, 0)
	return e
}

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
	appendIDs(e, ids)
	return e.B
}

func decodeGetBatchRequest(d *wire.Reader) ([]dataset.SampleID, error) {
	return decodeGetBatchRequestInto(d, nil)
}

// decodeGetBatchRequestInto appends the decoded ids to dst (reusing its
// capacity) — the vectored serving path passes a pooled scratch slice so a
// request decode allocates nothing.
func decodeGetBatchRequestInto(d *wire.Reader, dst []dataset.SampleID) ([]dataset.SampleID, error) {
	n := int(d.U32())
	if n < 0 || n > 1<<20 {
		return nil, fmt.Errorf("rpc: unreasonable batch size %d", n)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, dataset.SampleID(d.I64()))
	}
	return dst, d.Err
}

// encodePeerGetBatchRequest encodes an opPeerGetBatch request carrying the
// originating request's trace context (addressed to the peer) and budget.
func encodePeerGetBatchRequest(ids []dataset.SampleID, tc obs.TraceCtx, budget time.Duration) []byte {
	var e wire.Buffer
	transport.AppendHeader(&e, opPeerGetBatch, tc, budget)
	appendIDs(&e, ids)
	return e.B
}

// decodePeerGetBatchResponse decodes the per-id results of an
// opPeerGetBatch response, aligned with the n ids the caller sent: out[i]
// is the payload when the peer had ids[i] resident, nil when it did not.
func decodePeerGetBatchResponse(d *wire.Reader, want int) ([][]byte, error) {
	n := int(d.U32())
	if err := d.Err; err != nil {
		return nil, err
	}
	if n != want {
		return nil, fmt.Errorf("rpc: peer batch length mismatch: sent %d, got %d", want, n)
	}
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		if d.U8() == 1 {
			out[i] = d.BytesField()
		}
		if err := d.Err; err != nil {
			return nil, err
		}
	}
	return out, d.Err
}

// encodeEpochPlanRequest/decode pair: the epoch number plus the epoch's
// access sequence in first-access order. The sequence reuses opGetBatch's
// id-list layout and size guard (an IIS schedule is at most one pass over
// the dataset, well under the guard for every spec this repo ships).
func encodeEpochPlanRequest(epoch int, ids []dataset.SampleID) []byte {
	e := newRequest(opEpochPlan)
	e.U32(uint32(epoch))
	appendIDs(e, ids)
	return e.B
}

func decodeEpochPlanRequest(d *wire.Reader) (epoch uint32, ids []dataset.SampleID, err error) {
	epoch = d.U32()
	ids, err = decodeGetBatchRequest(d)
	return epoch, ids, err
}

// encodePlanPreplaceRequest: the id-list layout again (decoded with
// decodeGetBatchRequest).
func encodePlanPreplaceRequest(ids []dataset.SampleID) []byte {
	e := newRequest(opPlanPreplace)
	appendIDs(e, ids)
	return e.B
}

// Sample is one delivered sample on the wire: the ID actually served (which
// may differ from the requested ID under substitution) and its payload.
type Sample struct {
	ID      dataset.SampleID
	Payload []byte
}

func decodeGetBatchResponse(d *wire.Reader) ([]Sample, error) {
	return decodeGetBatchResponseInto(d, nil)
}

// decodeGetBatchResponseInto appends the decoded samples to dst (reusing
// its capacity) — the borrowed-read client path passes a pooled scratch
// slice so a response decode allocates nothing. Payloads alias the frame.
func decodeGetBatchResponseInto(d *wire.Reader, dst []Sample) ([]Sample, error) {
	n := int(d.U32())
	if dst == nil {
		dst = make([]Sample, 0, n)
	}
	for i := 0; i < n; i++ {
		id := dataset.SampleID(d.I64())
		payload := d.BytesField()
		if d.Err != nil {
			return nil, d.Err
		}
		dst = append(dst, Sample{ID: id, Payload: payload})
	}
	return dst, d.Err
}

func encodeUpdateImportanceRequest(items []sampling.Item) []byte {
	e := newRequest(opUpdateImportance)
	e.U32(uint32(len(items)))
	for _, it := range items {
		e.I64(int64(it.ID))
		e.F64(it.IV)
	}
	return e.B
}

func decodeUpdateImportanceRequest(d *wire.Reader) ([]sampling.Item, error) {
	n := int(d.U32())
	if n < 0 || n > 1<<24 {
		return nil, fmt.Errorf("rpc: unreasonable H-list size %d", n)
	}
	items := make([]sampling.Item, 0, n)
	for i := 0; i < n; i++ {
		items = append(items, sampling.Item{ID: dataset.SampleID(d.I64()), IV: d.F64()})
	}
	return items, d.Err
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

func encodeStatsResponseInto(e *wire.Buffer, s Stats) {
	e.U8(statusOK)
	e.I64(s.Hits)
	e.I64(s.Misses)
	e.I64(s.Substitutions)
	e.I64(s.HCacheLen)
	e.I64(s.LCacheLen)
	e.I64(s.Packages)
	e.I64(s.DemandFetches)
}

func decodeStatsResponse(d *wire.Reader) (Stats, error) {
	s := Stats{
		Hits:          d.I64(),
		Misses:        d.I64(),
		Substitutions: d.I64(),
		HCacheLen:     d.I64(),
		LCacheLen:     d.I64(),
		Packages:      d.I64(),
		DemandFetches: d.I64(),
	}
	return s, d.Err
}

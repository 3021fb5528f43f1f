// Package transport is the one wire transport under the cache service
// (internal/rpc) and the directory service (internal/dkv): the fixed request
// header, the multiplexed client session with its retry, deadline and
// circuit-breaker discipline, and the server's accept loop and per-request
// dispatch. The two services differ only in their opcodes and bodies.
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
// negative budget is rejected. All integers are big-endian.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"icache/internal/obs"
	"icache/internal/wire"
)

// HeaderLen is the fixed request header: op, request ID, trace ID, hop and
// deadline budget.
const HeaderLen = 1 + 4 + 8 + 1 + 8

// RespHeaderLen is the response prefix in front of the status byte: the
// echoed request ID.
const RespHeaderLen = 4

// Response status codes, shared by every service on the transport.
const (
	StatusOK  = 0
	StatusErr = 1 // body: str message
	// StatusRetryAfter is the admission gate's shed rejection: the body is
	// i64 backoff-hint nanoseconds. The request was not served.
	StatusRetryAfter = 2
	// StatusExpired reports that the request's deadline budget ran out
	// before the server started (or finished) the work; the body is empty.
	StatusExpired = 3
)

// AppendHeader starts a request in e. The request ID is left 0: the
// client stamps it per attempt. An invalid trace context is sent as the
// untraced (0, 0).
func AppendHeader(e *wire.Buffer, op byte, tc obs.TraceCtx, budget time.Duration) {
	if !tc.Valid() {
		tc = obs.TraceCtx{}
	}
	e.U8(op)
	e.U32(0)
	e.I64(int64(tc.ID))
	e.U8(tc.Hop)
	e.I64(int64(budget))
}

// stampID writes id into an encoded request's header.
func stampID(req []byte, id uint32) { binary.BigEndian.PutUint32(req[1:5], id) }

// Budget converts an absolute deadline into the budget a request carries:
// 0 for no deadline, and at least 1ns otherwise — an already spent budget
// is still sent, so the server answers StatusExpired rather than the
// caller silently dropping the call.
func Budget(deadline time.Time) time.Duration {
	if deadline.IsZero() {
		return 0
	}
	if b := time.Until(deadline); b > 0 {
		return b
	}
	return 1
}

// Header is a decoded request header.
type Header struct {
	Op       byte
	ID       uint32
	Trace    obs.TraceCtx
	Deadline time.Time // zero: no deadline

	// admitted records that the request holds an admission-gate slot,
	// released by Conn.Done.
	admitted bool
}

// ErrShortHeader rejects a frame too short to hold the request header. Its
// request ID cannot be trusted, so the server closes the connection rather
// than answer.
var ErrShortHeader = errors.New("transport: request frame shorter than its header")

// DecodeHeader splits a request frame into its header and body. The budget
// is anchored at now. Any error but ErrShortHeader comes with a valid h.ID,
// so it can be answered in-band.
func DecodeHeader(req []byte, now time.Time) (h Header, body []byte, err error) {
	if len(req) < HeaderLen {
		return h, nil, ErrShortHeader
	}
	d := wire.NewReader(req)
	h.Op = d.U8()
	h.ID = d.U32()
	h.Trace = obs.TraceCtx{ID: uint64(d.I64()), Hop: d.U8()}
	budget := d.I64()
	if budget < 0 {
		return h, nil, fmt.Errorf("transport: negative deadline budget %d", budget)
	}
	if h.Trace.ID == 0 && h.Trace.Hop != 0 {
		return h, nil, fmt.Errorf("transport: hop %d without a trace id", h.Trace.Hop)
	}
	if budget > 0 {
		h.Deadline = now.Add(time.Duration(budget))
	}
	return h, req[HeaderLen:], nil
}

// AppendError writes a StatusErr answer carrying msg.
func AppendError(e *wire.Buffer, msg string) {
	e.U8(StatusErr)
	e.Str(msg)
}

// AppendRetryAfter writes the admission gate's shed rejection.
func AppendRetryAfter(e *wire.Buffer, after time.Duration) {
	e.U8(StatusRetryAfter)
	e.I64(int64(after))
}

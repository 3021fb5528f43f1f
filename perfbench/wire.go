package main

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// loopbackSamplesPerSec is the same-run speed-of-light reference for the
// serving path: raw loopback TCP moving hotset-serve's response shape with
// no cache behind it. Each of conns connections runs a closed loop of one
// request (a length-prefixed list of batch sample IDs, as a GetBatch
// carries) answered by one vectored write of a length prefix plus, per
// sample, a 12-byte header and its payload. It returns samples moved per
// second over d.
func loopbackSamplesPerSec(conns, batch, sampleBytes int, d time.Duration) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	payload := make([]byte, sampleBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	reqLen := 4 + 8*batch
	respLen := 4 + batch*(12+sampleBytes)

	var servers sync.WaitGroup
	servers.Add(1)
	go func() {
		defer servers.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			servers.Add(1)
			go func() {
				defer servers.Done()
				defer c.Close()
				echoLoop(c, reqLen, respLen, batch, payload)
			}()
		}
	}()

	var (
		clients sync.WaitGroup
		mu      sync.Mutex
		total   int64
		firstEr error
	)
	deadline := time.Now().Add(d)
	start := time.Now()
	for k := 0; k < conns; k++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			ln.Close()
			servers.Wait()
			return 0, err
		}
		clients.Add(1)
		go func(c net.Conn) {
			defer clients.Done()
			defer c.Close()
			req := make([]byte, reqLen)
			binary.LittleEndian.PutUint32(req, uint32(reqLen-4))
			resp := make([]byte, respLen)
			var n int64
			var err error
			for time.Now().Before(deadline) {
				if _, err = c.Write(req); err != nil {
					break
				}
				if _, err = io.ReadFull(c, resp); err != nil {
					break
				}
				n += int64(batch)
			}
			mu.Lock()
			total += n
			if err != nil && firstEr == nil {
				firstEr = err
			}
			mu.Unlock()
		}(c)
	}
	clients.Wait()
	elapsed := time.Since(start)
	ln.Close()
	servers.Wait()
	if firstEr != nil {
		return 0, firstEr
	}
	if total == 0 {
		return 0, errors.New("loopback reference moved no samples")
	}
	return float64(total) / elapsed.Seconds(), nil
}

// echoLoop answers each request on c with one vectored response until the
// client hangs up.
func echoLoop(c net.Conn, reqLen, respLen, batch int, payload []byte) {
	req := make([]byte, reqLen)
	head := make([]byte, 4)
	binary.LittleEndian.PutUint32(head, uint32(respLen-4))
	hdrs := make([]byte, 12*batch)
	bufs := make(net.Buffers, 0, 1+2*batch)
	for {
		if _, err := io.ReadFull(c, req); err != nil {
			return
		}
		bufs = append(bufs[:0], head)
		for i := 0; i < batch; i++ {
			h := hdrs[12*i : 12*i+12]
			copy(h[:8], req[4+8*i:12+8*i])
			binary.LittleEndian.PutUint32(h[8:], uint32(len(payload)))
			bufs = append(bufs, h, payload)
		}
		wb := bufs
		if _, err := wb.WriteTo(c); err != nil {
			return
		}
	}
}

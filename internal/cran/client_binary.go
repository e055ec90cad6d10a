package cran

// The client side of the wirev2 binary protocol: one multiplexed connection
// shared by every concurrent Offload call. Each call registers a waiter
// under a fresh 64-bit request ID, writes one framed request, and blocks on
// its private channel; a single demultiplexing goroutine reads response
// frames and routes each to its waiter by ID. Offload's retry, backoff,
// circuit breaker, and graceful-degradation loop (client.go) runs over this
// exchange exactly as over the JSON one — only the transport discipline
// differs.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/tsajs/tsajs/internal/obs"
)

// maxClientFrame bounds a response frame accepted by the demultiplexer.
// Coordinator responses are tiny except health payloads (an embedded stats
// snapshot), so 1 MiB — the server's default request bound — is generous.
const maxClientFrame = 1 << 20

// muxResult is one routed response (or the transport error that killed the
// connection).
type muxResult struct {
	resp OffloadResponse
	err  error
}

// clientMux is one multiplexed binary connection: a serialized frame
// writer, a demux goroutine, and the waiter table keyed by request ID.
type clientMux struct {
	conn net.Conn

	wmu  sync.Mutex // serializes frame writes; guards wbuf
	wbuf []byte

	mu      sync.Mutex // guards waiters and err
	waiters map[uint64]chan muxResult
	err     error // non-nil once the mux is dead; no new waiters
}

func newClientMux(conn net.Conn) *clientMux {
	return &clientMux{conn: conn, waiters: make(map[uint64]chan muxResult)}
}

// register installs a waiter for id. It fails when the mux is already dead
// so callers redial instead of waiting on a connection that reads nothing.
func (m *clientMux) register(id uint64, ch chan muxResult) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	m.waiters[id] = ch
	return nil
}

// deregister abandons a waiter (context expiry, write failure). The
// connection stays up: one slow or cancelled call must not sever every
// other call multiplexed on it. A response arriving for a deregistered ID
// is dropped by the demux loop.
func (m *clientMux) deregister(id uint64) {
	m.mu.Lock()
	delete(m.waiters, id)
	m.mu.Unlock()
}

// close kills the mux: the connection is closed and every waiter — present
// and future — fails with err. Idempotent.
func (m *clientMux) close(err error) {
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return
	}
	m.err = err
	waiters := m.waiters
	m.waiters = nil
	m.mu.Unlock()
	_ = m.conn.Close()
	for _, ch := range waiters {
		ch <- muxResult{err: err} // buffered; at most one send per waiter
	}
}

// alive reports whether the mux can still carry requests.
func (m *clientMux) alive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err == nil
}

// writeRequest frames and writes one request under the write lock. The
// write deadline comes from the call context: a timed-out write leaves the
// stream mid-frame, so its caller must close the mux.
func (m *clientMux) writeRequest(ctx context.Context, id uint64, req *OffloadRequest) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	deadline, _ := ctx.Deadline()
	if err := m.conn.SetWriteDeadline(deadline); err != nil {
		return err
	}
	m.wbuf = appendRequestFrame(m.wbuf[:0], id, req)
	_, err := m.conn.Write(m.wbuf)
	return err
}

// demux is the connection's read loop: it routes each response frame to
// the waiter registered under its request ID. Any transport or framing
// error is terminal — frame boundaries are gone, so the mux dies and every
// in-flight call fails over to its retry loop.
func (m *clientMux) demux() {
	br := bufio.NewReaderSize(m.conn, 64*1024)
	var hdr [4]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			m.close(fmt.Errorf("cran: receive: %w", err))
			return
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		if n > maxClientFrame {
			m.close(fmt.Errorf("cran: receive: %w (%d bytes)", ErrFrameTooLarge, n))
			return
		}
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		if _, err := io.ReadFull(br, buf[:n]); err != nil {
			m.close(fmt.Errorf("cran: receive: %w", err))
			return
		}
		frameType, id, body, err := decodeFramePayload(buf[:n])
		if err != nil {
			m.close(fmt.Errorf("cran: decode response: %w", err))
			return
		}
		if frameType != frameOffloadResp && frameType != frameHealthResp {
			m.close(fmt.Errorf("cran: decode response: %w: unexpected request frame 0x%02x", ErrMalformedFrame, frameType))
			return
		}
		var resp OffloadResponse
		if err := decodeResponseBody(frameType, body, &resp); err != nil {
			m.close(fmt.Errorf("cran: decode response: %w", err))
			return
		}
		m.mu.Lock()
		ch := m.waiters[id]
		delete(m.waiters, id)
		m.mu.Unlock()
		if ch != nil {
			ch <- muxResult{resp: resp} // buffered; sole send for this id
		}
	}
}

// ensureMux returns the live mux, dialing and handshaking a fresh
// connection when none is up. Redials are serialized so a burst of
// concurrent calls after a failure produces one connection, not one each.
func (c *Client) ensureMux(ctx context.Context) (*clientMux, error) {
	c.connMu.Lock()
	m := c.mux
	c.connMu.Unlock()
	if m != nil && m.alive() {
		return m, nil
	}
	c.muxDialMu.Lock()
	defer c.muxDialMu.Unlock()
	c.connMu.Lock()
	m = c.mux
	c.connMu.Unlock()
	if m != nil && m.alive() {
		return m, nil // another call redialed while we waited
	}
	conn, err := c.dialConn(ctx)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(appendHandshake(make([]byte, 0, handshakeLen))); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("cran: handshake: %w", err)
	}
	m = newClientMux(conn)
	c.connMu.Lock()
	if c.isClosed() {
		c.connMu.Unlock()
		_ = conn.Close()
		return nil, ErrClientClosed
	}
	c.conn = conn
	c.mux = m
	c.connMu.Unlock()
	go m.demux()
	c.countMetric(func(m *obs.ClientMetrics) { m.Dials.Inc() })
	return m, nil
}

// dropMux discards m if it is still the client's current mux, so the next
// attempt redials. Concurrent calls may race here after a shared transport
// failure; only the first drop closes it.
func (c *Client) dropMux(m *clientMux) {
	m.close(errors.New("cran: connection dropped after transport failure"))
	c.connMu.Lock()
	if c.mux == m {
		c.mux = nil
		c.conn = nil
	}
	c.connMu.Unlock()
}

// exchangeMux performs one multiplexed request/response round: register a
// waiter, write the frame, block until the demux loop routes the response
// or the context expires. A context expiry abandons only this call's
// waiter — the shared connection keeps serving other calls.
func (c *Client) exchangeMux(ctx context.Context, req *OffloadRequest) (OffloadResponse, error) {
	m, err := c.ensureMux(ctx)
	if err != nil {
		return OffloadResponse{}, err
	}
	id := c.nextID.Add(1)
	ch := make(chan muxResult, 1)
	if err := m.register(id, ch); err != nil {
		return OffloadResponse{}, fmt.Errorf("cran: send: %w", err)
	}
	if err := m.writeRequest(ctx, id, req); err != nil {
		m.deregister(id)
		c.dropMux(m) // a partial frame poisons the stream for every call
		if ctx.Err() != nil {
			return OffloadResponse{}, fmt.Errorf("cran: %w", ctx.Err())
		}
		return OffloadResponse{}, fmt.Errorf("cran: send: %w", err)
	}
	select {
	case r := <-ch:
		if r.err != nil {
			return OffloadResponse{}, r.err
		}
		return r.resp, nil
	case <-ctx.Done():
		m.deregister(id)
		return OffloadResponse{}, fmt.Errorf("cran: %w", ctx.Err())
	case <-c.closedCh:
		m.deregister(id)
		return OffloadResponse{}, ErrClientClosed
	}
}

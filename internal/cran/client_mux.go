package cran

// The client side of both codecs: one connection shared by every Offload
// call. Each call registers a waiter under a request ID, writes its request,
// and blocks on its private channel; a single demultiplexing goroutine reads
// answers and routes each to its waiter by ID. Binary answers carry the ID
// in the frame header. JSON answers carry none, so the demux numbers them in
// arrival order: the server answers a JSON connection's requests in order,
// and IDs are assigned under the write lock, so the n-th answer belongs to
// the n-th request written. Offload's retry, backoff, circuit breaker, and
// graceful-degradation loop (client.go) runs over this exchange for either
// codec.

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
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

// clientMux is one client connection in either codec: a serialized request
// writer, a demux goroutine, and the waiter table keyed by request ID.
type clientMux struct {
	conn   net.Conn
	binary bool

	wmu    sync.Mutex // serializes request writes; guards wbuf and nextID
	wbuf   frameBuf
	nextID uint64

	mu      sync.Mutex // guards waiters and err
	waiters map[uint64]chan muxResult
	err     error // non-nil once the mux is dead; no new waiters
}

func newClientMux(conn net.Conn, binaryCodec bool) *clientMux {
	return &clientMux{conn: conn, binary: binaryCodec, waiters: make(map[uint64]chan muxResult)}
}

// deregister abandons a waiter whose context expired. A response arriving
// for a deregistered ID is dropped by the demux loop.
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

// cause returns the error the mux died of, nil while it can still carry
// requests.
func (m *clientMux) cause() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// send assigns the next request ID, registers ch under it, and writes req
// in the mux's codec, all under the write lock, so IDs follow wire order.
// It fails when the mux is already dead, so callers redial instead of
// waiting on a connection that reads nothing. The write deadline comes from
// the call context. A failed write may leave the stream mid-message, so its
// caller must close the mux, which also fails the waiter registered here.
func (m *clientMux) send(ctx context.Context, req *OffloadRequest, ch chan muxResult) (uint64, error) {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	m.nextID++
	id := m.nextID
	m.mu.Lock()
	err := m.err
	if err == nil {
		m.waiters[id] = ch
	}
	m.mu.Unlock()
	if err != nil {
		return id, err
	}
	deadline, _ := ctx.Deadline()
	err = m.conn.SetWriteDeadline(deadline)
	if err == nil {
		if m.binary {
			m.wbuf.b = appendRequestFrame(m.wbuf.b[:0], id, req)
		} else {
			err = m.wbuf.encodeLine(*req)
		}
	}
	if err == nil {
		_, err = m.conn.Write(m.wbuf.b)
	}
	return id, err
}

// demux is the connection's read loop: it routes each answer to the waiter
// registered under its request ID. Any transport or decoding error is
// terminal — message boundaries are gone, so the mux dies and every
// in-flight call fails over to its retry loop. So is an answer no call
// owns where it cannot be a late one: binary request ID 0 is the server's
// answer to the whole connection (a capacity refusal, a handshake or
// framing error), and an unclaimed JSON line breaks the arrival numbering.
func (m *clientMux) demux() {
	br := bufio.NewReaderSize(m.conn, 64*1024)
	var buf []byte
	var seq uint64
	for {
		var resp OffloadResponse
		var id uint64
		var err error
		if m.binary {
			id, buf, err = recvFrame(br, buf, &resp)
		} else {
			seq++
			id = seq
			resp, err = recvLine(br)
		}
		if err != nil {
			m.close(err)
			return
		}
		m.mu.Lock()
		ch := m.waiters[id]
		delete(m.waiters, id)
		m.mu.Unlock()
		if ch != nil {
			ch <- muxResult{resp: resp} // buffered; sole send for this id
			continue
		}
		if id == 0 || !m.binary {
			if err = resp.Err(); err == nil {
				err = errors.New("cran: receive: answer to no request")
			}
			m.close(err)
			return
		}
	}
}

// recvFrame reads one wirev2 response frame into resp, returning its
// request ID and the (possibly grown) read buffer.
func recvFrame(br *bufio.Reader, buf []byte, resp *OffloadResponse) (uint64, []byte, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		return 0, buf, fmt.Errorf("cran: receive: %w", err)
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > maxClientFrame {
		return 0, buf, fmt.Errorf("cran: receive: %w (%d bytes)", ErrFrameTooLarge, n)
	}
	_, _ = br.Discard(4)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(br, buf[:n]); err != nil {
		return 0, buf, fmt.Errorf("cran: receive: %w", err)
	}
	frameType, id, body, err := decodeFramePayload(buf[:n])
	if err == nil && frameType != frameOffloadResp && frameType != frameHealthResp {
		err = fmt.Errorf("%w: unexpected request frame 0x%02x", ErrMalformedFrame, frameType)
	}
	if err == nil {
		err = decodeResponseBody(frameType, body, resp)
	}
	if err != nil {
		return 0, buf, fmt.Errorf("cran: decode response: %w", err)
	}
	return id, buf, nil
}

// recvLine reads one JSON response line. It returns the response by value,
// so the binary path's response never escapes through json.Unmarshal.
func recvLine(br *bufio.Reader) (resp OffloadResponse, err error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		return resp, fmt.Errorf("cran: receive: %w", err)
	}
	if err := json.Unmarshal(line, &resp); err != nil {
		return resp, fmt.Errorf("cran: decode response: %w", err)
	}
	return resp, nil
}

// ensureMux returns the live mux, dialing a fresh connection (and, for the
// binary codec, writing its handshake) when none is up. Redials are
// serialized so a burst of concurrent calls after a failure produces one
// connection, not one each.
func (c *Client) ensureMux(ctx context.Context) (*clientMux, error) {
	if m := c.liveMux(); m != nil {
		return m, nil
	}
	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	if m := c.liveMux(); m != nil {
		return m, nil // another call redialed while we waited
	}
	conn, err := c.dialConn(ctx)
	if err != nil {
		return nil, err
	}
	if c.binary() {
		if _, err := conn.Write(appendHandshake(make([]byte, 0, handshakeLen))); err != nil {
			_ = conn.Close()
			return nil, fmt.Errorf("cran: handshake: %w", err)
		}
	}
	m := newClientMux(conn, c.binary())
	c.connMu.Lock()
	if c.isClosed() {
		c.connMu.Unlock()
		_ = conn.Close()
		return nil, ErrClientClosed
	}
	c.mux = m
	c.connMu.Unlock()
	go m.demux()
	c.countMetric(func(m *obs.ClientMetrics) { m.Dials.Inc() })
	return m, nil
}

// liveMux returns the client's mux if it can still carry requests.
func (c *Client) liveMux() *clientMux {
	c.connMu.Lock()
	m := c.mux
	c.connMu.Unlock()
	if m != nil && m.cause() == nil {
		return m
	}
	return nil
}

// errConnDropped is the cause of a mux the client itself dropped.
var errConnDropped = errors.New("cran: connection dropped after transport failure")

// dropMux discards m if it is still the client's current mux, so the next
// attempt redials. Concurrent calls may race here after a shared transport
// failure; only the first drop closes it.
func (c *Client) dropMux(m *clientMux) {
	m.close(errConnDropped)
	c.connMu.Lock()
	if c.mux == m {
		c.mux = nil
	}
	c.connMu.Unlock()
}

// exchange performs one request/response round over the client's
// connection. A JSON exchange first takes the client's one turn: the server
// reads a JSON connection serially, so a second request would only queue
// behind the first. Close fails the wait through the mux with
// ErrClientClosed. A context expiry abandons only this call's waiter on a
// binary connection, which keeps serving other calls; on a JSON connection
// it drops the connection, since a later request would otherwise queue
// behind the abandoned one.
func (c *Client) exchange(ctx context.Context, req *OffloadRequest) (OffloadResponse, error) {
	if c.turn != nil {
		select {
		case c.turn <- struct{}{}:
			defer func() { <-c.turn }()
		case <-ctx.Done():
			return OffloadResponse{}, fmt.Errorf("cran: %w", ctx.Err())
		case <-c.closedCh:
			return OffloadResponse{}, ErrClientClosed
		}
	}
	m, err := c.ensureMux(ctx)
	if err != nil {
		return OffloadResponse{}, err
	}
	ch := make(chan muxResult, 1)
	id, err := m.send(ctx, req, ch)
	if err != nil {
		c.dropMux(m) // a partial write poisons the stream for every call
		if ctx.Err() != nil {
			return OffloadResponse{}, fmt.Errorf("cran: %w", ctx.Err())
		}
		// The write also fails when the demux has just closed the
		// connection on the server's answer to all of it, such as a
		// capacity refusal: report that answer, as the waiter would.
		if cause := m.cause(); cause != errConnDropped {
			return OffloadResponse{}, cause
		}
		return OffloadResponse{}, fmt.Errorf("cran: send: %w", err)
	}
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-ctx.Done():
		if m.binary {
			m.deregister(id)
		} else {
			c.dropMux(m)
		}
		return OffloadResponse{}, fmt.Errorf("cran: %w", ctx.Err())
	}
}

package cran

// The connection layer, shared by both wire codecs. serveConn negotiates a
// connection's codec from its first bytes; the two readers differ only in
// framing (newline-delimited JSON lines, or the wirev2 handshake and
// length-prefixed frames) and hand every decoded request to one dispatch.
// Every answer goes out through the connection's connWriter, which encodes
// it in the negotiated codec and writes it from a dedicated goroutine. See
// wirev2.go for the binary codec and DESIGN.md §13 for the specification.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// replySink receives the answer to one dispatched request under the request
// ID it arrived with. The answer travels by value: a pointer would escape
// through the interface call and cost one allocation per answer.
type replySink interface {
	send(id uint64, resp OffloadResponse)
}

// framePool recycles encoded-answer buffers between the encoders (solver
// workers, the readers' immediate rejections) and the connection writers
// that hand them to the kernel.
var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

// frameBuf holds one encoded message: a wirev2 frame or a JSON line. It is
// the io.Writer of its own JSON encoder, built on first use, so a pooled
// buffer encodes lines without a fresh encoder per message.
type frameBuf struct {
	b   []byte
	enc *json.Encoder
}

func (f *frameBuf) Write(p []byte) (int, error) {
	f.b = append(f.b, p...)
	return len(p), nil
}

// encodeLine replaces f's contents with v as one JSON line, byte-identical
// to json.Encoder.Encode.
func (f *frameBuf) encodeLine(v any) error {
	if f.enc == nil {
		f.enc = json.NewEncoder(f)
	}
	f.b = f.b[:0]
	return f.enc.Encode(v)
}

// encodeAnswer replaces f's contents with resp in the given codec. Only a
// JSON line can fail to encode (a NaN or infinite float).
func (f *frameBuf) encodeAnswer(binaryCodec bool, id uint64, resp *OffloadResponse) error {
	if binaryCodec {
		f.b = appendResponseFrame(f.b[:0], id, resp)
		return nil
	}
	return f.encodeLine(*resp)
}

// connWriterQueue bounds the encoded answers queued per connection. A client
// that stops reading fills its queue and is disconnected (slow-consumer
// protection) rather than blocking a solver worker on its socket.
const connWriterQueue = 256

// connWriter serializes answers onto one connection in its codec. Answers
// are enqueued (never blocking the caller) and written by a dedicated
// goroutine, so solver workers finish their epochs at memory speed however
// slow the client's socket drains.
type connWriter struct {
	srv    *Server
	conn   net.Conn
	binary bool
	// turn, on a JSON connection, receives a token each time an answer is
	// queued: the reader waits for it before reading the next line, so a
	// JSON connection has one request in flight and answers in order.
	turn chan struct{}
	ch   chan *frameBuf
	dead chan struct{} // closed: stop accepting answers, drain, exit
	done chan struct{} // closed when the writer goroutine has exited
	once sync.Once
}

// startWriter starts conn's writer goroutine, tracked in s.wg.
func (s *Server) startWriter(conn net.Conn, binaryCodec bool) *connWriter {
	w := &connWriter{
		srv:    s,
		conn:   conn,
		binary: binaryCodec,
		ch:     make(chan *frameBuf, connWriterQueue),
		dead:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if !binaryCodec {
		w.turn = make(chan struct{}, 1)
	}
	s.wg.Add(1)
	go w.loop()
	return w
}

// kill stops the writer: queued answers are still flushed, later sends are
// dropped. Idempotent and safe from any goroutine.
func (w *connWriter) kill() { w.once.Do(func() { close(w.dead) }) }

// send encodes resp under the given request ID and enqueues it. An answer
// that cannot be encoded or queued (the queue is full) kills the
// connection: a client that cannot drain its answers must not pin solver
// workers or unbounded memory.
func (w *connWriter) send(id uint64, resp OffloadResponse) {
	f := framePool.Get().(*frameBuf)
	if err := f.encodeAnswer(w.binary, id, &resp); err != nil {
		w.abort(f)
	} else {
		select {
		case w.ch <- f:
		case <-w.dead:
			framePool.Put(f)
		default:
			w.abort(f)
		}
	}
	if w.turn != nil {
		// A JSON connection has at most one answer outstanding, so the
		// token slot is free; never block a solver worker on it regardless.
		select {
		case w.turn <- struct{}{}:
		default:
		}
	}
}

// abort drops an answer that cannot go out and closes the connection.
func (w *connWriter) abort(f *frameBuf) {
	framePool.Put(f)
	w.kill()
	_ = w.conn.Close()
}

// loop drains the answer queue onto the connection until killed, then
// flushes whatever is already queued (the connection may be gone by then —
// those writes fail fast) and exits.
func (w *connWriter) loop() {
	defer close(w.done)
	defer w.srv.wg.Done()
	for {
		select {
		case f := <-w.ch:
			if !w.write(f) {
				return
			}
		case <-w.dead:
			for {
				select {
				case f := <-w.ch:
					if !w.write(f) {
						return
					}
				default:
					return
				}
			}
		case <-w.srv.quit:
			w.kill()
		}
	}
}

// write puts one answer on the wire and recycles its buffer; a write error
// kills the writer.
func (w *connWriter) write(f *frameBuf) bool {
	n, err := w.conn.Write(f.b)
	framePool.Put(f)
	if err != nil {
		w.kill()
		return false
	}
	w.srv.stats.frameWritten(w.binary, n)
	return true
}

// negotiate reads a connection's codec from its first bytes: the wirev2
// handshake prefix selects the binary codec, anything else — including a
// connection that dies or stays silent before three bytes arrive — the
// JSON line codec (a JSON line never starts with the handshake's NUL byte).
// The peeked bytes stay buffered for the reader.
func negotiate(conn net.Conn) (br *bufio.Reader, binaryCodec bool) {
	br = bufio.NewReaderSize(conn, 64*1024)
	prefix, err := br.Peek(len(wireMagic))
	return br, err == nil && bytes.Equal(prefix, wireMagic[:])
}

// serveConn serves one accepted connection in the codec it negotiates. A
// panic while serving one connection is confined to that connection: it is
// recovered, counted, and the connection closed.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			s.stats.panicRecovered()
		}
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		active := len(s.conns)
		s.mu.Unlock()
		s.stats.activeConns.Set(float64(active))
	}()
	if s.cfg.ReadTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	}
	br, binaryCodec := negotiate(conn)
	w := s.startWriter(conn, binaryCodec)
	// The writer outlives the reader just long enough to flush queued
	// answers; the deferred conn.Close above runs after it.
	defer func() {
		w.kill()
		<-w.done
	}()
	if binaryCodec {
		s.serveBinary(br, w)
	} else {
		s.serveJSON(br, w)
	}
}

// refuseWindow bounds each step of refusing a connection over MaxConns:
// showing its codec, then taking the refusal. The refusing goroutine is not
// counted against MaxConns, so it must not linger.
const refuseWindow = 250 * time.Millisecond

// maxRefusals bounds the refusals in flight. Past it, over-cap connections
// are closed unanswered, so a connection flood cannot pile up goroutines.
const maxRefusals = 64

// refuseConn answers a connection over MaxConns in the codec it negotiates —
// a binary client would misread a JSON line as a frame header — and closes
// it. The binary refusal travels under request ID 0, which a client takes
// as the answer to its whole connection.
func (s *Server) refuseConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() { <-s.refusing }()
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(refuseWindow))
	_, binaryCodec := negotiate(conn)
	var f frameBuf
	resp := OffloadResponse{Version: ProtocolVersion, Error: "coordinator at connection capacity"}
	_ = f.encodeAnswer(binaryCodec, 0, &resp) // no float to fail on
	_ = conn.SetWriteDeadline(time.Now().Add(refuseWindow))
	if n, err := conn.Write(f.b); err == nil {
		s.stats.frameWritten(binaryCodec, n)
	}
}

// serveJSON reads newline-delimited requests, one in flight at a time: after
// dispatching a line it waits for the answer to be queued before reading
// the next, so answers leave in request order.
func (s *Server) serveJSON(br *bufio.Reader, w *connWriter) {
	scanner := bufio.NewScanner(br)
	scanner.Buffer(make([]byte, min(64*1024, s.cfg.MaxLineBytes)), s.cfg.MaxLineBytes)
	for {
		if s.cfg.ReadTimeout > 0 {
			_ = w.conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		if !scanner.Scan() {
			if errors.Is(scanner.Err(), bufio.ErrTooLong) {
				// The scanner lost the line boundary, so answer with the
				// typed limit error and drop the connection.
				s.stats.oversizeRequest()
				w.send(0, OffloadResponse{Version: ProtocolVersion, Error: ErrRequestTooLarge.Error(), Code: CodeTooLarge})
			}
			return
		}
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		s.stats.frameRead(false, len(line)+1)
		s.dispatchLine(line, w)
		select {
		case <-w.turn:
		case <-w.dead:
			return
		}
		if s.isClosed() {
			return
		}
	}
}

// dispatchLine decodes one JSON request line and dispatches it; a line that
// does not decode is answered as malformed.
func (s *Server) dispatchLine(line []byte, sink replySink) {
	var req OffloadRequest
	if err := json.Unmarshal(line, &req); err != nil {
		s.stats.requestRejected()
		sink.send(0, OffloadResponse{Version: ProtocolVersion, Error: "malformed request: " + err.Error()})
		return
	}
	s.dispatch(&req, sink, 0)
}

// serveBinary reads wirev2 frames from one negotiated connection. Request
// frames are dispatched without waiting for their epochs; answers flow back
// through the connection's writer keyed by request ID, so one connection
// holds many in-flight requests and answers complete out of order.
// Malformed frames are answered and the connection kept (length-prefixed
// framing preserves the stream boundary); an oversize or lying length word
// poisons the boundary itself, so those close the connection after a typed
// answer. Closing the connection abandons its in-flight requests: their
// epochs still solve, but the answers are dropped at the writer.
func (s *Server) serveBinary(br *bufio.Reader, w *connWriter) {
	var hs [handshakeLen]byte
	if _, err := io.ReadFull(br, hs[:]); err != nil {
		return
	}
	s.stats.bytesRead.Add(uint64(handshakeLen))
	if v := hs[len(wireMagic)]; v != WireVersion {
		s.stats.requestRejected()
		w.send(0, OffloadResponse{
			Version: ProtocolVersion,
			Error:   fmt.Sprintf("%s: handshake version %d, want %d", ErrUnsupportedVersion.Error(), v, WireVersion),
			Code:    CodeUnsupportedVersion,
		})
		return
	}
	var hdr [4]byte
	var big []byte // spill buffer for frames larger than the read buffer
	for {
		if s.cfg.ReadTimeout > 0 {
			_ = w.conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		if n > s.cfg.MaxLineBytes {
			// The length word itself is untrusted now; answer and close.
			s.stats.oversizeRequest()
			w.send(0, OffloadResponse{
				Version: ProtocolVersion,
				Error:   fmt.Sprintf("%s: frame of %d bytes exceeds %d", ErrFrameTooLarge.Error(), n, s.cfg.MaxLineBytes),
				Code:    CodeTooLarge,
			})
			return
		}
		// Zero-copy fast path: frames that fit the connection's read buffer
		// are decoded in place and discarded; larger ones spill into a
		// reusable buffer. Decoding copies everything that outlives the
		// frame (strings), so the slice never escapes this iteration.
		var payload []byte
		var err error
		if n <= br.Size() {
			if payload, err = br.Peek(n); err != nil {
				return
			}
		} else {
			if cap(big) < n {
				big = make([]byte, n)
			}
			payload = big[:n]
			if _, err = io.ReadFull(br, payload); err != nil {
				return
			}
		}
		s.stats.frameRead(true, 4+n)
		s.dispatchFrame(payload, w)
		if n <= br.Size() {
			if _, err := br.Discard(n); err != nil {
				return
			}
		}
		if s.isClosed() {
			return
		}
	}
}

// dispatchFrame decodes one binary frame payload and dispatches it; a frame
// that does not decode to a request is answered as malformed.
func (s *Server) dispatchFrame(payload []byte, sink replySink) {
	frameType, id, body, err := decodeFramePayload(payload)
	var req OffloadRequest
	switch {
	case err != nil:
	case frameType != frameOffloadReq && frameType != frameHealthReq:
		err = fmt.Errorf("cran: unexpected response frame 0x%02x from client", frameType)
	default:
		if err = decodeRequestBody(frameType, body, &req); err != nil {
			err = fmt.Errorf("malformed request: %w", err)
		}
	}
	if err != nil {
		s.stats.requestRejected()
		sink.send(id, OffloadResponse{Version: ProtocolVersion, Error: err.Error()})
		return
	}
	s.dispatch(&req, sink, id)
}

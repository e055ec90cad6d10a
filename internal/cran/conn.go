package cran

// The connection layer, shared by both wire codecs and by every TCP front
// end (the coordinator's Server and the shard router). A Listener accepts
// connections up to its MaxConns cap; serveConn negotiates each connection's
// codec from its first bytes; the two readers differ only in framing
// (newline-delimited JSON lines, or the wirev2 handshake and length-prefixed
// frames) and hand every decoded request to the Listener's Handler. Every
// answer goes out through the connection's connWriter, which encodes it in
// the negotiated codec and writes it from a dedicated goroutine. See
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

	"github.com/tsajs/tsajs/internal/obs"
)

// Limits are the wire limits a Listener enforces on every connection.
type Limits struct {
	// ReadTimeout is the per-connection idle read deadline: a connection
	// that sends nothing for this long is closed, so dead or wedged
	// clients cannot pin server resources. Zero defaults to 5 minutes;
	// negative disables the deadline.
	ReadTimeout time.Duration
	// MaxLineBytes caps one request line or frame on the wire. Oversize
	// requests are answered with ErrRequestTooLarge (ErrFrameTooLarge on
	// the binary codec) and the connection is closed: the message boundary
	// is lost, so the stream cannot be resynced. Zero defaults to 1 MiB.
	MaxLineBytes int
	// MaxConns caps concurrently served connections; connections beyond
	// the cap are answered with an error response in their codec and closed.
	// Zero defaults to 256.
	MaxConns int
}

func (l Limits) withDefaults() Limits {
	if l.ReadTimeout == 0 {
		l.ReadTimeout = 5 * time.Minute
	}
	if l.MaxLineBytes == 0 {
		l.MaxLineBytes = 1 << 20
	}
	if l.MaxConns == 0 {
		l.MaxConns = 256
	}
	return l
}

// Validate checks the limits, zero fields taking their defaults.
func (l Limits) Validate() error {
	l = l.withDefaults()
	if l.MaxLineBytes < 1024 {
		return fmt.Errorf("cran: max line length must be at least 1024 bytes, got %d", l.MaxLineBytes)
	}
	if l.MaxConns < 0 {
		return fmt.Errorf("cran: max connections must be non-negative, got %d", l.MaxConns)
	}
	return nil
}

// Answer is where a Handler sends the one answer to a request: the
// connection's writer, under the request ID the request arrived with. It is
// a value, so handing it to a handler costs no allocation.
type Answer struct {
	sink replySink
	id   uint64
}

// Send delivers the answer. It never blocks, and may be called from any
// goroutine.
func (a Answer) Send(resp OffloadResponse) { a.sink.send(a.id, resp) }

// Handler serves one decoded request whose envelope version the Listener
// has already checked. It must answer exactly once through a, now or later
// and from any goroutine; a JSON connection reads its next request only
// after the answer is sent.
type Handler func(req OffloadRequest, a Answer)

// Listener serves a TCP listener in both wire codecs, passing every decoded
// request to its Handler. Create with Serve, stop with Close.
type Listener struct {
	ln    net.Listener
	lim   Limits
	h     Handler
	stats *wireStats
	// refusal is the error an over-cap connection is answered with.
	refusal string

	quit chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	// refusing holds one token per over-cap connection being refused.
	refusing chan struct{}
}

// Serve starts serving ln with h under lim, which must be valid (zero fields
// take their defaults). name identifies the server: its wire counters
// register in reg as tsajs_<name>_*, and an over-cap connection is refused
// with "<name> at connection capacity".
func Serve(ln net.Listener, lim Limits, reg *obs.Registry, name string, h Handler) *Listener {
	l := &Listener{
		ln:       ln,
		lim:      lim.withDefaults(),
		h:        h,
		stats:    newWireStats(reg, name),
		refusal:  name + " at connection capacity",
		quit:     make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
		refusing: make(chan struct{}, maxRefusals),
	}
	l.wg.Add(1)
	go l.acceptLoop()
	return l
}

// Addr returns the listening address.
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Close stops accepting, closes every connection, and waits for the
// connection goroutines to exit. Answers sent after Close are dropped. It is
// idempotent.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	for conn := range l.conns {
		_ = conn.Close()
	}
	l.mu.Unlock()
	close(l.quit)
	err := l.ln.Close()
	l.wg.Wait()
	return err
}

func (l *Listener) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	backoff := 5 * time.Millisecond
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			if l.isClosed() {
				return
			}
			// Transient accept error (EMFILE, chaos wrapper, ...): back
			// off so a persistent failure cannot spin the loop hot.
			select {
			case <-time.After(backoff):
			case <-l.quit:
				return
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 5 * time.Millisecond
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			_ = conn.Close()
			return
		}
		if len(l.conns) >= l.lim.MaxConns {
			l.mu.Unlock()
			l.stats.throttled.Inc()
			// Tell the client why, in its codec, before hanging up, so it
			// can degrade rather than diagnose a silent close.
			select {
			case l.refusing <- struct{}{}:
				l.wg.Add(1)
				go l.refuseConn(conn)
			default:
				_ = conn.Close()
			}
			continue
		}
		l.conns[conn] = struct{}{}
		active := len(l.conns)
		l.mu.Unlock()
		l.stats.activeConns.Set(float64(active))
		l.wg.Add(1)
		go l.serveConn(conn)
	}
}

// wireStats are a Listener's wire counters, registered as tsajs_<name>_*.
// Registering the same name twice in one registry returns the same series,
// so the coordinator's Stats snapshot reads the counters its Listener
// writes.
type wireStats struct {
	bytesRead    *obs.Counter
	bytesWritten *obs.Counter
	framesJSON   *obs.Counter
	framesBinary *obs.Counter
	rejected     *obs.Counter
	panics       *obs.Counter
	oversize     *obs.Counter
	throttled    *obs.Counter
	activeConns  *obs.Gauge
}

func newWireStats(reg *obs.Registry, name string) *wireStats {
	p := "tsajs_" + name + "_"
	return &wireStats{
		bytesRead: reg.Counter(p+"bytes_read_total",
			"Bytes read off the wire across both protocols (request lines, frames, handshakes)."),
		bytesWritten: reg.Counter(p+"bytes_written_total",
			"Bytes written to the wire across both protocols (response lines and frames)."),
		framesJSON: reg.Counter(p+"frames_total",
			"Protocol frames processed in either direction, by codec.",
			obs.Label{Key: "codec", Value: "json"}),
		framesBinary: reg.Counter(p+"frames_total",
			"Protocol frames processed in either direction, by codec.",
			obs.Label{Key: "codec", Value: "binary"}),
		rejected: reg.Counter(p+"rejected_total",
			"Requests rejected: malformed, invalid, or failed during shutdown or scheduling."),
		panics: reg.Counter(p+"panics_recovered_total",
			"Panics confined to one connection or epoch."),
		oversize: reg.Counter(p+"oversize_requests_total",
			"Request lines rejected for exceeding the wire size limit."),
		throttled: reg.Counter(p+"throttled_conns_total",
			"Connections refused at the concurrent-connection cap."),
		activeConns: reg.Gauge(p+"active_conns",
			"Currently served connections."),
	}
}

// frameRead counts one inbound protocol frame of n wire bytes.
func (c *wireStats) frameRead(binaryCodec bool, n int) {
	c.bytesRead.Add(uint64(n))
	if binaryCodec {
		c.framesBinary.Inc()
	} else {
		c.framesJSON.Inc()
	}
}

// frameWritten counts one outbound protocol frame of n wire bytes.
func (c *wireStats) frameWritten(binaryCodec bool, n int) {
	c.bytesWritten.Add(uint64(n))
	if binaryCodec {
		c.framesBinary.Inc()
	} else {
		c.framesJSON.Inc()
	}
}

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
	l      *Listener
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

// startWriter starts conn's writer goroutine, tracked in l.wg.
func (l *Listener) startWriter(conn net.Conn, binaryCodec bool) *connWriter {
	w := &connWriter{
		l:      l,
		conn:   conn,
		binary: binaryCodec,
		ch:     make(chan *frameBuf, connWriterQueue),
		dead:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if !binaryCodec {
		w.turn = make(chan struct{}, 1)
	}
	l.wg.Add(1)
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
	defer w.l.wg.Done()
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
		case <-w.l.quit:
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
	w.l.stats.frameWritten(w.binary, n)
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
func (l *Listener) serveConn(conn net.Conn) {
	defer l.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			l.stats.panics.Inc()
		}
		_ = conn.Close()
		l.mu.Lock()
		delete(l.conns, conn)
		active := len(l.conns)
		l.mu.Unlock()
		l.stats.activeConns.Set(float64(active))
	}()
	if l.lim.ReadTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(l.lim.ReadTimeout))
	}
	br, binaryCodec := negotiate(conn)
	w := l.startWriter(conn, binaryCodec)
	// The writer outlives the reader just long enough to flush queued
	// answers; the deferred conn.Close above runs after it.
	defer func() {
		w.kill()
		<-w.done
	}()
	if binaryCodec {
		l.serveBinary(br, w)
	} else {
		l.serveJSON(br, w)
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
func (l *Listener) refuseConn(conn net.Conn) {
	defer l.wg.Done()
	defer func() { <-l.refusing }()
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(refuseWindow))
	_, binaryCodec := negotiate(conn)
	var f frameBuf
	resp := OffloadResponse{Version: ProtocolVersion, Error: l.refusal}
	_ = f.encodeAnswer(binaryCodec, 0, &resp) // no float to fail on
	_ = conn.SetWriteDeadline(time.Now().Add(refuseWindow))
	if n, err := conn.Write(f.b); err == nil {
		l.stats.frameWritten(binaryCodec, n)
	}
}

// serveJSON reads newline-delimited requests, one in flight at a time: after
// dispatching a line it waits for the answer to be queued before reading
// the next, so answers leave in request order.
func (l *Listener) serveJSON(br *bufio.Reader, w *connWriter) {
	scanner := bufio.NewScanner(br)
	scanner.Buffer(make([]byte, min(64*1024, l.lim.MaxLineBytes)), l.lim.MaxLineBytes)
	for {
		if l.lim.ReadTimeout > 0 {
			_ = w.conn.SetReadDeadline(time.Now().Add(l.lim.ReadTimeout))
		}
		if !scanner.Scan() {
			if errors.Is(scanner.Err(), bufio.ErrTooLong) {
				// The scanner lost the line boundary, so answer with the
				// typed limit error and drop the connection.
				l.stats.oversize.Inc()
				w.send(0, OffloadResponse{Version: ProtocolVersion, Error: ErrRequestTooLarge.Error(), Code: CodeTooLarge})
			}
			return
		}
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		l.stats.frameRead(false, len(line)+1)
		l.dispatchLine(line, w)
		select {
		case <-w.turn:
		case <-w.dead:
			return
		}
		if l.isClosed() {
			return
		}
	}
}

// dispatchLine decodes one JSON request line and dispatches it; a line that
// does not decode is answered as malformed.
func (l *Listener) dispatchLine(line []byte, sink replySink) {
	var req OffloadRequest
	if err := json.Unmarshal(line, &req); err != nil {
		l.stats.rejected.Inc()
		sink.send(0, OffloadResponse{Version: ProtocolVersion, Error: "malformed request: " + err.Error()})
		return
	}
	l.dispatch(req, Answer{sink, 0})
}

// dispatch hands one decoded request to the handler, whichever codec carried
// it, after answering an envelope version the protocol does not speak.
func (l *Listener) dispatch(req OffloadRequest, a Answer) {
	if err := req.checkVersion(); err != nil {
		l.stats.rejected.Inc()
		a.Send(OffloadResponse{Version: ProtocolVersion, UserID: req.UserID, Error: err.Error(), Code: CodeUnsupportedVersion})
		return
	}
	l.h(req, a)
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
func (l *Listener) serveBinary(br *bufio.Reader, w *connWriter) {
	var hs [handshakeLen]byte
	if _, err := io.ReadFull(br, hs[:]); err != nil {
		return
	}
	l.stats.bytesRead.Add(uint64(handshakeLen))
	if v := hs[len(wireMagic)]; v != WireVersion {
		l.stats.rejected.Inc()
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
		if l.lim.ReadTimeout > 0 {
			_ = w.conn.SetReadDeadline(time.Now().Add(l.lim.ReadTimeout))
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		if n > l.lim.MaxLineBytes {
			// The length word itself is untrusted now; answer and close.
			l.stats.oversize.Inc()
			w.send(0, OffloadResponse{
				Version: ProtocolVersion,
				Error:   fmt.Sprintf("%s: frame of %d bytes exceeds %d", ErrFrameTooLarge.Error(), n, l.lim.MaxLineBytes),
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
		l.stats.frameRead(true, 4+n)
		l.dispatchFrame(payload, w)
		if n <= br.Size() {
			if _, err := br.Discard(n); err != nil {
				return
			}
		}
		if l.isClosed() {
			return
		}
	}
}

// dispatchFrame decodes one binary frame payload and dispatches it; a frame
// that does not decode to a request is answered as malformed.
func (l *Listener) dispatchFrame(payload []byte, sink replySink) {
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
		l.stats.rejected.Inc()
		sink.send(id, OffloadResponse{Version: ProtocolVersion, Error: err.Error()})
		return
	}
	l.dispatch(req, Answer{sink, id})
}

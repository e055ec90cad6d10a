package cran

// wirev2 is the coordinator's binary wire protocol: a versioned,
// length-prefixed frame codec with connection multiplexing. It replaces the
// request-per-round-trip discipline of the JSON line protocol — every frame
// carries a caller-chosen 64-bit request ID, so one connection holds many
// in-flight requests and responses complete out of order.
//
// Negotiation happens on the first bytes of a connection. A binary client
// opens with the 4-byte handshake
//
//	0x00 'T' 'S' <version>
//
// and no JSON line can start with a NUL byte, so the server distinguishes
// the two protocols from the first byte alone: handshake prefix → binary,
// anything else → the historical newline-delimited JSON reader. JSON
// clients therefore keep working against a binary-capable server unchanged.
//
// After the handshake the stream is a sequence of frames, identically in
// both directions:
//
//	uint32(BE) payload length | payload
//	payload = frame type (1 byte) | request ID (uvarint) | body
//
// Integers are unsigned varints (encoding/binary), floats are fixed 8-byte
// little-endian IEEE 754 bit patterns, strings are uvarint length + UTF-8
// bytes. Optional request fields travel behind a presence bitmap so a
// default-valued request costs one byte for all eight. Typed rejection
// codes are one byte on the wire (see codeByte). The full layout is
// specified in DESIGN.md §13; the checked-in golden vectors under
// testdata/ pin it byte for byte.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// WireVersion is the binary protocol generation carried in the handshake.
// Servers reject any other value with ErrUnsupportedVersion (wire code
// CodeUnsupportedVersion) instead of best-effort decoding.
const WireVersion = 2

// wireMagic is the 3-byte handshake prefix that selects the binary
// protocol; the leading NUL can never begin a JSON line.
var wireMagic = [3]byte{0x00, 'T', 'S'}

// handshakeLen is magic + version byte.
const handshakeLen = len(wireMagic) + 1

// Frame types. Requests have the high bit clear, responses set.
const (
	frameOffloadReq  byte = 0x01
	frameHealthReq   byte = 0x02
	frameOffloadResp byte = 0x81
	frameHealthResp  byte = 0x82
)

// maxFrameHeader bounds the frame header (type byte + uvarint request ID).
const maxFrameHeader = 1 + binary.MaxVarintLen64

// Binary wire errors.
var (
	// ErrMalformedFrame reports a frame whose payload cannot be decoded.
	// Length-prefixed framing keeps the stream boundary intact, so the
	// server answers the frame with an error response and keeps the
	// connection, unlike the JSON path's lost-boundary close.
	ErrMalformedFrame = errors.New("cran: malformed binary frame")
	// ErrFrameTooLarge is reported when a frame's declared length exceeds
	// the configured maximum; the length word itself is then untrusted, so
	// the connection is closed.
	ErrFrameTooLarge = errors.New("cran: frame exceeds maximum frame length")
)

// Wire code bytes: the one-byte binary carriers of the response Code
// strings. Zero means success; codeByteRejected carries rejections that
// predate the typed codes (malformed or invalid requests, Code == "").
const (
	codeByteOK                 byte = 0
	codeByteQueueFull          byte = 1
	codeByteAdmission          byte = 2
	codeByteExpired            byte = 3
	codeByteShutdown           byte = 4
	codeByteInternal           byte = 5
	codeByteUnsupportedVersion byte = 6
	codeByteTooLarge           byte = 7
	codeByteRejected           byte = 8
	codeByteWrongShard         byte = 9
)

// codeToByte maps a response's string Code to its wire byte. Unknown codes
// (future additions) degrade to codeByteRejected rather than failing the
// encode: the error text still travels.
func codeToByte(code string) byte {
	switch code {
	case CodeQueueFull:
		return codeByteQueueFull
	case CodeAdmission:
		return codeByteAdmission
	case CodeExpired:
		return codeByteExpired
	case CodeShutdown:
		return codeByteShutdown
	case CodeInternal:
		return codeByteInternal
	case CodeUnsupportedVersion:
		return codeByteUnsupportedVersion
	case CodeTooLarge:
		return codeByteTooLarge
	case CodeWrongShard:
		return codeByteWrongShard
	default:
		return codeByteRejected
	}
}

// byteToCode is the inverse of codeToByte; codeByteRejected maps back to
// the empty string (an untyped rejection).
func byteToCode(b byte) (string, error) {
	switch b {
	case codeByteQueueFull:
		return CodeQueueFull, nil
	case codeByteAdmission:
		return CodeAdmission, nil
	case codeByteExpired:
		return CodeExpired, nil
	case codeByteShutdown:
		return CodeShutdown, nil
	case codeByteInternal:
		return CodeInternal, nil
	case codeByteUnsupportedVersion:
		return CodeUnsupportedVersion, nil
	case codeByteTooLarge:
		return CodeTooLarge, nil
	case codeByteRejected:
		return "", nil
	case codeByteWrongShard:
		return CodeWrongShard, nil
	}
	return "", fmt.Errorf("%w: unknown code byte 0x%02x", ErrMalformedFrame, b)
}

// Tier bytes.
const (
	tierByteFull      byte = 0
	tierByteTruncated byte = 1
	tierByteCheap     byte = 2
)

func tierToByte(tier string) byte {
	switch tier {
	case TierTruncated:
		return tierByteTruncated
	case TierCheap:
		return tierByteCheap
	default:
		return tierByteFull
	}
}

func byteToTier(b byte) (string, error) {
	switch b {
	case tierByteFull:
		return "", nil
	case tierByteTruncated:
		return TierTruncated, nil
	case tierByteCheap:
		return TierCheap, nil
	}
	return "", fmt.Errorf("%w: unknown tier byte 0x%02x", ErrMalformedFrame, b)
}

// Request optional-field presence bits, in encode order.
const (
	reqBitOutputBits = 1 << iota
	reqBitFLocalHz
	reqBitTxPowerW
	reqBitKappa
	reqBitBetaTime
	reqBitBetaEnergy
	reqBitLambda
	reqBitDeadlineMs
)

// Response flag bits.
const (
	respBitOffload = 1 << iota
	respBitDegraded
)

// appendHandshake writes the 4-byte binary-protocol opener.
func appendHandshake(dst []byte) []byte {
	dst = append(dst, wireMagic[:]...)
	return append(dst, byte(WireVersion))
}

// --- low-level append/consume helpers ---------------------------------------

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func consumeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: truncated varint", ErrMalformedFrame)
	}
	return v, b[n:], nil
}

func consumeF64(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("%w: truncated float", ErrMalformedFrame)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

func consumeByte(b []byte) (byte, []byte, error) {
	if len(b) < 1 {
		return 0, nil, fmt.Errorf("%w: truncated byte", ErrMalformedFrame)
	}
	return b[0], b[1:], nil
}

// consumeString copies the string out of the frame buffer: strings escape
// the frame's lifetime (the buffer is recycled), so this is the one place
// the decoder allocates.
func consumeString(b []byte) (string, []byte, error) {
	n, rest, err := consumeUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(rest)) < n {
		return "", nil, fmt.Errorf("%w: truncated string (%d of %d bytes)", ErrMalformedFrame, len(rest), n)
	}
	return string(rest[:n]), rest[n:], nil
}

// --- frame envelope ----------------------------------------------------------

// appendFrame wraps an encoded payload (already in dst[start:]) with the
// 4-byte big-endian length word reserved at dst[start-4:start].
func beginFrame(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0)
}

func finishFrame(dst []byte, lenAt int) []byte {
	binary.BigEndian.PutUint32(dst[lenAt:lenAt+4], uint32(len(dst)-lenAt-4))
	return dst
}

// decodeFramePayload splits a frame payload into its type, request ID, and
// body.
func decodeFramePayload(payload []byte) (frameType byte, id uint64, body []byte, err error) {
	frameType, rest, err := consumeByte(payload)
	if err != nil {
		return 0, 0, nil, err
	}
	switch frameType {
	case frameOffloadReq, frameHealthReq, frameOffloadResp, frameHealthResp:
	default:
		return 0, 0, nil, fmt.Errorf("%w: unknown frame type 0x%02x", ErrMalformedFrame, frameType)
	}
	id, body, err = consumeUvarint(rest)
	if err != nil {
		return 0, 0, nil, err
	}
	return frameType, id, body, nil
}

// --- request codec -----------------------------------------------------------

// appendRequestFrame encodes req as one framed binary request. TypeHealth
// requests carry only the user ID; offload requests carry position, task,
// and the presence-mapped optional device fields. The request's Version
// field does not travel — the connection handshake already negotiated it.
func appendRequestFrame(dst []byte, id uint64, req *OffloadRequest) []byte {
	lenAt := len(dst)
	dst = beginFrame(dst)
	if req.Type == TypeHealth {
		dst = append(dst, frameHealthReq)
		dst = binary.AppendUvarint(dst, id)
		dst = appendString(dst, req.UserID)
		return finishFrame(dst, lenAt)
	}
	dst = append(dst, frameOffloadReq)
	dst = binary.AppendUvarint(dst, id)
	dst = appendString(dst, req.UserID)
	dst = appendF64(dst, req.Pos.X)
	dst = appendF64(dst, req.Pos.Y)
	dst = appendF64(dst, req.Task.DataBits)
	dst = appendF64(dst, req.Task.WorkCycles)
	var flags byte
	opt := [8]float64{
		req.Task.OutputBits, req.FLocalHz, req.TxPowerW, req.Kappa,
		req.BetaTime, req.BetaEnergy, req.Lambda, req.DeadlineMs,
	}
	for i, v := range opt {
		if v != 0 {
			flags |= 1 << i
		}
	}
	dst = append(dst, flags)
	for i, v := range opt {
		if flags&(1<<i) != 0 {
			dst = appendF64(dst, v)
		}
	}
	return finishFrame(dst, lenAt)
}

// decodeRequestBody fills req from a request frame body. The decoded
// request carries ProtocolVersion (the handshake negotiated the wire
// generation) and the Type implied by the frame type.
func decodeRequestBody(frameType byte, body []byte, req *OffloadRequest) error {
	*req = OffloadRequest{Version: ProtocolVersion}
	var err error
	if req.UserID, body, err = consumeString(body); err != nil {
		return err
	}
	if frameType == frameHealthReq {
		req.Type = TypeHealth
		return trailing(body)
	}
	if req.Pos.X, body, err = consumeF64(body); err != nil {
		return err
	}
	if req.Pos.Y, body, err = consumeF64(body); err != nil {
		return err
	}
	if req.Task.DataBits, body, err = consumeF64(body); err != nil {
		return err
	}
	if req.Task.WorkCycles, body, err = consumeF64(body); err != nil {
		return err
	}
	var flags byte
	if flags, body, err = consumeByte(body); err != nil {
		return err
	}
	opt := [8]*float64{
		&req.Task.OutputBits, &req.FLocalHz, &req.TxPowerW, &req.Kappa,
		&req.BetaTime, &req.BetaEnergy, &req.Lambda, &req.DeadlineMs,
	}
	for i, p := range opt {
		if flags&(1<<i) != 0 {
			if *p, body, err = consumeF64(body); err != nil {
				return err
			}
		}
	}
	return trailing(body)
}

// --- response codec ----------------------------------------------------------

// appendResponseFrame encodes resp as one framed binary response. Error
// responses carry the one-byte code and the message; decisions carry the
// tier, the offload/degraded flags, the varint-packed epoch and slot
// triple, and the expectation floats. Health responses embed the Health
// payload as JSON — probes are rare and the payload is an open-ended
// stats snapshot, so a hand-rolled layout would buy nothing.
func appendResponseFrame(dst []byte, id uint64, resp *OffloadResponse) []byte {
	lenAt := len(dst)
	dst = beginFrame(dst)
	if resp.Health != nil && resp.Error == "" {
		dst = append(dst, frameHealthResp)
		dst = binary.AppendUvarint(dst, id)
		dst = append(dst, codeByteOK)
		dst = appendString(dst, resp.UserID)
		blob, err := json.Marshal(resp.Health)
		if err != nil {
			// Marshalling Stats cannot fail; guard anyway by degrading to
			// an internal-error frame rather than corrupting the stream.
			dst = dst[:lenAt]
			fail := &OffloadResponse{UserID: resp.UserID, Error: "health payload: " + err.Error(), Code: CodeInternal}
			return appendResponseFrame(dst, id, fail)
		}
		dst = binary.AppendUvarint(dst, uint64(len(blob)))
		dst = append(dst, blob...)
		return finishFrame(dst, lenAt)
	}
	dst = append(dst, frameOffloadResp)
	dst = binary.AppendUvarint(dst, id)
	if resp.Error != "" {
		dst = append(dst, codeToByte(resp.Code))
		dst = appendString(dst, resp.UserID)
		dst = appendString(dst, resp.Error)
		return finishFrame(dst, lenAt)
	}
	dst = append(dst, codeByteOK)
	dst = appendString(dst, resp.UserID)
	dst = append(dst, tierToByte(resp.Tier))
	var flags byte
	if resp.Offload {
		flags |= respBitOffload
	}
	if resp.Degraded {
		flags |= respBitDegraded
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, resp.Epoch)
	if resp.Offload {
		dst = binary.AppendUvarint(dst, uint64(resp.Server))
		dst = binary.AppendUvarint(dst, uint64(resp.Channel))
		dst = appendF64(dst, resp.FUsHz)
	}
	dst = appendF64(dst, resp.ExpectedDelayS)
	dst = appendF64(dst, resp.ExpectedEnergyJ)
	dst = appendF64(dst, resp.Utility)
	return finishFrame(dst, lenAt)
}

// decodeResponseBody fills resp from a response frame body.
func decodeResponseBody(frameType byte, body []byte, resp *OffloadResponse) error {
	*resp = OffloadResponse{Version: ProtocolVersion}
	codeB, body, err := consumeByte(body)
	if err != nil {
		return err
	}
	if resp.UserID, body, err = consumeString(body); err != nil {
		return err
	}
	if codeB != codeByteOK {
		if resp.Code, err = byteToCode(codeB); err != nil {
			return err
		}
		if resp.Error, body, err = consumeString(body); err != nil {
			return err
		}
		if resp.Error == "" {
			return fmt.Errorf("%w: error frame with empty message", ErrMalformedFrame)
		}
		return trailing(body)
	}
	if frameType == frameHealthResp {
		n, rest, err := consumeUvarint(body)
		if err != nil {
			return err
		}
		if uint64(len(rest)) < n {
			return fmt.Errorf("%w: truncated health payload", ErrMalformedFrame)
		}
		h := new(Health)
		if err := json.Unmarshal(rest[:n], h); err != nil {
			return fmt.Errorf("%w: health payload: %v", ErrMalformedFrame, err)
		}
		resp.Health = h
		return trailing(rest[n:])
	}
	var tierB byte
	if tierB, body, err = consumeByte(body); err != nil {
		return err
	}
	if resp.Tier, err = byteToTier(tierB); err != nil {
		return err
	}
	var flags byte
	if flags, body, err = consumeByte(body); err != nil {
		return err
	}
	resp.Offload = flags&respBitOffload != 0
	resp.Degraded = flags&respBitDegraded != 0
	if resp.Epoch, body, err = consumeUvarint(body); err != nil {
		return err
	}
	// A local decision carries no grant on the wire; it decodes to the
	// coordinator's Local/Local (-1, -1), as the JSON codec carries it.
	resp.Server, resp.Channel = -1, -1
	if resp.Offload {
		var v uint64
		if v, body, err = consumeUvarint(body); err != nil {
			return err
		}
		resp.Server = int(v)
		if v, body, err = consumeUvarint(body); err != nil {
			return err
		}
		resp.Channel = int(v)
		if resp.FUsHz, body, err = consumeF64(body); err != nil {
			return err
		}
	}
	if resp.ExpectedDelayS, body, err = consumeF64(body); err != nil {
		return err
	}
	if resp.ExpectedEnergyJ, body, err = consumeF64(body); err != nil {
		return err
	}
	if resp.Utility, body, err = consumeF64(body); err != nil {
		return err
	}
	return trailing(body)
}

// trailing rejects bytes left over after a complete decode: a frame must be
// exactly its message, so garbage cannot hide behind valid prefixes.
func trailing(body []byte) error {
	if len(body) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformedFrame, len(body))
	}
	return nil
}

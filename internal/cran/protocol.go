// Package cran implements the paper's deployment architecture as a running
// service: a Cloud-RAN coordinator (the centralized BBU of Section I) that
// collects offloading requests from mobile clients over TCP, batches them
// into scheduling epochs, solves each epoch with TSAJS, and returns each
// user its offloading decision and resource grant.
//
// Two wire protocols share every listener, negotiated on a connection's
// first bytes: newline-delimited JSON envelopes (the historical format,
// one request per round-trip), and the wirev2 binary framing (length-
// prefixed frames multiplexing many in-flight requests per connection;
// see wirev2.go and DESIGN.md §13). The real system would learn channel
// state from PHY-layer measurements; here the coordinator draws gains
// from the same calibrated path-loss model the simulator uses (see
// DESIGN.md's substitution table).
package cran

import (
	"errors"
	"fmt"

	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/task"
)

// ProtocolVersion identifies the wire format. Servers reject envelopes
// carrying a different version.
const ProtocolVersion = 1

// Request types carried in OffloadRequest.Type.
const (
	// TypeOffload (or an empty Type) submits a task for scheduling.
	TypeOffload = "offload"
	// TypeHealth asks the coordinator for its health and operational
	// counters instead of a scheduling decision.
	TypeHealth = "health"
)

// ErrRequestTooLarge is reported (as the response Error and by closing the
// connection) when a request line exceeds the server's configured maximum.
var ErrRequestTooLarge = errors.New("cran: request exceeds maximum line length")

// ErrUnsupportedVersion is the typed rejection of an envelope or handshake
// carrying an unknown or future protocol version: the coordinator refuses
// to best-effort decode a format it does not speak. It travels as
// CodeUnsupportedVersion on the wire, so errors.Is works across it.
var ErrUnsupportedVersion = errors.New("cran: unsupported protocol version")

// ErrDeadlineExceeded is the typed failure of a request whose epoch
// deadline had already passed when a solver worker dequeued its epoch: the
// coordinator answers it instead of burning a worker on a solve whose
// result could no longer arrive in time.
var ErrDeadlineExceeded = errors.New("cran: epoch deadline exceeded before solve")

// ErrAdmissionRejected is the typed failure of a request refused at
// admission because the coordinator's estimated queue wait (EWMA of recent
// epoch solve latency × queue depth) already exceeded the request's
// deadline — answering immediately lets the device run locally while the
// decision is still useful.
var ErrAdmissionRejected = errors.New("cran: admission rejected, estimated queue wait exceeds deadline")

// ErrWrongShard is the typed rejection of a request whose position falls in
// a cell this coordinator shard does not own. A correctly-routed cluster
// never produces it: the shard client and the coordinator derive the cell
// from the same position with the same layout and consult the same
// assignment table, so the rejection only fires on mis-routing (a stale
// client assignment, or a request sent directly to the wrong shard). It is
// not backpressure — retrying the same shard cannot succeed.
var ErrWrongShard = errors.New("cran: request routed to a shard that does not own its cell")

// Wire error codes carried in OffloadResponse.Code. Codes classify a
// non-empty Error so clients can react in a typed way without parsing
// message text; CodeQueueFull, CodeAdmission, and CodeExpired are
// *backpressure* codes — the coordinator is alive but overloaded — which
// the resilient client retries with backoff and never counts against its
// circuit breaker.
const (
	// CodeQueueFull: the epoch was flushed while the solve queue was at
	// capacity (ErrQueueFull).
	CodeQueueFull = "queue_full"
	// CodeAdmission: estimated queue wait exceeded the request's deadline
	// at admission (ErrAdmissionRejected).
	CodeAdmission = "admission"
	// CodeExpired: the request's deadline passed while its epoch waited in
	// the solve queue (ErrDeadlineExceeded).
	CodeExpired = "deadline_expired"
	// CodeShutdown: the coordinator is shutting down.
	CodeShutdown = "shutdown"
	// CodeInternal: the epoch failed inside the scheduling path.
	CodeInternal = "internal"
	// CodeUnsupportedVersion: the envelope or binary handshake carried a
	// protocol version the coordinator does not speak
	// (ErrUnsupportedVersion).
	CodeUnsupportedVersion = "unsupported_version"
	// CodeTooLarge: the request line or binary frame exceeded the server's
	// configured maximum (ErrRequestTooLarge / ErrFrameTooLarge).
	CodeTooLarge = "too_large"
	// CodeWrongShard: the request's cell is owned by a different coordinator
	// shard (ErrWrongShard). Not backpressure — the client must re-route.
	CodeWrongShard = "wrong_shard"
)

// IsBackpressureCode reports whether a wire error code signals transient
// overload rather than rejection or failure.
func IsBackpressureCode(code string) bool {
	switch code {
	case CodeQueueFull, CodeAdmission, CodeExpired:
		return true
	}
	return false
}

// Quality tiers carried in OffloadResponse.Tier. The brownout controller
// trades solution quality for on-time answers: under queue pressure epochs
// are solved by progressively cheaper schedulers instead of being shed.
const (
	// TierFull: the configured full-budget TTSA solve. Full-tier responses
	// omit the wire field, keeping the protocol byte-identical to
	// pre-brownout coordinators when brownout never engages.
	TierFull = "full"
	// TierTruncated: a truncated anneal — TTSA under a reduced evaluation
	// budget.
	TierTruncated = "truncated"
	// TierCheap: the anneal-free budgeted solver (hJTORA for small epochs,
	// Greedy beyond).
	TierCheap = "cheap"
)

// OffloadRequest is a client's submission of one task for scheduling.
type OffloadRequest struct {
	// Version must equal ProtocolVersion.
	Version int `json:"version"`
	// Type selects the request kind: TypeOffload (default when empty) or
	// TypeHealth.
	Type string `json:"type,omitempty"`
	// UserID identifies the requester (opaque to the coordinator).
	UserID string `json:"userId"`
	// Pos is the user's reported position in network coordinates (km).
	Pos geom.Point `json:"pos"`
	// Task is the computation to place.
	Task task.Task `json:"task"`
	// Device capabilities and preferences; zero values take the
	// coordinator's defaults.
	FLocalHz   float64 `json:"fLocalHz,omitempty"`
	TxPowerW   float64 `json:"txPowerW,omitempty"`
	Kappa      float64 `json:"kappa,omitempty"`
	BetaTime   float64 `json:"betaTime,omitempty"`
	BetaEnergy float64 `json:"betaEnergy,omitempty"`
	Lambda     float64 `json:"lambda,omitempty"`
	// DeadlineMs is the epoch deadline budget in milliseconds, measured
	// from the request's arrival at the coordinator: a decision that would
	// arrive later than this is worthless to the device, so the
	// coordinator may refuse admission (CodeAdmission) or expire the
	// request at dequeue (CodeExpired) instead of solving late. Zero takes
	// the coordinator's configured default; with no default either, the
	// request never expires (the historical behaviour).
	DeadlineMs float64 `json:"deadlineMs,omitempty"`
}

// Validate checks the request's domain (defaults are applied before this
// is called server-side).
func (r OffloadRequest) Validate() error {
	if err := r.checkVersion(); err != nil {
		return err
	}
	switch r.Type {
	case "", TypeOffload:
	case TypeHealth:
		// Health probes carry no task and need no identity.
		return nil
	default:
		return fmt.Errorf("cran: unknown request type %q", r.Type)
	}
	if r.UserID == "" {
		return errors.New("cran: empty user id")
	}
	if r.DeadlineMs < 0 || r.DeadlineMs != r.DeadlineMs {
		return fmt.Errorf("cran: deadline must be a non-negative duration, got %gms", r.DeadlineMs)
	}
	return r.Task.Validate()
}

// checkVersion rejects an envelope carrying a version other than
// ProtocolVersion.
func (r OffloadRequest) checkVersion() error {
	if r.Version != ProtocolVersion {
		return fmt.Errorf("%w: envelope version %d, want %d", ErrUnsupportedVersion, r.Version, ProtocolVersion)
	}
	return nil
}

// OffloadResponse is the coordinator's decision for one request.
type OffloadResponse struct {
	Version int    `json:"version"`
	UserID  string `json:"userId"`
	// Error is non-empty when the request was rejected; all other fields
	// except Code are then meaningless.
	Error string `json:"error,omitempty"`
	// Code classifies a non-empty Error (CodeQueueFull, CodeAdmission,
	// CodeExpired, CodeShutdown, CodeInternal); empty for rejections that
	// predate the typed codes (malformed or invalid requests) and for
	// successful decisions.
	Code string `json:"code,omitempty"`
	// Tier is the quality tier that produced the decision: TierTruncated
	// or TierCheap when the brownout controller degraded the epoch, empty
	// for full-quality solves (and for errors).
	Tier string `json:"tier,omitempty"`
	// Offload reports the decision; when false the user should execute
	// locally and the grant fields are zero.
	Offload bool `json:"offload"`
	// Server and Channel identify the granted uplink slot.
	Server  int `json:"server"`
	Channel int `json:"channel"`
	// FUsHz is the granted MEC computation rate (Eq. 22).
	FUsHz float64 `json:"fUsHz"`
	// Expected per-task outcome under the decision.
	ExpectedDelayS  float64 `json:"expectedDelayS"`
	ExpectedEnergyJ float64 `json:"expectedEnergyJ"`
	// Utility is the user's J_u under the decision (Eq. 10).
	Utility float64 `json:"utility"`
	// Epoch is the scheduling round that served this request.
	Epoch uint64 `json:"epoch"`
	// Degraded marks a decision the client synthesized locally (Eq. 1
	// cost, no offloading) because the coordinator was unreachable or
	// over deadline. The coordinator never sets it.
	Degraded bool `json:"degraded,omitempty"`
	// Health carries the coordinator's health payload for TypeHealth
	// requests; nil for scheduling responses.
	Health *Health `json:"health,omitempty"`
}

// Err converts a response's wire error into a typed Go error: nil when the
// response carries a decision, an error wrapping the matching sentinel
// (ErrQueueFull, ErrAdmissionRejected, ErrDeadlineExceeded) when the code
// names one, and a plain rejection error otherwise. errors.Is against the
// sentinels therefore works across the wire.
func (r OffloadResponse) Err() error {
	if r.Error == "" {
		return nil
	}
	switch r.Code {
	case CodeQueueFull:
		return fmt.Errorf("cran: coordinator rejected request: %s: %w", r.Error, ErrQueueFull)
	case CodeAdmission:
		return fmt.Errorf("cran: coordinator rejected request: %s: %w", r.Error, ErrAdmissionRejected)
	case CodeExpired:
		return fmt.Errorf("cran: coordinator rejected request: %s: %w", r.Error, ErrDeadlineExceeded)
	case CodeUnsupportedVersion:
		return fmt.Errorf("cran: coordinator rejected request: %s: %w", r.Error, ErrUnsupportedVersion)
	case CodeTooLarge:
		return fmt.Errorf("cran: coordinator rejected request: %s: %w", r.Error, ErrRequestTooLarge)
	case CodeWrongShard:
		return fmt.Errorf("cran: coordinator rejected request: %s: %w", r.Error, ErrWrongShard)
	}
	return fmt.Errorf("cran: coordinator rejected request: %s", r.Error)
}

// Health is the coordinator's answer to a TypeHealth request.
type Health struct {
	// UptimeS is seconds since the coordinator started.
	UptimeS float64 `json:"uptimeS"`
	// ActiveConns is the number of connections currently served.
	ActiveConns int `json:"activeConns"`
	// Stats is a snapshot of the operational counters.
	Stats Stats `json:"stats"`
}

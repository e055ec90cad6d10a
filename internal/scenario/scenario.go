// Package scenario defines the complete static description of a TSAJS
// problem instance: the multi-cell network, the user population with their
// tasks and preferences, the MEC servers, and the wireless channel state.
//
// A Scenario is immutable once built; schedulers and evaluators treat it as
// read-only shared state, which makes concurrent trials safe without locks.
package scenario

import (
	"errors"
	"fmt"
	"math"

	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/radio"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/task"
	"github.com/tsajs/tsajs/internal/units"
)

// User is one mobile user: position, task, device capability, and the
// preference weights of Eq. (10).
type User struct {
	Pos geom.Point `json:"pos"`
	// Task is the atomic computation assignment T_u.
	Task task.Task `json:"task"`
	// FLocalHz is f_u^local, the device CPU frequency in cycles/s.
	FLocalHz float64 `json:"fLocalHz"`
	// TxPowerW is p_u, the fixed uplink transmit power in Watts.
	TxPowerW float64 `json:"txPowerW"`
	// Kappa is the chip-dependent energy coefficient κ of Eq. (1).
	Kappa float64 `json:"kappa"`
	// BetaTime and BetaEnergy are β_u^time and β_u^energy; they must be
	// in [0,1] and sum to 1.
	BetaTime   float64 `json:"betaTime"`
	BetaEnergy float64 `json:"betaEnergy"`
	// Lambda is λ_u ∈ (0,1], the provider's preference weight.
	Lambda float64 `json:"lambda"`
}

// Validate checks a user's parameters against the model's domain.
func (u User) Validate() error {
	if err := u.Task.Validate(); err != nil {
		return err
	}
	switch {
	case u.FLocalHz <= 0:
		return fmt.Errorf("scenario: user local CPU frequency must be positive, got %g Hz", u.FLocalHz)
	case u.TxPowerW <= 0:
		return fmt.Errorf("scenario: user transmit power must be positive, got %g W", u.TxPowerW)
	case u.Kappa <= 0:
		return fmt.Errorf("scenario: user kappa must be positive, got %g", u.Kappa)
	case u.BetaTime < 0 || u.BetaTime > 1:
		return fmt.Errorf("scenario: beta_time must be in [0,1], got %g", u.BetaTime)
	case u.BetaEnergy < 0 || u.BetaEnergy > 1:
		return fmt.Errorf("scenario: beta_energy must be in [0,1], got %g", u.BetaEnergy)
	case math.Abs(u.BetaTime+u.BetaEnergy-1) > 1e-9:
		return fmt.Errorf("scenario: beta_time + beta_energy must equal 1, got %g", u.BetaTime+u.BetaEnergy)
	case u.Lambda <= 0 || u.Lambda > 1:
		return fmt.Errorf("scenario: lambda must be in (0,1], got %g", u.Lambda)
	}
	return nil
}

// Server is one MEC server co-located with a base station.
type Server struct {
	Pos geom.Point `json:"pos"`
	// FHz is f_s, the server's total computation rate in cycles/s.
	FHz float64 `json:"fHz"`
}

// Validate checks a server's parameters.
func (s Server) Validate() error {
	if s.FHz <= 0 {
		return fmt.Errorf("scenario: server CPU frequency must be positive, got %g Hz", s.FHz)
	}
	return nil
}

// Derived holds the per-user quantities that the objective reuses on every
// evaluation: local cost and the φ_u, ψ_u, η_u coefficients of Eq. (19).
type Derived struct {
	// TLocalS is t_u^local in seconds.
	TLocalS float64
	// ELocalJ is E_u^local in Joules (Eq. 1).
	ELocalJ float64
	// Phi is φ_u = λ_u·β_u^time·d_u / (t_u^local·W).
	Phi float64
	// Psi is ψ_u = λ_u·β_u^energy·d_u / (E_u^local·W).
	Psi float64
	// Eta is η_u = λ_u·β_u^time·f_u^local.
	Eta float64
	// SqrtEta caches √η_u for the KKT allocation (Eq. 22).
	SqrtEta float64
	// TDownS is the fixed downlink return delay o_u/R_down (zero in the
	// paper's base model).
	TDownS float64
	// GainConst is the constant utility term a user contributes when
	// offloaded: λ_u·(β_u^time + β_u^energy) (first term of Eq. 24),
	// minus the decision-independent downlink penalty
	// λ_u·β_u^time·TDownS/t_u^local when the downlink model is active.
	GainConst float64
}

// Scenario is a complete, validated problem instance.
type Scenario struct {
	Users   []User              `json:"users"`
	Servers []Server            `json:"servers"`
	Gain    radio.GainTensor    `json:"gain"`
	Model   radio.PathLossModel `json:"model"`

	// NumChannels is N, the number of orthogonal subchannels per cell.
	NumChannels int `json:"numChannels"`
	// BandwidthHz is the total uplink band B; each subchannel has width
	// W = B/N.
	BandwidthHz float64 `json:"bandwidthHz"`
	// NoiseW is the background noise power σ² per subchannel, in Watts.
	NoiseW float64 `json:"noiseW"`
	// DownlinkRateBps is the fixed downlink data rate used to return task
	// results. Zero (the paper's base model) ignores downlink delay; a
	// positive value activates the paper's Section III-A2 adaptation,
	// charging each offloaded task OutputBits/DownlinkRateBps seconds.
	DownlinkRateBps float64 `json:"downlinkRateBps,omitempty"`
	// Seed is the RNG seed the instance was drawn from (for provenance).
	Seed uint64 `json:"seed"`

	derived []Derived

	// Flat per-user tables rebuilt by Finalize. The objective kernels and
	// the CRA allocator index these instead of copying Derived structs or
	// re-multiplying p_u·G_us^j per interference term.
	recvPower  []float64 // P[(u·S+s)·N+j] = p_u·G_us^j
	commWeight []float64 // φ_u + ψ_u·p_u
	gainConst  []float64 // Derived.GainConst
	sqrtEta    []float64 // Derived.SqrtEta
	txPowers   []float64 // p_u
	serverFreq []float64 // f_s
}

// U returns the number of users.
func (sc *Scenario) U() int { return len(sc.Users) }

// S returns the number of servers.
func (sc *Scenario) S() int { return len(sc.Servers) }

// N returns the number of subchannels per cell.
func (sc *Scenario) N() int { return sc.NumChannels }

// SubchannelHz returns W = B/N.
func (sc *Scenario) SubchannelHz() float64 {
	return sc.BandwidthHz / float64(sc.NumChannels)
}

// Derived returns the precomputed per-user coefficients. Finalize must have
// succeeded first (Build and UnmarshalJSON call it).
func (sc *Scenario) Derived(u int) Derived { return sc.derived[u] }

// TxPowers returns the per-user transmit power vector. The slice is shared
// scenario state and must be treated as read-only.
func (sc *Scenario) TxPowers() []float64 { return sc.txPowers }

// RecvPower returns the flat received-power table precomputed by Finalize:
// entry (u·S()+s)·N()+j holds p_u·G_us^j, the numerator of Eq. (3) and the
// per-interferer term of its denominator. User-major layout, identical
// stride arithmetic to Gain.Data(). Shared state; read-only.
func (sc *Scenario) RecvPower() []float64 { return sc.recvPower }

// CommWeights returns the per-user communication-cost weights
// (φ_u + ψ_u·p_u), the numerator of each Γ(X) term in Eq. (19). Shared
// state; read-only.
func (sc *Scenario) CommWeights() []float64 { return sc.commWeight }

// GainConsts returns the per-user constant utility contribution of an
// offloaded user (Derived.GainConst) as a flat vector. Shared state;
// read-only.
func (sc *Scenario) GainConsts() []float64 { return sc.gainConst }

// SqrtEtas returns the per-user √η_u vector used by the KKT allocation
// (Eq. 22). Shared state; read-only.
func (sc *Scenario) SqrtEtas() []float64 { return sc.sqrtEta }

// ServerFreqs returns the per-server capacity vector f_s. Shared state;
// read-only.
func (sc *Scenario) ServerFreqs() []float64 { return sc.serverFreq }

// Validate checks the full instance for consistency.
func (sc *Scenario) Validate() error {
	if len(sc.Users) == 0 {
		return errors.New("scenario: no users")
	}
	if len(sc.Servers) == 0 {
		return errors.New("scenario: no servers")
	}
	if sc.NumChannels <= 0 {
		return fmt.Errorf("scenario: subchannel count must be positive, got %d", sc.NumChannels)
	}
	if sc.BandwidthHz <= 0 {
		return fmt.Errorf("scenario: bandwidth must be positive, got %g Hz", sc.BandwidthHz)
	}
	if sc.NoiseW <= 0 {
		return fmt.Errorf("scenario: noise power must be positive, got %g W", sc.NoiseW)
	}
	if sc.DownlinkRateBps < 0 {
		return fmt.Errorf("scenario: downlink rate must be non-negative, got %g bps", sc.DownlinkRateBps)
	}
	for i, u := range sc.Users {
		if err := u.Validate(); err != nil {
			return fmt.Errorf("user %d: %w", i, err)
		}
	}
	for i, s := range sc.Servers {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("server %d: %w", i, err)
		}
	}
	if err := sc.Gain.Validate(); err != nil {
		return err
	}
	if sc.Gain.Users() != len(sc.Users) || sc.Gain.Sites() != len(sc.Servers) || sc.Gain.Channels() != sc.NumChannels {
		return fmt.Errorf("scenario: gain tensor is %dx%dx%d, want %dx%dx%d",
			sc.Gain.Users(), sc.Gain.Sites(), sc.Gain.Channels(),
			len(sc.Users), len(sc.Servers), sc.NumChannels)
	}
	return nil
}

// Finalize validates the scenario and computes the derived per-user
// coefficients. It must be called before the scenario is handed to an
// evaluator or scheduler.
func (sc *Scenario) Finalize() error {
	if err := sc.Validate(); err != nil {
		return err
	}
	w := sc.SubchannelHz()
	// The derived tables are rebuilt in full on every Finalize, so existing
	// capacity can be recycled: a coordinator solver worker that reuses one
	// Scenario value across epochs re-finalizes without allocating once its
	// buffers have grown to the epoch's user count.
	sc.derived = growDerived(sc.derived, len(sc.Users))
	sc.commWeight = growF64(sc.commWeight, len(sc.Users))
	sc.gainConst = growF64(sc.gainConst, len(sc.Users))
	sc.sqrtEta = growF64(sc.sqrtEta, len(sc.Users))
	sc.txPowers = growF64(sc.txPowers, len(sc.Users))
	for i, u := range sc.Users {
		local, err := task.Local(u.Task, u.FLocalHz, u.Kappa)
		if err != nil {
			return fmt.Errorf("user %d: %w", i, err)
		}
		eta := u.Lambda * u.BetaTime * u.FLocalHz
		tDown := 0.0
		if sc.DownlinkRateBps > 0 {
			tDown = u.Task.OutputBits / sc.DownlinkRateBps
		}
		sc.derived[i] = Derived{
			TLocalS: local.TimeS,
			ELocalJ: local.EnergyJ,
			Phi:     u.Lambda * u.BetaTime * u.Task.DataBits / (local.TimeS * w),
			Psi:     u.Lambda * u.BetaEnergy * u.Task.DataBits / (local.EnergyJ * w),
			Eta:     eta,
			SqrtEta: math.Sqrt(eta),
			TDownS:  tDown,
			GainConst: u.Lambda*(u.BetaTime+u.BetaEnergy) -
				u.Lambda*u.BetaTime*tDown/local.TimeS,
		}
		sc.commWeight[i] = sc.derived[i].Phi + sc.derived[i].Psi*u.TxPowerW
		sc.gainConst[i] = sc.derived[i].GainConst
		sc.sqrtEta[i] = sc.derived[i].SqrtEta
		sc.txPowers[i] = u.TxPowerW
	}
	sc.serverFreq = growF64(sc.serverFreq, len(sc.Servers))
	for s := range sc.Servers {
		sc.serverFreq[s] = sc.Servers[s].FHz
	}
	// Received-power table: one contiguous user-major block mirroring the
	// gain tensor's layout, so kernels share the same stride arithmetic.
	gains := sc.Gain.Data()
	sc.recvPower = growF64(sc.recvPower, len(gains))
	stride := len(sc.Servers) * sc.NumChannels
	for u := range sc.Users {
		p := sc.Users[u].TxPowerW
		row := gains[u*stride : (u+1)*stride]
		out := sc.recvPower[u*stride : (u+1)*stride]
		for i, g := range row {
			out[i] = p * g
		}
	}
	return nil
}

// growF64 returns a length-n slice, reusing s's storage when its capacity
// suffices. Callers overwrite every element, so stale contents never leak.
func growF64(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// growDerived is growF64 for the per-user Derived table.
func growDerived(s []Derived, n int) []Derived {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]Derived, n)
}

// Params configures Build. The zero value is not valid; start from
// DefaultParams, which reproduces the paper's evaluation defaults
// (Section V): S=9 hexagonal cells 1 km apart, N=3 subchannels, B=20 MHz,
// σ²=−100 dBm, P_u=10 dBm, f_s=20 GHz, f_u=1 GHz, κ=5·10⁻²⁷, d_u=420 KB,
// β^time=β^energy=0.5, λ=1.
type Params struct {
	NumUsers    int `json:"numUsers"`
	NumServers  int `json:"numServers"`
	NumChannels int `json:"numChannels"`

	BandwidthHz float64 `json:"bandwidthHz"`
	NoiseDBm    float64 `json:"noiseDBm"`
	TxPowerDBm  float64 `json:"txPowerDBm"`
	// DownlinkRateBps activates the downlink return-delay extension when
	// positive (0, the default, is the paper's base model).
	DownlinkRateBps float64 `json:"downlinkRateBps,omitempty"`

	ServerFreqHz float64 `json:"serverFreqHz"`
	UserFreqHz   float64 `json:"userFreqHz"`
	Kappa        float64 `json:"kappa"`

	Workload task.Generator `json:"workload"`

	BetaTime float64 `json:"betaTime"`
	Lambda   float64 `json:"lambda"`

	InterSiteKm float64             `json:"interSiteKm"`
	PathLoss    radio.PathLossModel `json:"pathLoss"`

	Seed uint64 `json:"seed"`
}

// DefaultParams returns the paper's evaluation defaults.
func DefaultParams() Params {
	return Params{
		NumUsers:     30,
		NumServers:   9,
		NumChannels:  3,
		BandwidthHz:  20 * units.MHz,
		NoiseDBm:     -100,
		TxPowerDBm:   10,
		ServerFreqHz: 20 * units.GHz,
		UserFreqHz:   1 * units.GHz,
		Kappa:        5e-27,
		Workload: task.Generator{
			DataBits:   420 * units.KB,
			WorkCycles: 1000 * units.Megacycle,
		},
		BetaTime:    0.5,
		Lambda:      1,
		InterSiteKm: 1,
		PathLoss:    radio.DefaultPathLoss(),
		Seed:        1,
	}
}

// Validate checks the build parameters.
func (p Params) Validate() error {
	switch {
	case p.NumUsers <= 0:
		return fmt.Errorf("scenario: user count must be positive, got %d", p.NumUsers)
	case p.NumServers <= 0:
		return fmt.Errorf("scenario: server count must be positive, got %d", p.NumServers)
	case p.NumChannels <= 0:
		return fmt.Errorf("scenario: subchannel count must be positive, got %d", p.NumChannels)
	case p.BandwidthHz <= 0:
		return fmt.Errorf("scenario: bandwidth must be positive, got %g Hz", p.BandwidthHz)
	case p.ServerFreqHz <= 0:
		return fmt.Errorf("scenario: server CPU frequency must be positive, got %g Hz", p.ServerFreqHz)
	case p.UserFreqHz <= 0:
		return fmt.Errorf("scenario: user CPU frequency must be positive, got %g Hz", p.UserFreqHz)
	case p.Kappa <= 0:
		return fmt.Errorf("scenario: kappa must be positive, got %g", p.Kappa)
	case p.BetaTime < 0 || p.BetaTime > 1:
		return fmt.Errorf("scenario: beta_time must be in [0,1], got %g", p.BetaTime)
	case p.Lambda <= 0 || p.Lambda > 1:
		return fmt.Errorf("scenario: lambda must be in (0,1], got %g", p.Lambda)
	case p.InterSiteKm <= 0:
		return fmt.Errorf("scenario: inter-site distance must be positive, got %g km", p.InterSiteKm)
	case p.DownlinkRateBps < 0:
		return fmt.Errorf("scenario: downlink rate must be non-negative, got %g bps", p.DownlinkRateBps)
	}
	if err := p.Workload.Validate(); err != nil {
		return err
	}
	return p.PathLoss.Validate()
}

// Build draws a full scenario instance from the parameters: base stations
// on a hexagonal lattice, users uniformly distributed over the coverage
// area, tasks from the workload generator, and a fresh channel realization.
func Build(p Params) (*Scenario, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := simrand.New(p.Seed)
	placementRNG := rng.Derive(0x706c6163) // "plac"
	taskRNG := rng.Derive(0x7461736b)      // "task"
	radioRNG := rng.Derive(0x72616469)     // "radi"

	sites := geom.HexLayout(p.NumServers, p.InterSiteKm)
	servers := make([]Server, p.NumServers)
	for i, pos := range sites {
		servers[i] = Server{Pos: pos, FHz: p.ServerFreqHz}
	}

	// Users are "randomly and uniformly distributed across the network's
	// coverage area": pick a uniformly random cell, then a uniform point
	// inside that cell's hexagon.
	cellR := geom.HexCircumradius(p.InterSiteKm)
	userPos := make([]geom.Point, p.NumUsers)
	for i := range userPos {
		site := sites[placementRNG.Intn(len(sites))]
		userPos[i] = site.Add(geom.RandomInHexagon(cellR, placementRNG.Float64))
	}

	tasks, err := p.Workload.Generate(p.NumUsers, taskRNG)
	if err != nil {
		return nil, err
	}

	gain, err := radio.NewGainTensor(p.PathLoss, userPos, sites, p.NumChannels, radioRNG)
	if err != nil {
		return nil, err
	}

	users := make([]User, p.NumUsers)
	for i := range users {
		users[i] = User{
			Pos:        userPos[i],
			Task:       tasks[i],
			FLocalHz:   p.UserFreqHz,
			TxPowerW:   units.DBmToWatts(p.TxPowerDBm),
			Kappa:      p.Kappa,
			BetaTime:   p.BetaTime,
			BetaEnergy: 1 - p.BetaTime,
			Lambda:     p.Lambda,
		}
	}

	sc := &Scenario{
		Users:           users,
		Servers:         servers,
		Gain:            gain,
		Model:           p.PathLoss,
		NumChannels:     p.NumChannels,
		BandwidthHz:     p.BandwidthHz,
		NoiseW:          units.DBmToWatts(p.NoiseDBm),
		DownlinkRateBps: p.DownlinkRateBps,
		Seed:            p.Seed,
	}
	if err := sc.Finalize(); err != nil {
		return nil, err
	}
	return sc, nil
}

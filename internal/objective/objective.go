// Package objective evaluates the JTORA objective for a fixed offloading
// decision: the communication cost Γ(X), the optimal computation cost
// Λ(X, F*) via the KKT allocation, the system utility J*(X) of Eq. (24),
// and the per-user delay/energy/utility breakdown of Eqs. (8)–(10).
//
// The evaluation kernels run against the scenario's flat precomputed
// tables — the received-power table p_u·G_us^j, the per-user
// communication weights φ_u+ψ_u·p_u, and the √η_u vector — so a
// SystemUtility call performs no allocation and no nested-slice pointer
// chasing.
package objective

import (
	"math"

	"github.com/tsajs/tsajs/internal/alloc"
	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/radio"
	"github.com/tsajs/tsajs/internal/scenario"
)

// invLn2 is 1/ln2, precomputed so the rate denominator log2(1+γ) can be
// evaluated as Log1p(γ)·invLn2 (one log call, no 1+γ rounding for small γ).
const invLn2 = 1 / math.Ln2

// Evaluator computes objective values for one scenario. It holds scratch
// buffers and a tracked decision (see Track), so a single Evaluator must
// not be used from multiple goroutines concurrently; create one per
// goroutine (New is cheap).
type Evaluator struct {
	sc *scenario.Scenario

	// Flat scenario tables (shared, read-only; see scenario.Finalize).
	recv      []float64 // p_u·G_us^j at (u·S+s)·N+j
	commW     []float64 // φ_u + ψ_u·p_u
	gainConst []float64
	sqrtEta   []float64
	serverF   []float64
	noiseW    float64
	numCh     int // N
	stride    int // S·N, the per-user stride into recv

	// byChannel[j] lists the transmitters on subchannel j in user order;
	// lam[s] is server s's Λ term. SystemUtility rebuilds both on every
	// call.
	byChannel [][]member
	lam       []float64

	track Incremental
}

// member is one transmitter on a subchannel: user u on server s, and its
// term (φ_u+ψ_u·p_u)/log2(1+γ_us) of Γ(X).
type member struct {
	u, s int
	cost float64
}

// New returns an evaluator for sc. The scenario must be finalized.
func New(sc *scenario.Scenario) *Evaluator {
	users, servers, channels := sc.U(), sc.S(), sc.N()
	e := &Evaluator{
		sc:        sc,
		recv:      sc.RecvPower(),
		commW:     sc.CommWeights(),
		gainConst: sc.GainConsts(),
		sqrtEta:   sc.SqrtEtas(),
		serverF:   sc.ServerFreqs(),
		noiseW:    sc.NoiseW,
		numCh:     channels,
		stride:    servers * channels,
	}
	// Constraint (12d) admits at most one user per (server, channel) slot,
	// so a subchannel never holds more than S members: every member list
	// is a fixed S-capacity window of one slab, and appends never move it.
	// The lists are byChannel, the tracked members, the preview pool and
	// the preview view (which only aliases the others).
	lists := make([][]member, 4*channels)
	slab := make([]member, 3*channels*servers)
	for j := 0; j < 3*channels; j++ {
		lists[j] = slab[j*servers : j*servers : (j+1)*servers]
	}
	floats := make([]float64, 3*servers)
	ints := make([]int, 4*users+2*channels+servers)
	cut := func(n int) []int {
		out := ints[:n:n]
		ints = ints[n:]
		return out
	}
	e.byChannel = lists[:channels:channels]
	e.lam = floats[:servers:servers]
	e.track = Incremental{
		e:       e,
		members: lists[channels : 2*channels : 2*channels],
		pool:    lists[2*channels : 3*channels : 3*channels],
		view:    lists[3*channels:],
		lam:     floats[servers : 2*servers : 2*servers],
		lamView: floats[2*servers:],
		server:  cut(users),
		channel: cut(users),
		changed: cut(users)[:0],
		diff:    cut(users)[:0],
		touched: cut(channels)[:0],
		occ:     cut(channels)[:0],
		dirty:   cut(servers)[:0],
	}
	return e
}

// Scenario returns the scenario this evaluator is bound to.
func (e *Evaluator) Scenario() *scenario.Scenario { return e.sc }

// SystemUtility computes J*(X) of Eq. (24):
//
//	J*(X) = Σ_{u∈U_off} λ_u(β_u^t + β_u^e) − Γ(X) − Λ(X, F*),
//
// with the KKT-optimal resource allocation folded in via Eq. (23). It
// performs zero allocations.
func (e *Evaluator) SystemUtility(a *assign.Assignment) float64 {
	e.price(a, e.byChannel, e.lam)
	return e.total(e.byChannel, e.lam)
}

// CommCost computes Γ(X) = Σ_s Σ_{u∈U_s} (φ_u + ψ_u·p_u)/log2(1+γ_us),
// the first term of Eq. (19).
func (e *Evaluator) CommCost(a *assign.Assignment) float64 {
	e.price(a, e.byChannel, e.lam)
	comm := 0.0
	for _, group := range e.byChannel {
		for _, m := range group {
			comm += m.cost
		}
	}
	return comm
}

// price groups a's transmitters into lists by subchannel and prices each
// one, and sets lam to the per-server Λ terms.
func (e *Evaluator) price(a *assign.Assignment, lists [][]member, lam []float64) {
	e.group(a, lists, lam)
	for s, sum := range lam {
		lam[s] = e.lambda(s, sum)
	}
	for j, group := range lists {
		for k := range group {
			group[k].cost = e.cost(j, group[k], group)
		}
	}
}

// group lists a's transmitters by subchannel in user order and sums each
// server's √η_u into sums, also in user order.
func (e *Evaluator) group(a *assign.Assignment, lists [][]member, sums []float64) {
	for j := range lists {
		lists[j] = lists[j][:0]
	}
	for s := range sums {
		sums[s] = 0
	}
	// Iterate users rather than the S×N slot matrix: evaluation cost then
	// scales with the offloaded population, not the network size — the
	// difference dominates at the Fig. 7/8 subchannel counts.
	for u := 0; u < a.Users(); u++ {
		if s, j := a.SlotOf(u); s != assign.Local {
			lists[j] = append(lists[j], member{u: u, s: s})
			sums[s] += e.sqrtEta[u]
		}
	}
}

// total sums J*(X) from priced member lists and Λ terms: the gain and Γ
// over transmitters in (subchannel, user) order, then Λ in server order.
// Every utility this package returns is summed here, in this order, so
// equal terms give equal bits.
func (e *Evaluator) total(lists [][]member, lam []float64) float64 {
	gain, comm := 0.0, 0.0
	for _, group := range lists {
		for _, m := range group {
			gain += e.gainConst[m.u]
			comm += m.cost
		}
	}
	lambda := 0.0
	for _, l := range lam {
		lambda += l // an idle server's 0 leaves the sum's bits unchanged
	}
	return gain - comm - lambda
}

// lambda is server s's Λ term Σ√η²/f_s given its Σ√η, 0 when idle.
func (e *Evaluator) lambda(s int, sum float64) float64 {
	if sum > 0 {
		return sum * sum / e.serverF[s]
	}
	return 0
}

// cost is m's term of Γ(X) on subchannel j: (φ_u+ψ_u·p_u)/log2(1+γ_us).
func (e *Evaluator) cost(j int, m member, group []member) float64 {
	return e.commW[m.u] / (math.Log1p(e.sinr(j, m, group)) * invLn2)
}

// SINR returns γ_us for user u on its assigned slot under decision a, or 0
// if u is local. This is the aggregate SINR of Eq. (4); since each user
// occupies exactly one subchannel it equals the single-channel SINR of
// Eq. (3). Only the queried channel's co-channel set is inspected (O(S)),
// not the full per-channel grouping.
func (e *Evaluator) SINR(a *assign.Assignment, u int) float64 {
	s, j := a.SlotOf(u)
	if s == assign.Local {
		return 0
	}
	sBase := s*e.numCh + j
	interference := 0.0
	for o := 0; o < len(e.serverF); o++ {
		if o == s {
			continue
		}
		if v := a.Occupant(o, j); v != assign.Local {
			interference += e.recv[v*e.stride+sBase]
		}
	}
	return e.recv[u*e.stride+sBase] / (interference + e.noiseW)
}

// sinr computes Eq. (3) for transmitter m given the co-channel group on
// subchannel j. The interference depends only on which users share the
// subchannel (summed in group order), not on their servers.
func (e *Evaluator) sinr(j int, m member, group []member) float64 {
	sBase := m.s*e.numCh + j
	interference := 0.0
	for _, o := range group {
		if o.u == m.u || o.s == m.s {
			// Same user, or a user served by the same base station:
			// intra-cell users are on orthogonal subchannels by
			// constraint (12d), so only other-cell users interfere.
			continue
		}
		interference += e.recv[o.u*e.stride+sBase]
	}
	return e.recv[m.u*e.stride+sBase] / (interference + e.noiseW)
}

// UserMetrics is the full per-user outcome under a decision and the KKT
// allocation.
type UserMetrics struct {
	// Offloaded reports whether the user offloads; when false the rate,
	// SINR and FUsHz fields are zero and the delay/energy are local.
	Offloaded bool `json:"offloaded"`
	// Server and Channel identify the slot (-1 when local).
	Server  int `json:"server"`
	Channel int `json:"channel"`
	// SINR is γ_us (linear); RateBps is R_us of Eq. (4).
	SINR    float64 `json:"sinr"`
	RateBps float64 `json:"rateBps"`
	// FUsHz is the KKT-allocated computation rate f*_us.
	FUsHz float64 `json:"fUsHz"`
	// UploadS, ExecuteS, DownloadS and DelayS decompose the offloading
	// delay (Eq. 8 plus the optional downlink-return extension); for a
	// local user DelayS is t_u^local and the others are zero.
	UploadS   float64 `json:"uploadS"`
	ExecuteS  float64 `json:"executeS"`
	DownloadS float64 `json:"downloadS,omitempty"`
	DelayS    float64 `json:"delayS"`
	// EnergyJ is E_u (Eq. 9) when offloading, E_u^local otherwise.
	EnergyJ float64 `json:"energyJ"`
	// Utility is J_u of Eq. (10); zero for local users.
	Utility float64 `json:"utility"`
}

// Report is the complete evaluation of one decision.
type Report struct {
	// SystemUtility is J(X, F*) = Σ λ_u·J_u, which equals J*(X).
	SystemUtility float64 `json:"systemUtility"`
	// Offloaded is |U_offload|.
	Offloaded int `json:"offloaded"`
	// MeanDelayS and MeanEnergyJ average completion time and energy over
	// all users (local users contribute their local cost), the metrics
	// plotted in Fig. 9.
	MeanDelayS  float64 `json:"meanDelayS"`
	MeanEnergyJ float64 `json:"meanEnergyJ"`
	// Users is the per-user breakdown.
	Users []UserMetrics `json:"users"`
	// Allocation is the KKT allocation F*.
	Allocation alloc.Allocation `json:"allocation"`
}

// Evaluate produces the full report for decision a.
func (e *Evaluator) Evaluate(a *assign.Assignment) Report {
	f, _ := alloc.KKT(e.sc, a)
	rep := Report{
		Offloaded:  a.Offloaded(),
		Users:      make([]UserMetrics, e.sc.U()),
		Allocation: f,
	}
	e.group(a, e.byChannel, e.lam)
	w := e.sc.SubchannelHz()
	sumDelay, sumEnergy, sumWeighted := 0.0, 0.0, 0.0
	for u := 0; u < e.sc.U(); u++ {
		d := e.sc.Derived(u)
		usr := e.sc.Users[u]
		m := UserMetrics{Server: assign.Local, Channel: assign.Local}
		s, j := a.SlotOf(u)
		if s == assign.Local {
			m.DelayS = d.TLocalS
			m.EnergyJ = d.ELocalJ
		} else {
			m.Offloaded = true
			m.Server, m.Channel = s, j
			m.SINR = e.sinr(j, member{u: u, s: s}, e.byChannel[j])
			m.RateBps = radio.Rate(w, m.SINR)
			m.FUsHz = f.FUs[u]
			m.UploadS = usr.Task.DataBits / m.RateBps
			m.ExecuteS = usr.Task.WorkCycles / m.FUsHz
			m.DownloadS = d.TDownS
			m.DelayS = m.UploadS + m.ExecuteS + m.DownloadS
			m.EnergyJ = usr.TxPowerW * m.UploadS
			m.Utility = usr.BetaTime*(d.TLocalS-m.DelayS)/d.TLocalS +
				usr.BetaEnergy*(d.ELocalJ-m.EnergyJ)/d.ELocalJ
		}
		rep.Users[u] = m
		sumDelay += m.DelayS
		sumEnergy += m.EnergyJ
		sumWeighted += usr.Lambda * m.Utility
	}
	n := float64(e.sc.U())
	rep.MeanDelayS = sumDelay / n
	rep.MeanEnergyJ = sumEnergy / n
	rep.SystemUtility = sumWeighted
	return rep
}

package objective

import (
	"math"
	"testing"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/scenario"
)

// fuzzScenario is the fixed instance every FuzzAssignmentUtility input is
// evaluated against; the fuzz bytes only steer the assignment.
func fuzzScenario(f *testing.F) *scenario.Scenario {
	f.Helper()
	p := scenario.DefaultParams()
	p.NumUsers = 6
	p.NumServers = 3
	p.NumChannels = 2
	p.Seed = 7
	sc, err := scenario.Build(p)
	if err != nil {
		f.Fatal(err)
	}
	return sc
}

// buildFuzzAssignment interprets data as an operation tape: byte pairs
// (u, op) either send user u local or place it on a (server, channel)
// slot, evicting the occupant when taken — the same move vocabulary the
// TTSA neighbourhood uses. Every tape yields a valid assignment.
func buildFuzzAssignment(t *testing.T, sc *scenario.Scenario, data []byte) *assign.Assignment {
	t.Helper()
	a, err := assign.New(sc.U(), sc.S(), sc.N())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(data); i += 2 {
		u := int(data[i]) % sc.U()
		op := int(data[i+1])
		if op%5 == 0 {
			a.SetLocal(u)
			continue
		}
		s := (op / sc.N()) % sc.S()
		j := op % sc.N()
		if a.Occupant(s, j) == assign.Local {
			if err := a.Offload(u, s, j); err != nil {
				t.Fatalf("offload(%d,%d,%d): %v", u, s, j, err)
			}
		} else if _, err := a.Evict(u, s, j); err != nil {
			t.Fatalf("evict(%d,%d,%d): %v", u, s, j, err)
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("operation tape built an invalid assignment: %v", err)
	}
	return a
}

// FuzzAssignmentUtility hardens the objective kernels: any valid
// assignment must evaluate without panicking to a finite system utility,
// finite per-user metrics, and bit-identical flat and incremental
// utilities. NaN or Inf escaping the evaluator would silently corrupt
// every solver built on top of it.
func FuzzAssignmentUtility(f *testing.F) {
	sc := fuzzScenario(f)
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6})
	f.Add([]byte{0, 0, 1, 5, 2, 10, 3, 15})
	f.Add([]byte{5, 1, 5, 1, 5, 2, 5, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		a := buildFuzzAssignment(t, sc, data)
		e := New(sc)

		u := e.SystemUtility(a)
		if math.IsNaN(u) || math.IsInf(u, 0) {
			t.Fatalf("SystemUtility = %v for assignment %v", u, a)
		}
		if gamma := e.CommCost(a); math.IsNaN(gamma) || math.IsInf(gamma, 0) || gamma < 0 {
			t.Fatalf("CommCost = %v for assignment %v", gamma, a)
		}

		rep := e.Evaluate(a)
		if math.IsNaN(rep.SystemUtility) || math.IsInf(rep.SystemUtility, 0) {
			t.Fatalf("report utility = %v", rep.SystemUtility)
		}
		if diff := math.Abs(rep.SystemUtility - u); diff > 1e-9*math.Max(1, math.Abs(u)) {
			t.Fatalf("Evaluate utility %v disagrees with SystemUtility %v", rep.SystemUtility, u)
		}
		for i, m := range rep.Users {
			for name, v := range map[string]float64{
				"sinr": m.SINR, "rate": m.RateBps, "fUs": m.FUsHz,
				"delay": m.DelayS, "energy": m.EnergyJ, "utility": m.Utility,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("user %d %s = %v", i, name, v)
				}
			}
		}

		inc := NewIncremental(sc, a)
		if !sameBits(inc.Utility(), u) {
			t.Fatalf("incremental utility %.17g differs from flat %.17g", inc.Utility(), u)
		}
	})
}

// FuzzTrackedEvaluator drives the tracked evaluator through fuzzed
// sequences of Algorithm 2 moves — relocations with eviction, channel
// moves, toggles and swaps — mixed with server masks and unmasks, accepting
// a candidate when its op byte has the high bit set and rejecting it
// otherwise, on a small instance and on one wider than 64 subchannels.
// After every preview and every accept the utility must equal
// SystemUtility bit for bit. Moves preview with the users they touched,
// masks by diffing the whole decision.
func FuzzTrackedEvaluator(f *testing.F) {
	var scs []*scenario.Scenario
	for _, shape := range [][3]int{{8, 3, 2}, {10, 3, 70}} {
		p := scenario.DefaultParams()
		p.NumUsers, p.NumServers, p.NumChannels = shape[0], shape[1], shape[2]
		p.Seed = 17
		sc, err := scenario.Build(p)
		if err != nil {
			f.Fatal(err)
		}
		scs = append(scs, sc)
	}
	f.Add([]byte{0, 0x80, 1, 3, 0x81, 2, 5, 0x82, 3, 1, 2, 4, 7})
	f.Add([]byte{1, 0x80, 0, 140, 0x80, 1, 141, 0x84, 0, 1, 0x83, 0, 1, 0x85, 0, 0})
	f.Add([]byte{0, 0x81, 0, 0, 0x81, 1, 0, 0x84, 2, 2, 3, 4, 5, 0x80, 6, 5})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sc := scs[int(data[0])%len(scs)]
		users, servers, channels := sc.U(), sc.S(), sc.N()
		e := New(sc)
		cur, err := assign.New(users, servers, channels)
		if err != nil {
			t.Fatal(err)
		}
		cand := cur.Clone()
		inc := NewIncremental(sc, cur)
		check := func(step int, what string, got float64, a *assign.Assignment) {
			if want := e.SystemUtility(a); !sameBits(got, want) {
				t.Fatalf("step %d %s: %.17g, SystemUtility %.17g for %v", step, what, got, want, a)
			}
		}
		for i := 1; i+2 < len(data); i += 3 {
			op, u, arg := data[i], int(data[i+1])%users, int(data[i+2])
			moved := []int{u}
			switch op & 0x7f % 6 {
			case 0, 1: // relocate (0) or channel move (1), evicting the occupant
				s, j := arg%servers, (arg/servers)%channels
				if cs, _ := cand.SlotOf(u); op&0x7f%6 == 1 && cs != assign.Local {
					s, j = cs, arg%channels
				}
				if occ := cand.Occupant(s, j); occ != assign.Local && occ != u {
					moved = append(moved, occ)
				}
				_, _ = cand.Evict(u, s, j) // fails, changing nothing, on a masked server
			case 2: // toggle
				if !cand.IsLocal(u) {
					cand.SetLocal(u)
				} else if s := arg % servers; !cand.IsMasked(s) {
					if j := cand.FreeChannel(s, arg/servers); j != assign.Local {
						if err := cand.Offload(u, s, j); err != nil {
							t.Fatal(err)
						}
					}
				}
			case 3: // swap
				if v := arg % users; v != u {
					cand.Swap(u, v)
					moved = append(moved, v)
				}
			case 4: // server failure: evacuates its users
				if _, err := cand.MaskServer(arg % servers); err != nil {
					t.Fatal(err)
				}
				moved = nil
			default: // recovery: frees capacity, moves nobody
				if err := cand.UnmaskServer(arg % servers); err != nil {
					t.Fatal(err)
				}
			}
			var got float64
			if moved == nil {
				got = inc.Preview(cand)
			} else {
				got = inc.PreviewMoved(cand, moved)
			}
			check(i, "preview", got, cand)
			if op&0x80 != 0 {
				inc.Accept(cand)
				check(i, "accept", inc.Utility(), cand)
				err = cur.CopyFrom(cand)
			} else {
				err = cand.CopyFrom(cur)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}

package rl

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestRCUTornReadHunt hammers the lock-free read paths (Q, BestAction,
// HasState, NumStates, Visits, VisitStats) while a single writer
// materializes rows, rewrites cells between two bit-distinct values, and
// forces repeated table growth and republication. Run under -race this is the data-race
// proof for the RCU table design; the bit-pattern assertion additionally
// catches torn float64 reads directly — both chosen values have non-zero,
// distinct high and low 32-bit halves, so any half-and-half mix is a value
// outside the allowed set.
//
// Rows are allocated on materialization, so the hunt also races first touch:
// while the writer materializes a fresh state every few steps (growing the
// table through several generations), raw readers scan whatever generation
// is published and require every flagged row to be non-nil, full width and
// seeded — a fresh cell still at zero would be a row published before its
// values.
func TestRCUTornReadHunt(t *testing.T) {
	cfg := DefaultConfig()
	valInit := math.Float64frombits(0x3FF0F0F0F0F0F0F0)
	cfg.InitLo, cfg.InitHi = valInit, valInit // fresh rows seed to exactly valInit
	cfg.LearningRate = 1                      // Update writes the reward verbatim...
	cfg.Discount = 0                          // ...with no bootstrap term
	const actions, fresh = 4, 2000

	// The 64 hunted states start installed at exactly zero (indices 0..63),
	// so every Update replaces a cell with the reward bit for bit; fresh
	// states get the indices after them.
	states := make([]State, 64)
	zeros := make(map[State][]float64, len(states))
	for i := range states {
		states[i] = State(fmt.Sprintf("torn|%d", i))
		zeros[states[i]] = make([]float64, actions)
	}
	ag, err := NewAgentFromTable(cfg, actions, zeros, nil)
	if err != nil {
		t.Fatal(err)
	}
	valA := math.Float64frombits(0x4010123456789ABC)
	valB := math.Float64frombits(0xC01FEDCBA9876543)
	allowed := map[uint64]bool{
		0:                      true, // installed cell, not yet updated
		math.Float64bits(valA): true,
		math.Float64bits(valB): true,
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := states[(i*7+r)%len(states)]
				q := ag.Q(s, (i+r)%actions)
				if !allowed[math.Float64bits(q)] {
					t.Errorf("torn read: Q=%v (bits %#x) is neither 0, %v nor %v",
						q, math.Float64bits(q), valA, valB)
					return
				}
				if a, err := ag.BestAction(s, nil); err == nil && (a < 0 || a >= actions) {
					t.Errorf("BestAction(%q) = %d out of range", s, a)
					return
				}
				ag.HasState(s)
				ag.NumStates()
				ag.Visits(s)
				ag.VisitStats()
			}
		}(r)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tab := ag.tab.Load()
				idx := int32((i*31 + r) % tab.states)
				if tab.flags[idx].Load()&flagRow == 0 {
					continue
				}
				row := tab.rows[idx].Load()
				if row == nil || len(row.q) != actions {
					t.Errorf("state %d flagged but row is %v", idx, row)
					return
				}
				for j := range row.q {
					bits := row.q[j].Load()
					if ok := allowed[bits]; (idx < 64 && !ok) || (idx >= 64 && bits != math.Float64bits(valInit)) {
						t.Errorf("state %d action %d: flagged row holds %#x (unseeded or torn)", idx, j, bits)
						return
					}
				}
				if a, err := ag.BestActionIdx(idx, nil); err != nil || a < 0 || a >= actions {
					t.Errorf("BestActionIdx(%d) = %d, %v", idx, a, err)
					return
				}
			}
		}(r)
	}

	for i := 0; i < 20000; i++ {
		s := states[i%len(states)]
		v := valA
		if i%2 == 1 {
			v = valB
		}
		if err := ag.Update(s, i%actions, v, states[(i+1)%len(states)], nil); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			// First touch of a fresh state: allocate, seed and publish its
			// row — growing and republishing the table whenever it fills.
			ag.Q(State(fmt.Sprintf("fresh|%d", i/10)), 0)
		}
	}
	close(stop)
	wg.Wait()
	if n := ag.NumStates(); n != len(states)+fresh {
		t.Fatalf("NumStates = %d, want %d", n, len(states)+fresh)
	}
}

package rl

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"autoscale/internal/obs"
)

func TestTDErrorEMATracksConvergence(t *testing.T) {
	ag, err := NewAgent(Config{LearningRate: 0.9, Discount: 0, Epsilon: 0, InitLo: 0, InitHi: 0, Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ema, n := ag.TDErrorEMA(); ema != 0 || n != 0 {
		t.Fatalf("fresh agent EMA = (%v, %d)", ema, n)
	}
	// First update: Q=0, reward=1 -> |delta|=1 seeds the EMA exactly.
	if err := ag.Update("s", 0, 1, "s", nil); err != nil {
		t.Fatal(err)
	}
	ema, n := ag.TDErrorEMA()
	if n != 1 || math.Abs(ema-1) > 1e-12 {
		t.Fatalf("after first update EMA = (%v, %d), want (1, 1)", ema, n)
	}
	// Repeated identical updates converge Q toward the reward, so the EMA
	// must decay toward zero.
	for i := 0; i < 200; i++ {
		if err := ag.Update("s", 0, 1, "s", nil); err != nil {
			t.Fatal(err)
		}
	}
	ema, n = ag.TDErrorEMA()
	if n != 201 {
		t.Fatalf("sample count = %d", n)
	}
	if ema >= 1e-4 {
		t.Fatalf("EMA did not decay under a converged policy: %v", ema)
	}
}

func TestTDErrorEMASkipsFrozenAndSarsaFeedsIt(t *testing.T) {
	ag, err := NewAgent(DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ag.Freeze()
	if err := ag.Update("s", 0, 5, "s", nil); err != nil {
		t.Fatal(err)
	}
	if _, n := ag.TDErrorEMA(); n != 0 {
		t.Fatalf("frozen update fed the EMA (%d samples)", n)
	}

	sa, err := NewSarsaAgent(Config{LearningRate: 0.5, Discount: 0, Epsilon: 0, InitLo: 0, InitHi: 0, Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.UpdateSarsa("s", 0, 2, "s", 1); err != nil {
		t.Fatal(err)
	}
	ema, n := sa.TDErrorEMA()
	if n != 1 || math.Abs(ema-2) > 1e-12 {
		t.Fatalf("SARSA EMA = (%v, %d), want (2, 1)", ema, n)
	}
}

func TestExplorationStats(t *testing.T) {
	ag, err := NewAgent(Config{LearningRate: 0.9, Discount: 0.1, Epsilon: 0.5, InitLo: -1, InitHi: 1, Seed: 7}, 3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := ag.SelectAction("s", nil); err != nil {
			t.Fatal(err)
		}
	}
	explores, selections := ag.ExplorationStats()
	if selections != n {
		t.Fatalf("selections = %d, want %d", selections, n)
	}
	ratio := float64(explores) / float64(selections)
	if math.Abs(ratio-0.5) > 0.05 {
		t.Fatalf("exploration ratio %v far from epsilon 0.5", ratio)
	}
	// Frozen agents stop exploring but keep counting selections.
	ag.Freeze()
	for i := 0; i < 100; i++ {
		if _, err := ag.SelectAction("s", nil); err != nil {
			t.Fatal(err)
		}
	}
	explores2, selections2 := ag.ExplorationStats()
	if selections2 != n+100 || explores2 != explores {
		t.Fatalf("frozen stats = (%d, %d), want (%d, %d)", explores2, selections2, explores, n+100)
	}
}

func TestNumStatesAndEpsilonAccessors(t *testing.T) {
	ag, err := NewAgent(DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ag.NumStates() != 0 {
		t.Fatalf("fresh agent has %d states", ag.NumStates())
	}
	ag.Q("a", 0) // materializes
	ag.Q("b", 0)
	if ag.NumStates() != 2 {
		t.Fatalf("NumStates = %d, want 2", ag.NumStates())
	}
	if eps := ag.Epsilon(); eps != DefaultConfig().Epsilon {
		t.Fatalf("Epsilon = %v", eps)
	}
	if err := ag.SetEpsilon(0.25); err != nil {
		t.Fatal(err)
	}
	if eps := ag.Epsilon(); eps != 0.25 {
		t.Fatalf("Epsilon after set = %v", eps)
	}
}

// TestSnapshotExcludesHealthCounters pins the checkpoint compatibility
// contract: learning-health state must not leak into the persisted snapshot.
func TestSnapshotExcludesHealthCounters(t *testing.T) {
	ag, err := NewAgent(Config{LearningRate: 0.9, Discount: 0.1, Epsilon: 0, InitLo: 0, InitHi: 0, Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ag.SelectAction("s", nil); err != nil {
		t.Fatal(err)
	}
	before, err := ag.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := ag.Update("s", 0, 3, "s", nil); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(before)
	if err != nil {
		t.Fatal(err)
	}
	if ema, n := restored.TDErrorEMA(); ema != 0 || n != 0 {
		t.Fatalf("restored agent carries TD state (%v, %d)", ema, n)
	}
	if ex, sel := restored.ExplorationStats(); ex != 0 || sel != 0 {
		t.Fatalf("restored agent carries exploration state (%d, %d)", ex, sel)
	}
}

// TestVisitStatsMatchesDenseOrderCounts pins VisitStats to obs.Entropy and
// obs.MaxCount over the per-state counts in dense-index order — including
// restored zero-count visit entries, which carry flagVisit but must not
// count as visited — and requires repeated samples to be bit-identical.
func TestVisitStatsMatchesDenseOrderCounts(t *testing.T) {
	q := make(map[string][]float64)
	visits := make(map[string]int)
	for i := 0; i < 40; i++ {
		s := fmt.Sprintf("s%02d", i)
		q[s] = []float64{float64(i), -float64(i)}
		visits[s] = (i * 7919) % 13 // several zero counts among the rest
	}
	visits["visit-only"] = 0 // a zero-count entry without a Q row
	data, err := json.Marshal(map[string]any{"config": DefaultConfig(), "actions": 2, "q": q, "visits": visits})
	if err != nil {
		t.Fatal(err)
	}
	ag, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := ag.SelectAction(State(fmt.Sprintf("s%02d", i%5)), nil); err != nil {
			t.Fatal(err)
		}
	}

	tab := ag.tab.Load()
	var counts []int
	zeros := 0
	for i := 0; i < tab.states; i++ {
		if tab.flags[i].Load()&flagVisit != 0 {
			c := int(tab.visits[i].Load())
			counts = append(counts, c)
			if c == 0 {
				zeros++
			}
		}
	}
	if zeros == 0 {
		t.Fatal("no restored zero-count visit entries; test is vacuous")
	}
	wantTotal := 0
	for _, c := range counts {
		wantTotal += c
	}

	total, max, entropy := ag.VisitStats()
	if total != wantTotal || total != ag.TotalVisits() {
		t.Fatalf("total = %d, want %d (TotalVisits %d)", total, wantTotal, ag.TotalVisits())
	}
	if want := obs.MaxCount(counts); max != want {
		t.Fatalf("max = %d, want %d", max, want)
	}
	if want := obs.Entropy(counts); math.Float64bits(entropy) != math.Float64bits(want) {
		t.Fatalf("entropy = %v, want obs.Entropy %v (bit-exact)", entropy, want)
	}
	for i := 0; i < 10; i++ {
		t2, m2, e2 := ag.VisitStats()
		if t2 != total || m2 != max || math.Float64bits(e2) != math.Float64bits(entropy) {
			t.Fatalf("sample %d differs: (%d, %d, %v) vs (%d, %d, %v)", i, t2, m2, e2, total, max, entropy)
		}
	}
}

func TestVisitStatsDegenerate(t *testing.T) {
	ag, err := NewAgent(DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if total, max, h := ag.VisitStats(); total != 0 || max != 0 || h != 0 {
		t.Fatalf("fresh agent stats = (%d, %d, %v)", total, max, h)
	}
	for i := 0; i < 3; i++ {
		if _, err := ag.SelectAction("only", nil); err != nil {
			t.Fatal(err)
		}
	}
	// One visited state: entropy is defined as 0, like obs.Entropy.
	if total, max, h := ag.VisitStats(); total != 3 || max != 3 || h != 0 {
		t.Fatalf("single-state stats = (%d, %d, %v)", total, max, h)
	}
}

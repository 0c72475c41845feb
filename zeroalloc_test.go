package autoscale

import (
	"context"
	"runtime"
	"testing"

	"autoscale/internal/core"
	"autoscale/internal/rl"
	"autoscale/internal/super"
	"autoscale/internal/tracez"
)

// TestDecideZeroAlloc is the allocs-per-op regression guard for the decide
// fast path: observe -> dense state index -> lock-free RCU Q-row argmax.
// The path must not allocate — make verify runs this test, so any future
// allocation on the hot path fails the build rather than silently eroding
// throughput.
func TestDecideZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates on otherwise alloc-free paths")
	}
	e, m, c := trainedBenchEngine(t)
	e.Agent().Freeze()
	// One warm call materializes any row the training loop missed.
	if _, err := e.Predict(m, c); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(1000, func() {
		if _, err := e.Predict(m, c); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Predict fast path allocates %.2f allocs/op, want 0", avg)
	}
}

// TestTracedDecideAllocBudget guards the sampled decide path: capturing
// decision provenance into a caller-owned, reused DecisionProv must add at
// most 2 allocs/op over the plain filtered step. The prov slot's Q and Mask
// slices are refilled in place, so in practice the delta is zero once warm.
func TestTracedDecideAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates on otherwise alloc-free paths")
	}
	e, m, c := trainedBenchEngine(t)
	e.Agent().Freeze()
	var prov core.DecisionProv
	// Warm both paths so every row and scratch buffer is materialized.
	if _, err := e.RunInferenceFiltered(nil, m, c, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunInferenceProv(nil, m, c, nil, &prov); err != nil {
		t.Fatal(err)
	}
	plain := testing.AllocsPerRun(500, func() {
		if _, err := e.RunInferenceFiltered(nil, m, c, nil); err != nil {
			t.Fatal(err)
		}
	})
	traced := testing.AllocsPerRun(500, func() {
		if _, err := e.RunInferenceProv(nil, m, c, nil, &prov); err != nil {
			t.Fatal(err)
		}
	})
	if traced-plain > 2 {
		t.Fatalf("provenance capture adds %.2f allocs/op over plain decide (%.2f vs %.2f), budget 2",
			traced-plain, traced, plain)
	}
}

// TestTraceLifecycleAllocBudget bounds the tracer's own per-request cost: a
// full sampled lifecycle — Start, spans, provenance fill, Finish into the
// kept ring — must stay within 2 allocs/op once the trace pool and span
// slices are warm. The one unavoidable allocation is the Active handle.
func TestTraceLifecycleAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates on otherwise alloc-free paths")
	}
	tr := tracez.New(tracez.Config{SampleRate: 1, Ring: 8})
	lifecycle := func() {
		a := tr.Start("MobileNet v3", "batch", 0)
		a.SetShard("s0")
		a.Span("queue", 0.001, "local")
		a.Span("decide", 0.0001, "local")
		pr := a.Prov()
		pr.StateIdx = 7
		pr.Q = append(pr.Q[:0], 1.5, 2.5, 0.5)
		pr.Mask = append(pr.Mask[:0], true, true, false)
		a.Span("execute", 0.01, "local")
		a.Finish("served")
	}
	// Warm: fill the ring and pool so steady state recycles Trace structs.
	for i := 0; i < 64; i++ {
		lifecycle()
	}
	avg := testing.AllocsPerRun(1000, lifecycle)
	if avg > 2 {
		t.Fatalf("sampled trace lifecycle allocates %.2f allocs/op, budget 2", avg)
	}
}

// TestAuditorObserveZeroAlloc guards the chaos auditor's mid-storm sample:
// it reads each shard's clock row into a reused buffer and updates existing
// per-shard marks, so once every shard has a mark it must not allocate.
func TestAuditorObserveZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates on otherwise alloc-free paths")
	}
	rt := benchRouter(t)
	defer rt.Shutdown(context.Background())
	aud, err := super.NewAuditor(rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	aud.Observe() // first sample sizes the buffer and seeds the marks
	if avg := testing.AllocsPerRun(1000, aud.Observe); avg != 0 {
		t.Fatalf("Auditor.Observe allocates %.2f allocs/op, want 0", avg)
	}
	if v := aud.Violations(); len(v) != 0 {
		t.Fatalf("violations on an idle router: %v", v)
	}
}

// TestEngineHealthZeroAlloc guards the learning-health sample: visit totals,
// the hottest state and the visit entropy are summarised in place over the
// dense arrays and the mean reward is summed under the engine lock, so a
// sample allocates nothing.
func TestEngineHealthZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates on otherwise alloc-free paths")
	}
	e, _, _ := trainedBenchEngine(t)
	if avg := testing.AllocsPerRun(1000, func() { _ = e.Health() }); avg != 0 {
		t.Fatalf("Engine.Health allocates %.2f allocs/op, want 0", avg)
	}
}

// TestFreshAgentHeapBudget keeps Q storage proportional to what is touched:
// an agent over the full Table I grid with the Mi8Pro's 66 actions reserves
// only its per-state pointer, flag and visit arrays (about 60 KB) until a row
// materializes. A dense [states x actions] slab would be about 1.6 MB.
func TestFreshAgentHeapBudget(t *testing.T) {
	const actions, budget = 66, 128 << 10
	grid := core.NewStateSpace()
	if grid.Size() != 3072 {
		t.Fatalf("Table I grid has %d states, want 3072", grid.Size())
	}
	var before, after runtime.MemStats
	least := uint64(1 << 62)
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		ag, err := rl.NewAgentInterned(rl.DefaultConfig(), actions, grid)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if ag.NumStates() != 0 {
			t.Fatalf("fresh agent has %d materialized rows", ag.NumStates())
		}
		if n := after.TotalAlloc - before.TotalAlloc; n < least {
			least = n
		}
	}
	if least >= budget {
		t.Fatalf("fresh agent allocates %d bytes, budget %d", least, budget)
	}
}

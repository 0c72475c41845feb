package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"autoscale/internal/dnn"
	"autoscale/internal/interfere"
	"autoscale/internal/rl"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// refDistance is the lattice distance as the full-scan seeder computed it.
func refDistance(a, b [NumFeatures]int) int {
	d := 0
	for f := 0; f < NumFeatures; f++ {
		if a[f] < 0 || b[f] < 0 {
			continue
		}
		diff := a[f] - b[f]
		if diff < 0 {
			diff = -diff
		}
		if Feature(f) < FeatCoCPU {
			diff *= nnWeight
		}
		d += diff
	}
	return d
}

// refNearest is the full-scan seeder the seeding list replaced, kept as the
// reference: sweep every materialized row in ascending index order, render
// its key, decode grid rows by mixed-radix division and parse foreign keys,
// and keep the first row at the smallest distance.
func refNearest(e *Engine, ag *rl.Agent, i int32) (int32, bool) {
	if ag.HasStateIdx(i) {
		return 0, false
	}
	var target [NumFeatures]int
	if !e.States.BinsOf(i, &target) {
		return 0, false
	}
	bestDist := int64(-1)
	var best int32
	for j := range ag.Materialized() {
		key := ag.KeyOf(j)
		var cb [NumFeatures]int
		if !e.States.BinsOf(j, &cb) {
			pb, ok := parseKey(key)
			if !ok {
				continue
			}
			cb = pb
		}
		if d := int64(refDistance(target, cb)); bestDist < 0 || d < bestDist {
			bestDist, best = d, j
		}
	}
	return best, bestDist >= 0
}

// seedDiff drives an engine through a random materialization sequence and
// checks every seeding decision against refNearest.
type seedDiff struct {
	t   *testing.T
	rng *rand.Rand
	e   *Engine
	// Coverage counters.
	seeded, foreignDonors, oddDonors, predicts int
}

func (d *seedDiff) checkSeed(i int32) {
	ag := d.e.Agent()
	want, wantOK := refNearest(d.e, ag, i)
	d.e.mu.Lock()
	got, gotOK := d.e.seedIfUnseenIdx(ag, i)
	d.e.mu.Unlock()
	if gotOK != wantOK || got != want {
		d.t.Fatalf("seed %d: donor (%d, %v), reference (%d, %v)", i, got, gotOK, want, wantOK)
	}
	if !gotOK {
		return
	}
	d.seeded++
	if int(got) >= d.e.States.Size() {
		d.foreignDonors++
		// An odd donor has a bin past its feature's range or an
		// ablated feature the grid keeps.
		if pb, ok := parseKey(ag.KeyOf(got)); ok {
			for f, v := range pb {
				if v >= d.e.States.Bins(Feature(f)) || (v < 0 && d.e.States.Enabled(Feature(f))) {
					d.oddDonors++
					break
				}
			}
		}
	}
}

// checkPredict runs Predict on a random request and checks the seeded row
// is a copy of the reference donor's row.
func (d *seedDiff) checkPredict() {
	m, c := d.request()
	ag := d.e.Agent()
	i := d.e.States.Index(ObservationOf(m, c))
	want, ok := refNearest(d.e, ag, i)
	if _, err := d.e.Predict(m, c); err != nil {
		d.t.Fatal(err)
	}
	if !ok {
		return
	}
	d.predicts++
	for a := 0; a < ag.NumActions(); a++ {
		got, ref := ag.Q(ag.KeyOf(i), a), ag.Q(ag.KeyOf(want), a)
		if math.Float64bits(got) != math.Float64bits(ref) {
			d.t.Fatalf("predict seeded state %d action %d: %v, reference donor %d has %v", i, a, got, want, ref)
		}
	}
}

func (d *seedDiff) request() (*dnn.Model, sim.Conditions) {
	zoo := dnn.Zoo()
	return zoo[d.rng.Intn(len(zoo))], sim.Conditions{
		Load:     interfere.Load{CPUUtil: d.rng.Float64(), MemUtil: d.rng.Float64()},
		RSSIWLAN: -95 + 55*d.rng.Float64(),
		RSSIP2P:  -95 + 55*d.rng.Float64(),
	}
}

// restore swaps in an agent restored from q via a snapshot.
func (d *seedDiff) restore(q map[rl.State][]float64) {
	ag, err := rl.NewAgentFromTable(rl.DefaultConfig(), d.e.Actions.Len(), q, nil)
	if err != nil {
		d.t.Fatal(err)
	}
	data, err := ag.Snapshot()
	if err != nil {
		d.t.Fatal(err)
	}
	if err := d.e.RestoreQTable(data); err != nil {
		d.t.Fatal(err)
	}
}

// foreignKeys cannot be interned on the Table I grid: an out-of-range
// SCONV bin, a co-runner bin far past its range, an ablation mismatch, a
// negative bin, and two unparseable keys.
var foreignKeys = []rl.State{
	"9|1|1|2|0|0|0|0",
	"0|0|0|0|200|0|0|0",
	"0|1|*|1|0|0|1|1",
	"1|-3|0|1|3|3|1|1",
	"not-a-key",
	"1|1|1|1|1|1|1|x",
}

// restoreForeign swaps in a table holding the foreign keys and, when
// gridKeys is non-empty, half the time some grid keys too (which after a
// Disable may be foreign as well).
func (d *seedDiff) restoreForeign(gridKeys []rl.State) {
	q := make(map[rl.State][]float64)
	for _, k := range foreignKeys {
		q[k] = d.row()
	}
	if len(gridKeys) > 0 && d.rng.Intn(2) == 0 {
		for n := 0; n < 20; n++ {
			q[gridKeys[d.rng.Intn(len(gridKeys))]] = d.row()
		}
	}
	d.restore(q)
}

// row returns a random Q row.
func (d *seedDiff) row() []float64 {
	r := make([]float64, d.e.Actions.Len())
	for j := range r {
		r[j] = d.rng.Float64()
	}
	return r
}

// step performs one random operation on indices below limit.
func (d *seedDiff) step(limit int, gridKeys []rl.State) {
	switch r := d.rng.Intn(100); {
	case r < 50:
		d.checkSeed(int32(d.rng.Intn(limit)))
	case r < 60:
		// Materialize a row outside the seeder (random init).
		j := int32(d.rng.Intn(limit))
		if err := d.e.Agent().CopyRowIdx(j, j); err != nil {
			d.t.Fatal(err)
		}
	case r < 72:
		d.checkPredict()
	case r < 85:
		m, c := d.request()
		if _, err := d.e.RunInference(m, c); err != nil {
			d.t.Fatal(err)
		}
	case r < 90:
		// Swap the agent for an identical copy of itself.
		data, err := d.e.SnapshotQTable()
		if err != nil {
			d.t.Fatal(err)
		}
		if err := d.e.RestoreQTable(data); err != nil {
			d.t.Fatal(err)
		}
	case r < 96:
		d.restoreForeign(gridKeys)
	default:
		if err := d.e.Reset(); err != nil {
			d.t.Fatal(err)
		}
	}
}

// TestSeedListMatchesFullScan is the differential test of the seeding list
// against the full-scan reference: random materialization sequences with
// agent swaps (RestoreQTable, Reset), rows materialized behind the seeder's
// back, foreign overflow keys, the Predict and RunInference paths, and a
// feature disabled after construction, must pick the same donor index every
// time.
func TestSeedListMatchesFullScan(t *testing.T) {
	for _, f := range []Feature{FeatConv, FeatMAC, FeatCoMem, FeatRSSIP} {
		t.Run(fmt.Sprint(f), func(t *testing.T) {
			w := sim.NewWorld(soc.Mi8Pro(), 3)
			cfg := DefaultConfig()
			cfg.States = NewStateSpace()
			e, err := NewEngine(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := &seedDiff{t: t, rng: rand.New(rand.NewSource(int64(f) + 11)), e: e}
			size := e.States.Size()
			var keys []rl.State
			for i := 0; i < size; i++ {
				keys = append(keys, e.States.KeyOf(int32(i)))
			}
			for n := 0; n < 800; n++ {
				d.step(size, keys)
			}
			// Among the foreign keys alone, the all-zero state's nearest is
			// the key with the far co-runner bin.
			d.restoreForeign(nil)
			d.checkSeed(0)
			if d.oddDonors == 0 {
				t.Fatal("no out-of-range foreign key ever donated")
			}
			// Bins past int32 are clamped in the list. From the all-zero
			// state the last two keys tie, and the first, lowest in index
			// order, is farthest although its clamped bin alone would tie it
			// with them.
			d.restore(map[rl.State][]float64{
				"0|0|0|0|0|0|0|10000000000": d.row(),
				"0|0|0|0|0|0|0|2147483647":  d.row(),
				"0|0|0|0|0|0|1|2147483646":  d.row(),
			})
			d.checkSeed(0)

			// Disable f once rows exist only on indices the smaller grid
			// keeps: the agent and its row count stay put, so only the
			// intern cache changing can tell the list its decoded bins are
			// stale.
			if err := e.Reset(); err != nil {
				t.Fatal(err)
			}
			small := size / e.States.Bins(f)
			for n := 0; n < 200; n++ {
				j := int32(d.rng.Intn(small))
				if err := e.Agent().CopyRowIdx(j, j); err != nil {
					t.Fatal(err)
				}
				d.checkSeed(int32(d.rng.Intn(small)))
			}
			ag := e.Agent()
			unseen := func() int32 {
				for {
					if i := int32(d.rng.Intn(small)); !ag.HasStateIdx(i) {
						return i
					}
				}
			}
			d.checkSeed(unseen()) // leaves the list in sync with the agent
			e.States.Disable(f)
			if e.States.Size() != small {
				t.Fatalf("disabled grid has %d states, want %d", e.States.Size(), small)
			}
			for n := 0; n < 50; n++ {
				d.checkSeed(unseen())
			}
			if e.Agent() != ag {
				t.Fatal("the agent changed across Disable")
			}
			for n := 0; n < 800; n++ {
				d.step(small, keys)
			}
			if d.seeded < 300 || d.predicts < 30 || d.foreignDonors == 0 {
				t.Fatalf("weak coverage: %d seeds, %d predicts, %d foreign donors",
					d.seeded, d.predicts, d.foreignDonors)
			}
		})
	}
}

// BenchmarkNeighborSeed measures one seeding scan over an agent with 512
// materialized rows: "list" is the engine's seeding list, "fullscan"
// the reference sweep of the whole grid it replaced. The row copy itself is
// excluded; both find the donor for a never-seen state.
func BenchmarkNeighborSeed(b *testing.B) {
	e, err := NewEngine(sim.NewWorld(soc.Mi8Pro(), 1), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	ag := e.Agent()
	rng := rand.New(rand.NewSource(5))
	size := e.States.Size()
	for ag.NumStates() < 512 {
		j := int32(rng.Intn(size))
		if err := ag.CopyRowIdx(j, j); err != nil {
			b.Fatal(err)
		}
	}
	var targets [][NumFeatures]int
	var unseen []int32
	for i := int32(0); int(i) < size && len(targets) < 256; i += 7 {
		var bins [NumFeatures]int
		if !ag.HasStateIdx(i) && e.States.BinsOf(i, &bins) {
			targets = append(targets, bins)
			unseen = append(unseen, i)
		}
	}
	b.Run("list", func(b *testing.B) {
		e.seeds.sync(e.States, e.States.cacheLoad(), ag)
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if _, ok := e.seeds.nearest(&targets[n%len(targets)]); !ok {
				b.Fatal("no donor")
			}
		}
	})
	b.Run("fullscan", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, ok := refNearest(e, ag, unseen[n%len(unseen)]); !ok {
				b.Fatal("no donor")
			}
		}
	})
}

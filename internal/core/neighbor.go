package core

import (
	"math"
	"strconv"
	"strings"

	"autoscale/internal/rl"
)

// State-lattice generalization. Tabular Q-learning has no notion of state
// similarity, yet the paper's leave-one-out evaluation tests each network
// with a table trained on the *other* networks — whose layer-count and MAC
// bins need not coincide — and reports that "an RL model trained in a device
// has this energy trend knowledge implicitly" (Section IV). We realize that
// implicit generalization explicitly: when the engine first observes a state
// with no Q row, it seeds the row from the nearest trained state on the
// feature lattice. A mismatch on the NN features (layer counts, MACs) costs
// nnWeight times a runtime-variance mismatch, so the donor is the same
// network under the nearest variance when one is trained, and the nearest
// network otherwise. Online learning then refines the seeded row.
// DESIGN.md documents this substitution.

// parseKey splits a state key into per-feature bin indices; disabled
// features ("*") parse as -1.
func parseKey(s rl.State) ([NumFeatures]int, bool) {
	var bins [NumFeatures]int
	parts := strings.Split(string(s), "|")
	if len(parts) != NumFeatures {
		return bins, false
	}
	for i, p := range parts {
		if p == "*" {
			bins[i] = -1
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return bins, false
		}
		bins[i] = v
	}
	return bins, true
}

// nnWeight makes mismatches on NN features much more expensive than
// runtime-variance mismatches: a state of the *same network* under different
// variance is a far better donor than a different network under the same
// variance, because the action ranking is dominated by the network's
// compute/memory profile and the engine re-adapts to variance online within
// a few runs.
const nnWeight = 100

// featureWeight is the per-feature cost of one bin of mismatch.
var featureWeight = [NumFeatures]int{
	FeatConv: nnWeight, FeatFC: nnWeight, FeatRC: nnWeight, FeatMAC: nnWeight,
	FeatCoCPU: 1, FeatCoMem: 1, FeatRSSIW: 1, FeatRSSIP: 1,
}

// stateDistance is the weighted lattice distance between two bin vectors;
// a feature ablated on either side (bin -1) counts nothing.
func stateDistance[B int | int32](a [NumFeatures]int, b [NumFeatures]B) int {
	d := 0
	for f := 0; f < NumFeatures; f++ {
		bf := int(b[f])
		if a[f] < 0 || bf < 0 {
			continue // ablated feature
		}
		diff := a[f] - bf
		if diff < 0 {
			diff = -diff
		}
		d += diff * featureWeight[f]
	}
	return d
}

// seedRow is one materialized state in the seeding list: its dense index
// and its per-feature bins (-1 on ablated features). The bins are int32,
// not int, because the list lives as long as the engine and full-width
// rows cost fig9's offline run a quarter more live heap (DESIGN.md §14).
// Grid bins always fit int32, since a grid's size does. A foreign key's bin past that range is
// stored as math.MaxInt32 and over holds the rest of its distance: every
// grid target's bin lies below the stored one, so that rest is the same
// for every target.
type seedRow struct {
	idx  int32
	bins [NumFeatures]int32
	over int
}

// seedList is the engine's copy of the agent's materialized rows, decoded
// once when each row joins it, so a seeding scan is a loop over fixed-size
// records instead of a sweep of the whole grid. The list describes one
// agent under one grid layout: it is valid while the agent pointer, the
// state space's intern cache (Disable replaces it) and the agent's
// materialized-row count all match what it was built against. Rows are
// never dematerialized, so an unchanged count means an unchanged set.
// Guarded by Engine.mu.
type seedList struct {
	agent *rl.Agent
	cache *internCache
	n     int // ag.NumStates() the list accounts for
	rows  []seedRow
}

// sync makes the list describe ag under grid layout c, rebuilding it with
// one flag sweep when anything it depends on changed.
func (l *seedList) sync(s *StateSpace, c *internCache, ag *rl.Agent) {
	n := ag.NumStates()
	if l.agent == ag && l.cache == c && l.n == n {
		return
	}
	// The count is read before the sweep: a row another writer publishes
	// meanwhile is then either swept or left uncounted, which forces the
	// next call to rebuild again.
	l.agent, l.cache, l.n = ag, c, n
	l.rows = l.rows[:0]
	for j := range ag.Materialized() {
		l.add(s, c, ag, j)
	}
}

// add decodes row j and appends it to the list. Grid rows decode their
// index; foreign overflow rows parse their key, and rows whose key does not
// parse never donate.
func (l *seedList) add(s *StateSpace, c *internCache, ag *rl.Agent, j int32) {
	var b [NumFeatures]int
	if !s.binsIn(c, j, &b) {
		pb, ok := parseKey(ag.KeyOf(j))
		if !ok {
			return
		}
		b = pb
	}
	r := seedRow{idx: j}
	for f, v := range b {
		switch {
		case v < 0:
			r.bins[f] = -1
		case v > math.MaxInt32:
			r.bins[f] = math.MaxInt32
			if s.Enabled(Feature(f)) {
				r.over += (v - math.MaxInt32) * featureWeight[f]
			}
		default:
			r.bins[f] = int32(v)
		}
	}
	l.rows = append(l.rows, r)
}

// nearest returns the listed row at the smallest stateDistance from target;
// ties go to the lowest index, which is the first-wins choice of a scan in
// ascending index order.
func (l *seedList) nearest(target *[NumFeatures]int) (int32, bool) {
	bestDist, best := 0, int32(-1)
	for k := range l.rows {
		r := &l.rows[k]
		d := stateDistance(*target, r.bins) + r.over
		if best < 0 || d < bestDist || (d == bestDist && r.idx < best) {
			bestDist, best = d, r.idx
		}
	}
	return best, best >= 0
}

// seedIfUnseenIdx seeds the Q row of the state at dense index i from the
// nearest materialized state and reports the donor. It is a no-op when the
// state already has a row or no other state exists. Caller holds e.mu.
func (e *Engine) seedIfUnseenIdx(ag *rl.Agent, i int32) (donor int32, seeded bool) {
	if ag.HasStateIdx(i) {
		return 0, false
	}
	c := e.States.cacheLoad()
	var target [NumFeatures]int
	if !e.States.binsIn(c, i, &target) {
		return 0, false
	}
	l := &e.seeds
	l.sync(e.States, c, ag)
	best, ok := l.nearest(&target)
	if !ok {
		return 0, false
	}
	before := ag.NumStates()
	// Both indices are interned, so the copy cannot fail.
	_ = ag.CopyRowIdx(i, best)
	if before == l.n && ag.NumStates() == before+1 {
		// Exactly one row appeared, and i now has one: it is i.
		l.add(e.States, c, ag, i)
		l.n++
	} else {
		l.agent = nil // another writer raced the copy; rebuild next time
	}
	return best, true
}

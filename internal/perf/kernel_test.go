package perf

import (
	"math"
	"math/rand"
	"testing"

	"autoscale/internal/dnn"
	"autoscale/internal/interfere"
	"autoscale/internal/soc"
)

// refLayerLatency is the per-layer formula as it stood before the prepared
// kernel: every factor recomputed, every operand in the same order. The
// kernel must reproduce it bit for bit.
func refLayerLatency(e Exec, l dnn.Layer, pen interfere.Penalties) float64 {
	p := e.Proc
	freq := p.FreqRatio(e.Step)
	throttle := 1.0
	if p.Kind == soc.CPU {
		throttle = soc.ThrottleFactor(soc.CPU, pen.SustainedCPUUtil)
	}
	rate := p.PeakGMACs * 1e9 * freq * throttle * p.Eff(l.Type) * p.PrecisionSpeedup(e.Prec)
	if p.Kind == soc.CPU {
		rate *= pen.CPUShare
		rate /= pen.CPUComputeSlowdown
	} else {
		rate /= pen.CoprocSlowdown
	}
	tCompute := l.MACs / rate
	bytes := (l.WeightBytes + l.ActivationBytes) * e.Prec.BytesPerValue() / 4
	tMem := bytes / (p.MemBWGBs * 1e9) * pen.MemSlowdown
	t := tCompute
	if tMem > t {
		t = tMem
	}
	return t + p.Overhead(l.Type)
}

// kernelSystems are the phones, the connected tablet and the cloud server.
func kernelSystems() []*soc.Device {
	return append(soc.Phones(), soc.GalaxyTabS6(), soc.CloudServer())
}

// TestModelLatencyBitIdentical checks, over every zoo model x processor x
// supported precision x DVFS step, idle and under random co-runners, that
// ModelLatency is the in-order sum of LayerLatency, that every layer matches
// the reference formula, and that PerLayerLatencies, LatencyByType and
// LayersLatency over a prefix agree with it — all compared as bit patterns.
func TestModelLatencyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pens := []interfere.Penalties{NoInterference()}
	for i := 0; i < 3; i++ {
		pens = append(pens, interfere.PenaltiesFor(interfere.Load{CPUUtil: rng.Float64(), MemUtil: rng.Float64()}))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	checked := 0
	for _, dev := range kernelSystems() {
		for _, p := range dev.Processors {
			for _, prec := range p.Precisions {
				for step := 0; step < p.Steps; step++ {
					e := Exec{Proc: p, Step: step, Prec: prec}
					for _, pen := range pens {
						for _, m := range dnn.Zoo() {
							var sum float64
							byType := make(map[dnn.LayerType]float64)
							per := PerLayerLatencies(e, m, pen)
							for i, l := range m.Layers {
								got := LayerLatency(e, l, pen)
								if want := refLayerLatency(e, l, pen); !same(got, want) {
									t.Fatalf("%s %s@%d/%s layer %d: %v, reference %v", m.Name, p.Name, step, prec, i, got, want)
								}
								if !same(per[i], got) {
									t.Fatalf("%s %s@%d/%s: PerLayerLatencies[%d] %v != %v", m.Name, p.Name, step, prec, i, per[i], got)
								}
								sum += got
								byType[l.Type] += got
							}
							if got := ModelLatency(e, m, pen); !same(got, sum) {
								t.Fatalf("%s %s@%d/%s: ModelLatency %v != sum %v", m.Name, p.Name, step, prec, got, sum)
							}
							cut := len(m.Layers) / 2
							var prefix float64
							for _, l := range m.Layers[:cut] {
								prefix += refLayerLatency(e, l, pen)
							}
							if got := LayersLatency(e, m.Layers[:cut], pen); !same(got, prefix) {
								t.Fatalf("%s %s@%d/%s: LayersLatency of %d layers %v != %v", m.Name, p.Name, step, prec, cut, got, prefix)
							}
							for typ, v := range LatencyByType(e, m, pen) {
								if !same(v, byType[typ]) {
									t.Fatalf("%s %s@%d/%s: LatencyByType[%s] %v != %v", m.Name, p.Name, step, prec, typ, v, byType[typ])
								}
							}
							checked++
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no configuration checked")
	}
}

// A layer type outside the defined range is evaluated on demand with the
// same defaults as before (efficiency 0.5, no overhead entry).
func TestKernelUnknownLayerType(t *testing.T) {
	l := dnn.Layer{Type: dnn.LayerType(dnn.NumLayerTypes + 3), MACs: 1e6, WeightBytes: 1e3, ActivationBytes: 1e3}
	for _, e := range []Exec{mi8CPU(), mi8GPU(), mi8DSP()} {
		pen := interfere.PenaltiesFor(interfere.Load{CPUUtil: 0.4, MemUtil: 0.3})
		if got, want := LayerLatency(e, l, pen), refLayerLatency(e, l, pen); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: %v, reference %v", e.Proc.Name, got, want)
		}
	}
}

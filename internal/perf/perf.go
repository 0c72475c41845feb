// Package perf is the latency model of the simulator: it converts a model's
// layers, an execution configuration (processor, DVFS step, precision), and
// the current interference conditions into per-layer and end-to-end compute
// latencies. The model is a roofline per layer — compute time versus memory
// time, whichever dominates — plus a per-layer dispatch overhead, scaled by
// DVFS, precision, thermal throttling, and co-runner contention. Its purpose
// is to reproduce the *relative* processor/layer profiles of Fig 3 of the
// paper, which is what drives every scheduling decision.
package perf

import (
	"errors"

	"autoscale/internal/dnn"
	"autoscale/internal/interfere"
	"autoscale/internal/soc"
)

// Exec is one execution configuration on a specific engine.
type Exec struct {
	Proc *soc.Processor
	// Step is the DVFS step (0 = slowest); ignored by single-step engines.
	Step int
	// Prec is the numeric precision to run at.
	Prec dnn.Precision
}

// Validate checks that the configuration is executable at all (precision
// supported, step meaningful). Model compatibility (RC layers) is checked
// per model by CanRun.
func (e Exec) Validate() error {
	if e.Proc == nil {
		return errors.New("perf: nil processor")
	}
	if !e.Proc.SupportsPrecision(e.Prec) {
		return errors.New("perf: precision not supported by " + e.Proc.Name)
	}
	return nil
}

// CanRun reports whether the configuration can execute model m.
func (e Exec) CanRun(m *dnn.Model) bool {
	return e.Proc != nil && e.Proc.CanRun(m, e.Prec)
}

// kernel is an execution configuration prepared against one penalty set:
// the layer-independent factors of the latency model (DVFS frequency,
// thermal throttling, precision speedup and footprint, co-runner
// contention) folded once into a compute rate and dispatch overhead per
// layer type, so timing a layer costs one division, one roofline compare
// and one add. It is the only implementation of the latency formula; every
// exported latency function evaluates through it. Fixed-seed results
// depend on these floats bit for bit, so every product keeps its operand
// order: base, then efficiency, then precision speedup, then the co-runner
// factors.
type kernel struct {
	proc *soc.Processor
	prec dnn.Precision
	pen  interfere.Penalties
	// base is peak MACs x DVFS frequency x thermal cap, before the
	// layer-type efficiency.
	base float64
	// rate and overhead are per layer type; layer types outside
	// [0, NumLayerTypes) are evaluated on demand.
	rate     [dnn.NumLayerTypes]float64
	overhead [dnn.NumLayerTypes]float64
	bpv      float64 // bytes per value at the precision
	bw       float64 // bytes per second of memory bandwidth
}

// prepare folds an execution configuration and a penalty set into k.
func (k *kernel) prepare(e Exec, pen interfere.Penalties) {
	p := e.Proc
	throttle := 1.0
	if p.Kind == soc.CPU {
		throttle = soc.ThrottleFactor(soc.CPU, pen.SustainedCPUUtil)
	}
	k.proc, k.prec, k.pen = p, e.Prec, pen
	k.base = p.PeakGMACs * 1e9 * p.FreqRatio(e.Step) * throttle
	k.bpv = e.Prec.BytesPerValue()
	k.bw = p.MemBWGBs * 1e9
	for t := range k.rate {
		k.rate[t] = k.rateFor(dnn.LayerType(t))
		k.overhead[t] = p.Overhead(dnn.LayerType(t))
	}
}

// rateFor is the effective compute rate for one layer type: the base rate
// x layer-type efficiency x precision speedup, shared with co-runners on
// the CPU and DMA-stalled on co-processors under memory pressure.
func (k *kernel) rateFor(t dnn.LayerType) float64 {
	p := k.proc
	rate := k.base * p.Eff(t) * p.PrecisionSpeedup(k.prec)
	if p.Kind == soc.CPU {
		rate *= k.pen.CPUShare
		rate /= k.pen.CPUComputeSlowdown
	} else {
		rate /= k.pen.CoprocSlowdown
	}
	return rate
}

// layer returns the latency in seconds of one layer.
func (k *kernel) layer(l *dnn.Layer) float64 {
	var rate, overhead float64
	if t := l.Type; t >= 0 && int(t) < dnn.NumLayerTypes {
		rate, overhead = k.rate[t], k.overhead[t]
	} else {
		rate, overhead = k.rateFor(t), k.proc.Overhead(t)
	}
	tCompute := l.MACs / rate

	// Memory time: weights and activations at the precision's footprint
	// over the engine's effective bandwidth, inflated by memory-hog
	// co-runners. Bandwidth does not scale with engine frequency.
	bytes := (l.WeightBytes + l.ActivationBytes) * k.bpv / 4
	tMem := bytes / k.bw * k.pen.MemSlowdown

	// Roofline: the layer is bound by the slower of the two paths, plus
	// the fixed dispatch overhead for this layer type.
	t := tCompute
	if tMem > t {
		t = tMem
	}
	return t + overhead
}

// LayerLatency returns the latency in seconds of one layer under the given
// interference penalties.
func LayerLatency(e Exec, l dnn.Layer, pen interfere.Penalties) float64 {
	var k kernel
	k.prepare(e, pen)
	return k.layer(&l)
}

// LayersLatency returns the summed latency of a run of layers executed on
// one configuration, accumulated in order.
func LayersLatency(e Exec, layers []dnn.Layer, pen interfere.Penalties) float64 {
	var k kernel
	k.prepare(e, pen)
	var t float64
	for i := range layers {
		t += k.layer(&layers[i])
	}
	return t
}

// PerLayerLatencies returns the latency of every layer of m in order.
func PerLayerLatencies(e Exec, m *dnn.Model, pen interfere.Penalties) []float64 {
	var k kernel
	k.prepare(e, pen)
	out := make([]float64, len(m.Layers))
	for i := range m.Layers {
		out[i] = k.layer(&m.Layers[i])
	}
	return out
}

// ModelLatency returns the end-to-end compute latency of m (excluding any
// network transfer, which the sim package adds for offloaded targets).
func ModelLatency(e Exec, m *dnn.Model, pen interfere.Penalties) float64 {
	return LayersLatency(e, m.Layers, pen)
}

// LatencyByType aggregates per-layer latency by layer type — the quantity
// Fig 3 of the paper plots.
func LatencyByType(e Exec, m *dnn.Model, pen interfere.Penalties) map[dnn.LayerType]float64 {
	var k kernel
	k.prepare(e, pen)
	out := make(map[dnn.LayerType]float64)
	for i := range m.Layers {
		out[m.Layers[i].Type] += k.layer(&m.Layers[i])
	}
	return out
}

// NoInterference returns the penalty set of an otherwise idle device.
func NoInterference() interfere.Penalties {
	return interfere.PenaltiesFor(interfere.Load{})
}

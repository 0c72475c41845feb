package main

import (
	"fmt"
	"time"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// served is one recorded served request: the lane hardware it ran on, its
// inputs and the energy the program reported. The recorded stream feeds the
// quality references (Edge CPU and Opt energy for the same inputs) and the
// core/sim replay of the traced run.
type served struct {
	hw      string
	model   *dnn.Model
	cond    sim.Conditions
	energyJ float64
}

// sampleCap bounds the recorded stream; requests are recorded at a fixed
// stride, so the sample is a deterministic function of the request order.
const sampleCap = 12000

func device(name string) (*soc.Device, error) {
	for _, d := range soc.Phones() {
		if d.Name == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("unknown phone %q", name)
}

// refEnergy returns, summed over the sample, the reported energy and the
// noise-free energy of the same requests on Edge (CPU FP32) and on the Opt
// oracle's target (the paper's two PPW normalizers).
func refEnergy(sample []served, seed int64, intensity sim.Intensity) (got, edgeCPU, opt float64, err error) {
	worlds := map[string]*sim.World{}
	for _, s := range sample {
		w := worlds[s.hw]
		if w == nil {
			d, err := device(s.hw)
			if err != nil {
				return 0, 0, 0, err
			}
			w = sim.NewWorld(d, seed)
			worlds[s.hw] = w
		}
		cpu := w.Device.Processor(soc.CPU)
		ec, err := w.Expected(s.model, sim.Target{Location: sim.Local, Kind: soc.CPU, Step: cpu.Steps - 1, Prec: dnn.FP32}, s.cond)
		if err != nil {
			return 0, 0, 0, err
		}
		qos := sim.QoSFor(s.model.Task == dnn.Translation, intensity)
		_, best, err := w.BestTarget(s.model, s.cond, qos, 0)
		if err != nil {
			return 0, 0, 0, err
		}
		got += s.energyJ
		edgeCPU += ec.EnergyJ
		opt += best.EnergyJ
	}
	return got, edgeCPU, opt, nil
}

// addQuality reports the PPW ratios of the recorded stream: PPW is
// inferences per joule, so a ratio of PPWs is the inverse ratio of energies.
func addQuality(rep *report, sample []served, seed int64, intensity sim.Intensity) error {
	got, cpu, opt, err := refEnergy(sample, seed, intensity)
	if err != nil {
		return err
	}
	if got <= 0 {
		return fmt.Errorf("recorded stream has no energy")
	}
	rep.add("ppw_vs_edge_cpu", cpu/got, "x", len(sample))
	rep.add("ppw_vs_opt", opt/got, "ratio", len(sample))
	return nil
}

// replayLayers replays the recorded stream on a standalone engine per lane
// hardware and times the decide path's parts from outside: a full learning
// step, a frozen greedy lookup, the state observation, and the simulator's
// noisy and noise-free execution of the chosen target.
func replayLayers(rep *report, sample []served, seed int64) error {
	engines := map[string]*core.Engine{}
	var step, predict, observe, execute, expected time.Duration
	for _, s := range sample {
		e := engines[s.hw]
		if e == nil {
			d, err := device(s.hw)
			if err != nil {
				return err
			}
			cfg := core.DefaultConfig()
			cfg.Seed = seed
			if e, err = core.NewEngine(sim.NewWorld(d, seed), cfg); err != nil {
				return err
			}
			engines[s.hw] = e
		}
		t := time.Now()
		dec, err := e.RunInference(s.model, s.cond)
		step += time.Since(t)
		if err != nil {
			return err
		}
		t = time.Now()
		idx := e.States.Index(core.ObservationOf(s.model, s.cond))
		observe += time.Since(t)
		if idx < 0 {
			return fmt.Errorf("replay: no state index for %s", s.model.Name)
		}
		t = time.Now()
		_, err = e.World.Execute(s.model, dec.Target, s.cond)
		execute += time.Since(t)
		if err != nil {
			return err
		}
		t = time.Now()
		_, err = e.World.Expected(s.model, dec.Target, s.cond)
		expected += time.Since(t)
		if err != nil {
			return err
		}
	}
	for _, e := range engines {
		e.Freeze()
	}
	for _, s := range sample {
		t := time.Now()
		_, err := engines[s.hw].Predict(s.model, s.cond)
		predict += time.Since(t)
		if err != nil {
			return err
		}
	}
	n := float64(len(sample))
	per := func(d time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / n
	}
	rep.add("core.step_ns", per(step), "ns", len(sample))
	rep.add("core.predict_ns", per(predict), "ns", len(sample))
	rep.add("core.observe_ns", per(observe), "ns", len(sample))
	rep.add("core.self_ns", per(step-observe-execute), "ns", len(sample))
	rep.add("sim.execute_ns", per(execute), "ns", len(sample))
	rep.add("sim.expected_ns", per(expected), "ns", len(sample))
	return nil
}

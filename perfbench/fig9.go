package main

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/exp"
	"autoscale/internal/sched"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// fig9_offline regenerates the paper's Fig 9 with exp.Run at exp.Quick
// fidelity, one regeneration per pass, each pass on its own seed derived
// from --seed (pass 0 uses --seed itself). The timed regenerations run their
// cells one at a time (exp.Options.Parallel = 1). exp's pool admits cells in
// whatever order their goroutines reach it; with Fig 9's 24 cells of very
// unequal size on two workers, that order decides how long one worker idles
// at the end, and one competing thread on a 2-core host slowed the parallel
// regeneration by about 30%. Serially neither applies: the same competing
// thread left the median pass time within 1%. Every pass also rebuilds the same
// table from the exported harness pieces, with each policy behind a
// decorator that forwards RunCtx and Warmup, and checks the rebuilt table is
// byte-identical to exp.Run's: that proves the decorator does not perturb
// results, and gives the per-decision numbers exp.Run does not expose.

var fig9Order = []string{"Edge (CPU FP32)", "Edge (Best)", "Cloud", "Connected Edge",
	"MOSAIC", "NeuroSurgeon", "AutoScale", "Opt"}

const fig9Intensity = sim.NonStreaming

func passSeed(seed int64, pass int) int64 { return seed + int64(pass)*1_000_003 }

// timedOptions are the options of a timed regeneration at seed.
func timedOptions(seed int64) exp.Options {
	opts := exp.Quick(seed)
	opts.Parallel = 1
	return opts
}

// decisionLog collects the AutoScale decisions of one rebuild.
type decisionLog struct {
	wallUS  []float64
	energyJ []float64
	latS    []float64
	sample  []served
	stride  int
	seen    int
}

func (d *decisionLog) merge(o *decisionLog) {
	d.wallUS = append(d.wallUS, o.wallUS...)
	d.energyJ = append(d.energyJ, o.energyJ...)
	d.latS = append(d.latS, o.latS...)
	d.sample = append(d.sample, o.sample[:min(len(o.sample), sampleCap-len(d.sample))]...)
}

// timedPolicy forwards a baseline or Opt policy and records one span per
// call.
type timedPolicy struct {
	inner sched.ContextPolicy
	layer string
	ln    *lane
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Run(m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	return p.RunCtx(nil, m, c)
}

func (p *timedPolicy) RunCtx(ctx *exec.Context, m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	p.ln.begin(p.layer)
	defer p.ln.end()
	return p.inner.RunCtx(ctx, m, c)
}

// timedLOO forwards the leave-one-out AutoScale policy. It trains each
// held-out model's engine (EngineFor) under its own span before the first
// call for that model — the same lazy step the policy would take inside
// that call — and times every decision.
type timedLOO struct {
	inner   *exp.LeaveOneOutAutoScale
	ln      *lane
	log     *decisionLog
	hw      string
	trained map[string]bool
	trainNS int64
	warm    int64 // warm-up inferences
	warmNS  int64
}

func (p *timedLOO) Name() string { return p.inner.Name() }

func (p *timedLOO) Run(m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	return p.RunCtx(nil, m, c)
}

func (p *timedLOO) train(m *dnn.Model) error {
	if p.trained[m.Name] {
		return nil
	}
	p.trained[m.Name] = true
	p.ln.begin("exp.train")
	defer p.ln.end()
	t := time.Now()
	_, err := p.inner.EngineFor(m)
	p.trainNS += int64(time.Since(t))
	return err
}

func (p *timedLOO) RunCtx(ctx *exec.Context, m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	if err := p.train(m); err != nil {
		return sim.Measurement{}, err
	}
	p.ln.begin("exp.autoscale")
	t := time.Now()
	meas, err := p.inner.RunCtx(ctx, m, c)
	wall := time.Since(t)
	p.ln.end()
	if err != nil {
		return meas, err
	}
	l := p.log
	l.wallUS = append(l.wallUS, float64(wall)/1e3)
	l.energyJ = append(l.energyJ, meas.EnergyJ)
	l.latS = append(l.latS, meas.LatencyS)
	if l.seen%l.stride == 0 {
		l.sample = append(l.sample, served{hw: p.hw, model: m, cond: c, energyJ: meas.EnergyJ})
	}
	l.seen++
	return meas, nil
}

func (p *timedLOO) Warmup(m *dnn.Model, sample func() sim.Conditions, runs int) error {
	if err := p.train(m); err != nil {
		return err
	}
	p.ln.begin("exp.warmup")
	defer p.ln.end()
	t := time.Now()
	err := p.inner.Warmup(m, sample, runs)
	p.warmNS += int64(time.Since(t))
	p.warm += int64(runs)
	return err
}

// fig9Rebuild is one rebuild of Fig 9 from the exported pieces.
type fig9Rebuild struct {
	table   *exp.Table
	wall    time.Duration
	busy    time.Duration // summed cell time
	log     decisionLog
	ppwCPU  float64 // AutoScale PPW over Edge CPU, mean of phones
	ppwOpt  float64 // AutoScale PPW over Opt, mean of phones
	qosViol float64 // AutoScale QoS violation ratio, mean of phones
	trainNS int64
	warm    int64
	warmNS  int64
	infer   int
}

// rebuildFig9 evaluates Fig 9's 24 cells on GOMAXPROCS workers with the
// policies behind timing decorators, exactly as exp's figure code builds
// them, and renders the table with ref's title, columns and notes.
func rebuildFig9(opts exp.Options, ref *exp.Table, tr *tracer) (*fig9Rebuild, error) {
	models := dnn.Zoo()
	envs := sim.StaticEnvIDs()
	cells := exp.Cells(models, envs)
	phones := soc.Phones()
	n := len(phones) * len(fig9Order)
	results := make([]exp.Result, n)
	errs := make([]error, n)
	logs := make([]*decisionLog, n)
	loos := make([]*timedLOO, n)
	var next atomic.Int64
	var busy atomic.Int64
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ln := tr.lane()
			ln.begin(rootSpan)
			defer ln.end()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				ln.setReq(uint64(i))
				ln.begin("exp.cell")
				t := time.Now()
				di, pi := i/len(fig9Order), i%len(fig9Order)
				world := sim.NewWorld(phones[di], opts.Seed+int64(di))
				cfg := exp.EvalConfig{Models: models, EnvIDs: envs, Runs: opts.Runs,
					Intensity: fig9Intensity, Seed: opts.Seed + 10 + int64(di), WarmupRuns: opts.Warmup}
				var p sched.Policy
				switch name := fig9Order[pi]; name {
				case "AutoScale":
					logs[i] = &decisionLog{stride: 8}
					loos[i] = &timedLOO{inner: newLOO(world, opts), ln: ln, log: logs[i],
						hw: phones[di].Name, trained: map[string]bool{}}
					p = loos[i]
				case "Opt":
					p = &timedPolicy{inner: sched.Opt{World: world, Intensity: fig9Intensity}, layer: "sched.opt", ln: ln}
				default:
					p = &timedPolicy{inner: baseline(world, name), layer: "sched.baseline", ln: ln}
				}
				results[i], errs[i] = exp.EvaluatePolicy(p, cfg)
				busy.Add(int64(time.Since(t)))
				ln.end()
			}
		}()
	}
	wg.Wait()
	out := &fig9Rebuild{wall: time.Since(start), busy: time.Duration(busy.Load())}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	t := &exp.Table{ID: ref.ID, Title: ref.Title, Columns: ref.Columns, Notes: ref.Notes}
	for di, dev := range phones {
		base := results[di*len(fig9Order)]
		var as, opt exp.Result
		for pi, name := range fig9Order {
			r := results[di*len(fig9Order)+pi]
			t.AddRow(dev.Name, name, r.MeanNormPPW(base, cells), r.MeanQoSViolation(cells))
			out.infer += r.Inferences
			switch name {
			case "AutoScale":
				as = r
			case "Opt":
				opt = r
			}
		}
		asPPW := as.MeanNormPPW(base, cells)
		out.ppwCPU += asPPW / float64(len(phones))
		out.ppwOpt += asPPW / opt.MeanNormPPW(base, cells) / float64(len(phones))
		out.qosViol += as.MeanQoSViolation(cells) / float64(len(phones))
	}
	for i, l := range logs {
		if l != nil {
			out.log.merge(l)
			out.trainNS += loos[i].trainNS
			out.warm += loos[i].warm
			out.warmNS += loos[i].warmNS
		}
	}
	out.table = t
	return out, nil
}

// newLOO builds the leave-one-out AutoScale policy with the seeds exp's
// figure code derives from the options.
func newLOO(w *sim.World, opts exp.Options) *exp.LeaveOneOutAutoScale {
	cfg := core.DefaultConfig()
	cfg.Seed = opts.Seed
	cfg.RL.Seed = opts.Seed + 100
	return &exp.LeaveOneOutAutoScale{
		World:  w,
		Config: cfg,
		Train: exp.TrainConfig{
			Models:       dnn.Zoo(),
			RunsPerState: opts.TrainRuns,
			Intensity:    fig9Intensity,
			Seed:         opts.Seed + 200,
		},
	}
}

func baseline(w *sim.World, name string) sched.ContextPolicy {
	switch name {
	case "Edge (CPU FP32)":
		return sched.EdgeCPU{World: w}
	case "Edge (Best)":
		return &sched.EdgeBest{World: w, Intensity: fig9Intensity}
	case "Cloud":
		return sched.CloudAll{World: w}
	case "Connected Edge":
		return &sched.ConnectedEdge{World: w, Intensity: fig9Intensity}
	case "MOSAIC":
		return &sched.MOSAIC{World: w, Intensity: fig9Intensity}
	default:
		return &sched.NeuroSurgeon{World: w, Intensity: fig9Intensity}
	}
}

func render(t *exp.Table) []byte {
	var b bytes.Buffer
	t.Fprint(&b)
	return b.Bytes()
}

// fig9Pass is one timed exp.Run regeneration, with its allocation counts,
// and the rebuilds checked against it.
type fig9Pass struct {
	runS     float64
	stealPct float64
	mem      memDelta
	rebuilds []*fig9Rebuild
}

// runFig9Pass times one exp.Run regeneration, then rebuilds the table once
// per given tracer (nil for an untraced rebuild) and checks every rebuild
// is byte-identical to exp.Run's table.
func runFig9Pass(rep *report, seed int64, tracers ...*tracer) (*fig9Pass, error) {
	opts := timedOptions(seed)
	before := readMem()
	sw := startWatch()
	tab, err := exp.Run("fig9", opts)
	p := &fig9Pass{mem: memSince(before)}
	p.runS, p.stealPct = sw.seconds()
	if err != nil {
		return nil, err
	}
	for _, tr := range tracers {
		rb, err := rebuildFig9(opts, tab, tr)
		if err != nil {
			return nil, err
		}
		want, got := render(tab), render(rb.table)
		rep.check(bytes.Equal(want, got), "seed %d (traced %v): rebuilt Fig 9 differs from exp.Run:\n%s\nvs\n%s",
			seed, tr != nil, got, want)
		p.rebuilds = append(p.rebuilds, rb)
	}
	return p, nil
}

func runFig9(c config) (*report, error) {
	rep := &report{}
	if c.trace {
		return rep, traceFig9(rep, c)
	}
	// Set-up is the fidelity-independent cost of one regeneration: building
	// worlds, engines, policies and the pool, and one pass over every path,
	// at one run per cell and state. Repeated; the median is reported.
	var setups []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		opts := exp.Options{Seed: passSeed(c.seed, -1-i), Runs: 1, TrainRuns: 1, Warmup: 1, Parallel: 1}
		if _, err := exp.Run("fig9", opts); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	heap := startHeapSampler()
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	pt := passTimes{setups: setups}
	var latMS, heapMB []float64
	var energyJ, ppwCPU, ppwOpt, qos float64
	infer, autoscale := 0, 0
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		p, err := runFig9Pass(rep, passSeed(c.seed, pass), nil)
		if err != nil {
			return nil, err
		}
		rb := p.rebuilds[0]
		pt.pass(p.runS, p.stealPct, rb.infer, rb.log.wallUS)
		for _, l := range rb.log.latS {
			latMS = append(latMS, 1e3*l)
		}
		for _, e := range rb.log.energyJ {
			energyJ += e
		}
		autoscale += len(rb.log.energyJ)
		ppwCPU += rb.ppwCPU
		ppwOpt += rb.ppwOpt
		qos += rb.qosViol
		infer += rb.infer
		heapMB = append(heapMB, heap.take())
	}
	heap.stop()
	passes := float64(len(pt.runs))
	rep.attempted = int64(infer)
	pt.addTo(rep)
	rep.add("miss_pct", 100*qos/passes, "%", autoscale)
	rep.add("qos_violation_pct", 100*qos/passes, "%", autoscale)
	rep.add("energy_mj_per_inf", 1e3*energyJ/float64(autoscale), "mJ", autoscale)
	rep.add("vresp_p95_ms", smoothQuantile(latMS, 0.95), "ms", autoscale)
	rep.add("ppw_vs_edge_cpu", ppwCPU/passes, "x", len(pt.runs))
	rep.add("ppw_vs_opt", ppwOpt/passes, "ratio", len(pt.runs))
	rep.add("peak_heap_mb", quantile(heapMB, 0.5), "MB", len(heapMB))
	rep.note("fig9_offline: %d regenerations at exp.Quick, %d policy decisions each, cells run one at a time",
		len(pt.runs), infer/len(pt.runs))
	return rep, nil
}

// traceFig9 is the traced run: each pass runs exp.Run, an untraced rebuild
// and a traced rebuild; tracing overhead compares the two rebuilds.
func traceFig9(rep *report, c config) error {
	tr := newTracer()
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	var plain, traced []float64
	var busy, wall time.Duration
	var sample []served
	var trainNS, warmNS, warm int64
	var mems []memDelta
	infer := 0
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		p, err := runFig9Pass(rep, passSeed(c.seed, pass), nil, tr)
		if err != nil {
			return err
		}
		mems = append(mems, p.mem)
		plain = append(plain, p.rebuilds[0].wall.Seconds())
		infer += p.rebuilds[0].infer
		rb := p.rebuilds[1]
		traced = append(traced, rb.wall.Seconds())
		busy += rb.busy
		wall += rb.wall
		sample = append(sample, rb.log.sample[:min(len(rb.log.sample), sampleCap-len(sample))]...)
		trainNS += rb.trainNS
		warmNS += rb.warmNS
		warm += rb.warm
	}
	rep.attempted = int64(infer)
	t := tr.times()
	rep.add("sched.baseline_ns", meanNS(t, "sched.baseline"), "ns", int(t["sched.baseline"].calls))
	rep.add("sched.opt_ns", meanNS(t, "sched.opt"), "ns", int(t["sched.opt"].calls))
	rep.add("exp.train_s", float64(trainNS)/1e9/float64(len(traced)), "s", len(traced))
	rep.add("exp.autoscale_ns", meanNS(t, "exp.autoscale"), "ns", int(t["exp.autoscale"].calls))
	warmPer := 0.0
	if warm > 0 {
		warmPer = float64(warmNS) / float64(warm)
	}
	rep.add("exp.warmup_ns", warmPer, "ns", int(warm))
	rep.add("exp.pool_busy_pct", 100*busy.Seconds()/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "%", len(traced))
	if err := replayLayers(rep, sample, c.seed); err != nil {
		return err
	}
	// Allocation and GC per decision of the exp.Run regenerations alone.
	addRuntime(rep, mems, int64(infer))
	rep.add("tracing.overhead_pct", 100*(quantile(traced, 0.5)/quantile(plain, 0.5)-1), "%", len(traced))
	return finishTrace(rep, tr, c)
}

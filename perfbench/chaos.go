package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/fault"
	"autoscale/internal/policy"
	"autoscale/internal/router"
	"autoscale/internal/serve"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
	"autoscale/internal/super"
	"autoscale/internal/tracez"
)

// serve_chaos drives a supervised 3-shard x 2-lane router through a seeded
// fault.Randomize storm: outages, RSSI ramps, gray degradation, shard
// crashes, checkpoint I/O faults and sync partitions. Resilience is on
// (breakers, retries, hedging); the checkpoint store sits in a temporary
// directory behind a policy.FaultSink whose verdicts come from the storm.
// The program's own causal tracer runs at a fixed head-sample rate with a
// flight recorder (workload configuration, not the benchmark's tracing).
// One client sends MobileNet v3 requests under S1, so each storm is a
// deterministic replay; every request is followed by a supervisor tick
// check and an audit, and every chaosSyncEvery-th by a policy sync. Each
// sync fsyncs every lane's checkpoint, so the period is long enough that
// disk latency, which varies with the host's other tenants, stays a small
// share of a storm's time while a dozen syncs still land in each storm.
//
// A pass is one fresh fleet and storm (timed as set-up) and chaosRequests
// requests, enough for most storms to expire at every surviving lane and
// for the supervisor to settle; a run repeats passes for --seconds, each on
// its own seed derived from --seed.

const (
	chaosIntensity  = 0.9
	chaosHorizonS   = 6.0
	chaosRequests   = 6000
	chaosSyncEvery  = 500
	chaosSampleRate = 0.05
	chaosStride     = 4
)

var chaosShardNames = []string{"shard-a", "shard-b", "shard-c"}

var chaosLanes = map[string][]string{
	"shard-a": {"lane-a0", "lane-a1"},
	"shard-b": {"lane-b0", "lane-b1"},
	"shard-c": {"lane-c0", "lane-c1"},
}

var chaosLaneNames = []string{"lane-a0", "lane-a1", "lane-b0", "lane-b1", "lane-c0", "lane-c1"}

var chaosTenants = []string{"gold", "silver", "best"}

// chaosFleet is one pass's system under test.
type chaosFleet struct {
	rt     *router.Router
	tracer *tracez.Tracer
	sup    *super.Supervisor
	aud    *super.Auditor
	env    *sim.Environment
	hw     map[string]string
	// vclock is the newest router virtual time the driving loop has seen
	// (float64 bits). The fault sink reads it rather than calling back into
	// the router, whose lock may be held when the sink is consulted.
	vclock   atomic.Uint64
	ioFaults atomic.Int64
}

func (f *chaosFleet) bumpClock() {
	now := f.rt.VirtualNow()
	for {
		old := f.vclock.Load()
		if math.Float64frombits(old) >= now || f.vclock.CompareAndSwap(old, math.Float64bits(now)) {
			return
		}
	}
}

func newChaosFleet(seed int64, dir string) (*chaosFleet, error) {
	store, err := policy.Open(filepath.Join(dir, "store"), 0)
	if err != nil {
		return nil, err
	}
	sched := fault.Randomize(seed, chaosIntensity, fault.RandomOpts{
		Devices: chaosLaneNames, Shards: chaosShardNames, HorizonS: chaosHorizonS,
	})
	inj := fault.New(sched, exec.NewRoot(seed).Child("faults"))
	sink := &policy.FaultSink{Inner: store}
	tr := tracez.New(tracez.Config{SampleRate: chaosSampleRate, Ring: 256, Seed: seed})
	rec := tracez.NewFlightRecorder(tr, filepath.Join(dir, "flight"), 0, 0)
	noSleep := policy.SyncConfig{Sleep: func(time.Duration) {}}

	f := &chaosFleet{tracer: tr, hw: map[string]string{}}
	seeds := map[string]int64{}
	for i, lane := range chaosLaneNames {
		seeds[lane] = seed + int64(i)
		f.hw[lane] = soc.Mi8Pro().Name
	}
	mkEngine := func(lane string) (*core.Engine, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = seeds[lane]
		return core.NewEngine(sim.NewWorld(soc.Mi8Pro(), seeds[lane]), cfg)
	}
	mkShard := func(name string, lanes []string) (*serve.Gateway, error) {
		backends := make([]serve.Backend, 0, len(lanes))
		for _, lane := range lanes {
			e, err := mkEngine(lane)
			if err != nil {
				return nil, err
			}
			backends = append(backends, serve.Backend{Device: lane, Engine: e})
		}
		return serve.New(backends, serve.Config{
			Name: name, QueueDepth: 256, Checkpoints: sink, Faults: inj, PolicySync: noSleep,
			Resilience: serve.ResilienceConfig{Enabled: true, Hedge: true}, Recorder: rec,
		})
	}
	gws := make([]router.ShardGateway, 0, len(chaosShardNames))
	for _, name := range chaosShardNames {
		gw, err := mkShard(name, chaosLanes[name])
		if err != nil {
			return nil, err
		}
		gws = append(gws, router.ShardGateway{Name: name, Gateway: gw})
	}
	f.rt, err = router.New(gws, router.Config{
		Tenants:          []router.Tenant{{Name: "gold", Weight: 4}, {Name: "silver", Weight: 2}, {Name: "best", Weight: 1}},
		TenantQueueDepth: 1024,
		Checkpoints:      sink,
		Faults:           inj,
		PolicySync:       noSleep,
		EngineFactory:    mkEngine,
		ShardFactory:     mkShard,
		Tracer:           tr,
		Recorder:         rec,
	})
	if err != nil {
		return nil, err
	}
	sink.Now = func() float64 { return math.Float64frombits(f.vclock.Load()) }
	sink.Events = rec.Note
	sink.Verdict = func(dev string, t float64) policy.IOVerdict {
		v := policy.IOHealthy
		switch inj.CheckpointIO(dev, t) {
		case fault.IOSlowFsync:
			v = policy.IOSlow
		case fault.IOWriteFail:
			v = policy.IOFailWrite
		case fault.IODiskFull:
			v = policy.IOFailAll
		}
		if v != policy.IOHealthy {
			f.ioFaults.Add(1)
		}
		return v
	}
	if f.sup, err = super.New(f.rt, super.Config{
		IntervalS: 0.25, LatencyTargetS: 0.1, RestartBackoffS: 0.5, MaxRestarts: 3,
	}); err != nil {
		return nil, err
	}
	if f.aud, err = super.NewAuditor(f.rt, store); err != nil {
		return nil, err
	}
	if f.env, err = sim.NewEnvironment(sim.EnvS1, seed); err != nil {
		return nil, err
	}
	return f, nil
}

// settled reports that the storm has expired at every surviving lane and the
// supervisor has nothing pending.
func (f *chaosFleet) settled() bool {
	for _, sig := range f.rt.ShardSignals() {
		if sig.State != "dead" && sig.State != "drained" && sig.VirtualS < chaosHorizonS+0.1 {
			return false
		}
	}
	for _, row := range f.sup.Status().Shards {
		if row.Phase != "ok" && row.Phase != "dead" {
			return false
		}
	}
	return true
}

func runChaosPass(rep *report, seed int64, tr *tracer) (*servPass, error) {
	dir, err := tempDir("chaos-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t := time.Now()
	f, err := newChaosFleet(seed, dir)
	if err != nil {
		return nil, err
	}
	p := newServPass(time.Since(t).Seconds())
	before := readMem()
	sw := startWatch()
	err = f.drive(p, tr.lane())
	p.wallS, p.stealPct = sw.seconds()
	p.mem = memSince(before)
	p.settled = f.settled()
	f.aud.Observe()
	label := fmt.Sprintf("serve_chaos seed %d", seed)
	// The final checkpoint flush may land inside an injected I/O window;
	// earlier generations survive in the store, which the audit sweeps.
	injected := func(err error) bool { return errors.Is(err, policy.ErrInjectedIO) }
	if ferr := p.finish(rep, f.rt, label, injected); ferr != nil {
		return nil, ferr
	}
	if err != nil {
		return nil, err
	}
	f.aud.Final()
	for _, v := range f.aud.Violations() {
		rep.check(false, "%s: invariant violation: %s", label, v)
	}
	p.counts["super.remediations"] = int64(len(f.sup.Status().Actions))
	p.counts["policy.io_faults"] = f.ioFaults.Load()
	ts := f.tracer.Stats()
	p.counts["tracez.kept"] = int64(ts.Kept)
	p.counts["tracez.dropped"] = int64(ts.Dropped)
	return p, nil
}

// drive sends the storm's requests from one client. Layer calls are timed
// only when the lane records spans, except the supervisor ticks that
// recompute, which are rare.
func (f *chaosFleet) drive(p *servPass, ln *lane) error {
	m := dnn.MustByName("MobileNet v3")
	ln.begin(rootSpan)
	defer ln.end()
	for i := 0; i < chaosRequests; i++ {
		ln.setReq(uint64(i))
		ln.begin("loadgen")
		t0 := time.Now()
		req := serve.Request{Model: m, Conditions: f.env.Sample(), Tenant: chaosTenants[i%len(chaosTenants)]}
		if i%4 == 3 {
			// Pinned probes reach cordoned shards (lifting a cordon needs
			// evidence) and advance lagging lane clocks.
			req.Device = chaosLaneNames[(i/4)%len(chaosLaneNames)]
		}
		if ln != nil {
			p.time("loadgen.input_ns", t0)
		}
		ln.end()
		if err := p.st.do(f.rt, req, ln, f.hw, chaosStride); err != nil {
			return err
		}
		f.bumpClock()
		ln.begin("super.tick")
		t0 = time.Now()
		if f.sup.MaybeTick(f.rt.VirtualNow()) {
			p.time("super.tick_ns", t0)
		}
		ln.end()
		ln.begin("super.audit")
		t0 = time.Now()
		f.aud.Observe()
		if ln != nil {
			p.time("super.audit_ns", t0)
		}
		ln.end()
		if i%chaosSyncEvery == chaosSyncEvery-1 {
			ln.begin("policy.sync")
			t0 = time.Now()
			// Sync errors are the storm's partitions and I/O faults at work;
			// the audit checks the store stays valid.
			_, _ = f.rt.SyncPolicies()
			p.time("policy.sync_ns", t0)
			ln.end()
		}
	}
	return nil
}

func runServeChaos(c config) (*report, error) {
	rep := &report{}
	run := func(tr *tracer) func(int64) (*servPass, error) {
		return func(seed int64) (*servPass, error) { return runChaosPass(rep, seed, tr) }
	}
	if !c.trace {
		heap := startHeapSampler()
		ph, err := runPhase(c.seed, c.seconds, heap, run(nil))
		if err != nil {
			return nil, err
		}
		heap.stop()
		if err := reportServing(rep, ph, c.seed); err != nil {
			return nil, err
		}
		unsettled := 0
		for _, p := range ph.passes {
			if !p.settled {
				unsettled++
			}
		}
		rep.note("serve_chaos: %d storms at intensity %.1f, %d requests each, %d storms still unsettled at the end",
			len(ph.passes), chaosIntensity, chaosRequests, unsettled)
		return rep, nil
	}

	// The traced run: an untraced phase (the tracing-overhead base, and the
	// allocation counts), then a traced phase.
	plain, err := runPhase(c.seed, 0.4*c.seconds, nil, run(nil))
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := runPhase(c.seed, 0.6*c.seconds, nil, run(tr))
	if err != nil {
		return nil, err
	}
	rep.attempted = plain.st.attempted() + traced.st.attempted()
	if err := reportLayers(rep, plain, traced, c.seed); err != nil {
		return nil, err
	}
	rep.note("decisions/s: untraced %.0f, traced %.0f", plain.dps(), traced.dps())
	return rep, finishTrace(rep, tr, c)
}

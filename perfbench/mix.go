package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"autoscale"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/fault"
	"autoscale/internal/plan"
	"autoscale/internal/serve"
	"autoscale/internal/sim"
)

// serve_mix drives a planned, donor-warm-started fleet: 4 lanes over the
// three phones on 2 shards, with the default gold/silver/best SLO classes.
// Each request picks one of the ten Table III models and a Conditions
// sample from one of the dynamic environments D1-D4, and carries a virtual
// arrival stamp from a seeded Poisson process; the planner ticks on the
// stamps. One scripted load_surge window per pass pushes the gated classes
// into shedding. Two closed-loop clients draw requests from one shared
// generator, so the request sequence is a function of the seed alone.
//
// A pass is one fresh fleet (donor training plus provisioning, timed as
// set-up) and mixRequests requests; a run repeats passes for --seconds, each
// pass on its own seed derived from --seed.

const (
	mixRequests    = 24000
	mixClients     = 2
	mixShards      = 2
	mixDonorRuns   = 10
	mixScrapeEvery = 2000
	mixStride      = 12
	// mixRateHz is the virtual arrival rate: at the mix's mean simulated
	// service time of about 83 ms it offers 1.3 Erlangs, a third of the four
	// lanes' capacity and under the planner's utilization target of 0.7.
	mixRateHz = 16.0
	// The surge triples the arrival rate over a tenth of each pass.
	mixSurgeFactor = 3.0
)

var mixLanes = []string{"Mi8Pro-0=Mi8Pro", "Mi8Pro-1=Mi8Pro", "GalaxyS10e", "MotoXForce"}

var mixHW = map[string]string{"Mi8Pro-0": "Mi8Pro", "Mi8Pro-1": "Mi8Pro", "GalaxyS10e": "GalaxyS10e", "MotoXForce": "MotoXForce"}

// mixGen is the shared request generator.
type mixGen struct {
	mu      sync.Mutex
	rng     *rand.Rand
	envs    []*sim.Environment
	models  []*dnn.Model
	inj     *fault.Injector
	arrival float64
	next    int
}

func newMixGen(seed int64, inj *fault.Injector) (*mixGen, error) {
	g := &mixGen{rng: rand.New(rand.NewSource(seed)), models: dnn.Zoo(), inj: inj}
	for i, id := range sim.DynamicEnvIDs() {
		env, err := sim.NewEnvironment(id, seed+int64(i))
		if err != nil {
			return nil, err
		}
		g.envs = append(g.envs, env)
	}
	return g, nil
}

// draw fills req with the next request and returns its index, or false once
// the pass's requests are all handed out.
func (g *mixGen) draw(req *serve.Request) (int, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.next >= mixRequests {
		return 0, false
	}
	i := g.next
	g.next++
	g.arrival += g.rng.ExpFloat64() / (mixRateHz * g.inj.SurgeFactor(g.arrival))
	m := g.models[g.rng.Intn(len(g.models))]
	env := g.envs[g.rng.Intn(len(g.envs))]
	tenant := "best"
	switch u := g.rng.Float64(); {
	case u < 0.2:
		tenant = "gold"
	case u < 0.5:
		tenant = "silver"
	}
	*req = serve.Request{Model: m, Conditions: env.Sample(), Tenant: tenant, ArrivalS: g.arrival}
	return i, true
}

// newMixFleet builds one pass's planned fleet and its request generator.
func newMixFleet(seed int64) (*plan.Planner, *mixGen, error) {
	horizon := mixRequests / mixRateHz
	inj := fault.New(&fault.Schedule{Name: "mix-surge", Faults: []fault.Spec{{
		Kind: fault.KindLoadSurge, StartS: 0.45 * horizon, EndS: 0.55 * horizon, Factor: mixSurgeFactor,
	}}}, exec.NewRoot(seed).Child("faults"))
	gen, err := newMixGen(seed, inj)
	if err != nil {
		return nil, nil, err
	}
	ecfg := autoscale.DefaultEngineConfig()
	fleet, err := autoscale.NewFleet("Mi8Pro", ecfg, mixDonorRuns, seed)
	if err != nil {
		return nil, nil, err
	}
	pl, err := fleet.ProvisionPlanner(mixLanes, mixShards, ecfg, autoscale.GatewayConfig{},
		autoscale.RouterConfig{}, autoscale.PlannerConfig{Faults: inj}, seed)
	return pl, gen, err
}

type tickRec struct {
	gen   int64
	lanes int
}

// mixClient is one closed-loop client's share of a pass.
type mixClient struct {
	st    servStats
	pass  *servPass // per-client timed metrics, merged after the pass
	ticks []tickRec
	err   error
}

func runMixPass(rep *report, seed int64, clients int, tr *tracer) (*servPass, error) {
	t := time.Now()
	pl, gen, err := newMixFleet(seed)
	if err != nil {
		return nil, err
	}
	p := newServPass(time.Since(t).Seconds())
	rt := pl.Router()
	startLanes := rt.ActiveLanes()

	cls := make([]mixClient, clients)
	before := readMem()
	var wg sync.WaitGroup
	sw := startWatch()
	for i := range cls {
		cl := &cls[i]
		cl.pass = newServPass(0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.err = cl.drive(pl, gen, tr.lane())
		}()
	}
	wg.Wait()
	p.wallS, p.stealPct = sw.seconds()
	p.mem = memSince(before)

	var ticks []tickRec
	for i := range cls {
		cl := &cls[i]
		p.st.merge(&cl.st)
		for name, tm := range cl.pass.timed {
			acc := p.timed[name]
			acc.ns += tm.ns
			acc.calls += tm.calls
			p.timed[name] = acc
		}
		ticks = append(ticks, cl.ticks...)
	}
	sort.Slice(ticks, func(i, j int) bool { return ticks[i].gen < ticks[j].gen })
	last := startLanes
	for _, tk := range ticks {
		if tk.lanes != last {
			p.counts["plan.lane_changes"]++
			last = tk.lanes
		}
	}
	label := fmt.Sprintf("serve_mix seed %d", seed)
	if err := p.finish(rep, rt, label, func(error) bool { return false }); err != nil {
		return nil, err
	}
	for _, cl := range cls {
		if cl.err != nil {
			return nil, cl.err
		}
	}
	rep.check(p.st.attempted() == mixRequests, "%s: %d responses for %d requests", label, p.st.attempted(), mixRequests)
	return p, nil
}

// drive runs one client's closed loop until the generator runs dry. Layer
// calls are timed only when the lane records spans.
func (cl *mixClient) drive(pl *plan.Planner, gen *mixGen, ln *lane) error {
	rt := pl.Router()
	ln.begin(rootSpan)
	defer ln.end()
	var req serve.Request
	for {
		ln.begin("loadgen")
		t0 := time.Now()
		i, ok := gen.draw(&req)
		if ln != nil {
			cl.pass.time("loadgen.input_ns", t0)
		}
		ln.end()
		if !ok {
			return nil
		}
		ln.setReq(uint64(i))
		ln.begin("plan.tick")
		t0 = time.Now()
		if d, ticked := pl.MaybeTick(req.ArrivalS); ticked {
			cl.pass.time("plan.tick_ns", t0)
			cl.ticks = append(cl.ticks, tickRec{gen: d.Generation, lanes: d.ActiveLanes})
		}
		ln.end()
		if err := cl.st.do(rt, req, ln, mixHW, mixStride); err != nil {
			return err
		}
		if i%mixScrapeEvery == 0 {
			ln.begin("obs.scrape")
			t0 = time.Now()
			_ = rt.Snapshot()
			_ = rt.PromText()
			cl.pass.time("obs.scrape_ns", t0)
			ln.end()
		}
	}
}

func runServeMix(c config) (*report, error) {
	rep := &report{}
	run := func(clients int, tr *tracer) func(int64) (*servPass, error) {
		return func(seed int64) (*servPass, error) { return runMixPass(rep, seed, clients, tr) }
	}
	if !c.trace {
		heap := startHeapSampler()
		ph, err := runPhase(c.seed, c.seconds, heap, run(mixClients, nil))
		if err != nil {
			return nil, err
		}
		heap.stop()
		if err := reportServing(rep, ph, c.seed); err != nil {
			return nil, err
		}
		rep.note("serve_mix: %d passes of %d requests, %d closed-loop clients, virtual rate %.0f/s with one x%.0f surge",
			len(ph.passes), mixRequests, mixClients, mixRateHz, mixSurgeFactor)
		return rep, nil
	}

	// The traced run: an untraced two-client phase (the tracing-overhead
	// base, and the allocation counts), a traced two-client phase (spans
	// and per-layer times), and an untraced one-client phase (the scaling
	// ratio's base).
	plain, err := runPhase(c.seed, 0.3*c.seconds, nil, run(mixClients, nil))
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := runPhase(c.seed, 0.4*c.seconds, nil, run(mixClients, tr))
	if err != nil {
		return nil, err
	}
	one, err := runPhase(c.seed, 0.3*c.seconds, nil, run(1, nil))
	if err != nil {
		return nil, err
	}
	rep.attempted = plain.st.attempted() + traced.st.attempted() + one.st.attempted()
	if err := reportLayers(rep, plain, traced, c.seed); err != nil {
		return nil, err
	}
	rep.add("scaling.c2_over_c1", plain.dps()/one.dps(), "x", len(one.passes))
	rep.note("decisions/s: untraced 2 clients %.0f, traced 2 clients %.0f, untraced 1 client %.0f",
		plain.dps(), traced.dps(), one.dps())
	return rep, finishTrace(rep, tr, c)
}

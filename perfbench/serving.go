package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"autoscale/internal/router"
	"autoscale/internal/serve"
	"autoscale/internal/sim"
)

// servStats is what the clients of one pass recorded about their requests.
// A phase keeps only the pass's summaries of the per-request lists, so the
// benchmark's own memory does not grow with the number of passes.
type servStats struct {
	attempts int64
	latUS    []float64 // Submit -> response received, every request
	vrespMS  []float64 // VWaitS + simulated latency, served requests
	served   int64
	qosViol  int64
	notOK    int64 // shed, expired or failed
	energyJ  float64
	svcS     float64 // summed simulated latency of served requests
	extra    int64   // responses beyond the first on a request's channel

	// Traced runs only.
	submitNS  int64
	transitUS []float64
	residUS   []float64
	waitUS    []float64

	sample []served
	seen   int
}

func (s *servStats) merge(o *servStats) {
	s.attempts += o.attempts
	s.latUS = append(s.latUS, o.latUS...)
	s.vrespMS = append(s.vrespMS, o.vrespMS...)
	s.served += o.served
	s.qosViol += o.qosViol
	s.notOK += o.notOK
	s.energyJ += o.energyJ
	s.svcS += o.svcS
	s.extra += o.extra
	s.submitNS += o.submitNS
	s.transitUS = append(s.transitUS, o.transitUS...)
	s.residUS = append(s.residUS, o.residUS...)
	s.waitUS = append(s.waitUS, o.waitUS...)
	s.sample = append(s.sample, o.sample[:min(len(o.sample), sampleCap-len(s.sample))]...)
}

func (s *servStats) attempted() int64 { return s.attempts }

// do submits one request through the router, waits for its terminal
// response and records it. hw maps a lane name to its phone; every stride-th
// served request joins the recorded stream.
func (s *servStats) do(rt *router.Router, req serve.Request, ln *lane, hw map[string]string, stride int) error {
	ln.begin("router.submit")
	t0 := time.Now()
	ch, err := rt.Submit(req)
	if ln != nil {
		s.submitNS += int64(time.Since(t0))
	}
	ln.end()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	ln.begin("router.transit")
	resp := <-ch
	t2 := time.Now()
	ln.leaf("serve.residence", resp.SubmittedAt, resp.DoneAt)
	ln.end()
	select {
	case <-ch:
		s.extra++
	default:
	}
	s.attempts++
	s.latUS = append(s.latUS, float64(t2.Sub(t0))/1e3)
	if ln != nil {
		resid := resp.DoneAt.Sub(resp.SubmittedAt)
		s.residUS = append(s.residUS, float64(resid)/1e3)
		s.transitUS = append(s.transitUS, float64(t2.Sub(t0)-resid)/1e3)
		s.waitUS = append(s.waitUS, resp.WaitS*1e6)
	}
	if resp.Status != serve.StatusServed {
		s.notOK++
		return nil
	}
	d := resp.Decision
	s.served++
	s.energyJ += d.Measurement.EnergyJ
	s.svcS += d.Measurement.LatencyS
	if d.QoSViolated {
		s.qosViol++
	}
	s.vrespMS = append(s.vrespMS, 1e3*(resp.VWaitS+d.Measurement.LatencyS))
	if s.seen%stride == 0 && len(s.sample) < sampleCap {
		h, ok := hw[resp.Device]
		if !ok {
			return fmt.Errorf("response from unknown lane %q", resp.Device)
		}
		s.sample = append(s.sample, served{hw: h, model: req.Model, cond: req.Conditions, energyJ: d.Measurement.EnergyJ})
	}
	s.seen++
	return nil
}

// servPass is what one serving pass measured. timed and counts hold the
// per-layer metrics of the pass's driving loop and final counters, keyed by
// metric name: summed nanoseconds with their call count, and counts.
type servPass struct {
	setupS, wallS float64
	stealPct      float64
	st            servStats
	mem           memDelta
	timed         map[string]timing
	counts        map[string]int64
	settled       bool // serve_chaos: the storm had settled by the pass's end
}

type timing struct{ ns, calls int64 }

func newServPass(setupS float64) *servPass {
	return &servPass{setupS: setupS, timed: map[string]timing{}, counts: map[string]int64{}}
}

// time adds one call that started at t0 to a timed metric.
func (p *servPass) time(name string, t0 time.Time) {
	t := p.timed[name]
	t.ns += int64(time.Since(t0))
	t.calls++
	p.timed[name] = t
}

// finish shuts the router down, checks exactly-once delivery and the
// router's conservation against the requests driven, and records the
// router's and gateways' counters. expected filters the shutdown errors the
// workload provokes on purpose.
func (p *servPass) finish(rep *report, rt *router.Router, label string, expected func(error) bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil && !expected(err) {
		return fmt.Errorf("%s: shutdown: %w", label, err)
	}
	n := p.st.attempted()
	rep.check(p.st.extra == 0, "%s: %d requests got more than one response", label, p.st.extra)
	rm := rt.RouterMetrics()
	rep.check(rm.Submitted == rm.Shed+rm.Failed+rm.Completed,
		"%s: router submitted %d != shed %d + failed %d + completed %d", label, rm.Submitted, rm.Shed, rm.Failed, rm.Completed)
	rep.check(rm.Submitted == uint64(n), "%s: router saw %d submissions for %d requests", label, rm.Submitted, n)
	s := rt.Snapshot()
	p.counts["router.shed"] = int64(rm.Shed)
	p.counts["router.failovers"] = int64(rm.Failovers)
	p.counts["router.rehomed"] = int64(rm.RehomedDevices)
	p.counts["serve.retries"] = s.OffloadRetries + s.Retried
	p.counts["serve.hedges"] = s.Hedges
	p.counts["serve.breaker_opens"] = s.BreakerOpens
	p.counts["serve.outages"] = s.Outages
	return nil
}

// phase is a run of passes until a deadline, at least one, each on its own
// seed derived from the run's seed. It keeps each pass's timings and p95
// response time, and the merged counts, traced lists and recorded stream.
type phase struct {
	passes  []*servPass
	st      servStats
	pt      passTimes
	vresp95 []float64
	heapMB  []float64 // per-pass peak live heap, when sampled
	wall    float64
}

// runPhase runs passes; with a heap sampler it records each pass's peak.
func runPhase(seed int64, seconds float64, heap *heapSampler, run func(seed int64) (*servPass, error)) (*phase, error) {
	ph := &phase{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for pass := 0; len(ph.passes) == 0 || time.Now().Before(deadline); pass++ {
		p, err := run(passSeed(seed, pass))
		if err != nil {
			return nil, err
		}
		ph.pt.setups = append(ph.pt.setups, p.setupS)
		ph.pt.pass(p.wallS, p.stealPct, int(p.st.attempted()), p.st.latUS)
		ph.vresp95 = append(ph.vresp95, smoothQuantile(p.st.vrespMS, 0.95))
		if heap != nil {
			ph.heapMB = append(ph.heapMB, heap.take())
		}
		p.st.latUS, p.st.vrespMS = nil, nil
		ph.passes = append(ph.passes, p)
		ph.st.merge(&p.st)
		ph.wall += p.wallS
	}
	return ph, nil
}

func (ph *phase) dps() float64 { return float64(ph.st.attempted()) / ph.wall }

// reportServing adds the serving workloads' end-to-end metrics.
func reportServing(rep *report, ph *phase, seed int64) error {
	st := &ph.st
	n := st.attempted()
	rep.attempted = n
	ph.pt.addTo(rep)
	rep.add("miss_pct", 100*float64(st.notOK+st.qosViol)/float64(n), "%", int(n))
	rep.add("qos_violation_pct", 100*float64(st.qosViol)/float64(st.served), "%", int(st.served))
	rep.add("energy_mj_per_inf", 1e3*st.energyJ/float64(st.served), "mJ", int(st.served))
	rep.add("vresp_p95_ms", quantile(ph.vresp95, 0.5), "ms", int(st.served))
	if err := addQuality(rep, st.sample, seed, sim.NonStreaming); err != nil {
		return err
	}
	rep.add("peak_heap_mb", quantile(ph.heapMB, 0.5), "MB", len(ph.heapMB))
	rep.note("outcomes: %d attempted, %d served, %d shed/expired/failed (%.3f%%), %d served over QoS; mean simulated service %.2f ms",
		n, st.served, st.notOK, 100*float64(st.notOK)/float64(n), st.qosViol, 1e3*st.svcS/float64(st.served))
	return nil
}

// reportLayers adds the per-layer metrics of a traced serving run: the
// traced phase's timed calls and counters, the serving-path split, the
// core/sim replay of its recorded stream, allocation in the untraced phase,
// and the tracing overhead between the two.
func reportLayers(rep *report, plain, traced *phase, seed int64) error {
	n := traced.st.attempted()
	timed := map[string]timing{}
	counts := map[string]int64{}
	for _, p := range traced.passes {
		for name, t := range p.timed {
			acc := timed[name]
			acc.ns += t.ns
			acc.calls += t.calls
			timed[name] = acc
		}
		for name, c := range p.counts {
			counts[name] += c
		}
	}
	for _, name := range sortedKeys(timed) {
		t := timed[name]
		rep.add(name, float64(t.ns)/float64(t.calls), "ns", int(t.calls))
	}
	for _, name := range sortedKeys(counts) {
		rep.add(name, perK(counts[name], n), "1/kreq", int(n))
	}
	st := &traced.st
	rep.add("router.submit_ns", float64(st.submitNS)/float64(n), "ns", int(n))
	rep.add("router.transit_p50_us", smoothQuantile(st.transitUS, 0.5), "us", int(n))
	rep.add("router.transit_p99_us", smoothQuantile(st.transitUS, 0.99), "us", int(n))
	rep.add("serve.residence_us", smoothQuantile(st.residUS, 0.5), "us", int(n))
	rep.add("serve.queue_wait_us", smoothQuantile(st.waitUS, 0.5), "us", int(n))
	rep.add("router.failed_pct", 100*float64(st.notOK)/float64(n), "%", int(n))
	if err := replayLayers(rep, st.sample, seed); err != nil {
		return err
	}
	var mems []memDelta
	for _, p := range plain.passes {
		mems = append(mems, p.mem)
	}
	addRuntime(rep, mems, plain.st.attempted())
	rep.add("tracing.overhead_pct", 100*(plain.dps()/traced.dps()-1), "%", len(traced.passes))
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// addRuntime reports allocation and GC activity per request.
func addRuntime(rep *report, mems []memDelta, n int64) {
	var alloc uint64
	var gc uint32
	for _, m := range mems {
		alloc += m.allocBytes
		gc += m.gcCycles
	}
	rep.add("runtime.alloc_bytes_per_req", float64(alloc)/float64(n), "B", int(n))
	rep.add("runtime.gc_cycles", perK(int64(gc), n), "1/kreq", int(n))
}

// smoothQuantile estimates the q-quantile as the mean of the order
// statistics within half a percentile point of it. Clock readings are
// granular, so a plain order statistic can read the same on many runs; the
// local mean keeps the estimate continuous.
func smoothQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	lo := int(math.Floor((q - 0.005) * float64(n)))
	hi := int(math.Ceil((q + 0.005) * float64(n)))
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if hi <= lo {
		return quantile(xs, q)
	}
	return mean(xs[lo:hi])
}

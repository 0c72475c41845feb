package main

// perLayer is every per-layer metric of the traced run, in print order.
// A layer a workload does not exercise reports 0 there. Counts are
// normalized per thousand attempted requests, so they do not grow with the
// number of passes a run fits in.
var perLayer = []struct{ name, unit string }{
	{"loadgen.input_ns", "ns"},
	{"router.submit_ns", "ns"},
	{"router.transit_p50_us", "us"},
	{"router.transit_p99_us", "us"},
	{"router.shed", "1/kreq"},
	{"router.failovers", "1/kreq"},
	{"router.rehomed", "1/kreq"},
	{"router.failed_pct", "%"},
	{"serve.residence_us", "us"},
	{"serve.queue_wait_us", "us"},
	{"serve.retries", "1/kreq"},
	{"serve.hedges", "1/kreq"},
	{"serve.breaker_opens", "1/kreq"},
	{"serve.outages", "1/kreq"},
	{"core.step_ns", "ns"},
	{"core.predict_ns", "ns"},
	{"core.observe_ns", "ns"},
	{"core.self_ns", "ns"},
	{"sim.execute_ns", "ns"},
	{"sim.expected_ns", "ns"},
	{"sched.baseline_ns", "ns"},
	{"sched.opt_ns", "ns"},
	{"exp.train_s", "s"},
	{"exp.autoscale_ns", "ns"},
	{"exp.warmup_ns", "ns"},
	{"exp.pool_busy_pct", "%"},
	{"plan.tick_ns", "ns"},
	{"plan.lane_changes", "1/kreq"},
	{"super.tick_ns", "ns"},
	{"super.audit_ns", "ns"},
	{"super.remediations", "1/kreq"},
	{"policy.sync_ns", "ns"},
	{"policy.io_faults", "1/kreq"},
	{"tracez.kept", "1/kreq"},
	{"tracez.dropped", "1/kreq"},
	{"obs.scrape_ns", "ns"},
	{"runtime.alloc_bytes_per_req", "B"},
	{"runtime.gc_cycles", "1/kreq"},
	{"scaling.c2_over_c1", "x"},
	{"tracing.overhead_pct", "%"},
}

// spanLayers are the span names of the benchmark's tracing; each gets a
// self-time share metric "self.<name>_pct", and the root spans' remainder
// reports as self.unattributed_pct.
var spanLayers = []string{
	"loadgen", "plan.tick", "router.submit", "router.transit", "serve.residence",
	"obs.scrape", "super.tick", "super.audit", "policy.sync",
	"exp.cell", "exp.train", "exp.warmup", "exp.autoscale", "sched.baseline", "sched.opt",
}

// finishTrace completes a traced run's report: the self-time breakdown, the
// span file, and zeros for the layers this workload does not exercise. It
// fails the run if a metric is reported that the list above does not name,
// or with the wrong unit.
func finishTrace(rep *report, tr *tracer, c config) error {
	breakdown(rep, tr, spanLayers)
	path, n, err := tr.write(c.workload, c.seed)
	if err != nil {
		return err
	}
	rep.note("span file %s: %d spans", path, n)
	have := map[string]string{}
	for _, m := range rep.metrics {
		have[m.name] = m.unit
	}
	known := map[string]bool{}
	for _, l := range perLayer {
		known[l.name] = true
		if u, ok := have[l.name]; !ok {
			rep.add(l.name, 0, l.unit, 0)
		} else {
			rep.check(u == l.unit, "metric %s has unit %q, want %q", l.name, u, l.unit)
		}
	}
	for _, l := range append(spanLayers, rootSpan) {
		known["self."+l+"_pct"] = true
	}
	for name := range have {
		rep.check(known[name], "traced run reports unlisted metric %s", name)
	}
	return nil
}

// perK normalizes a count to one per thousand attempted requests.
func perK(count, attempted int64) float64 {
	if attempted == 0 {
		return 0
	}
	return 1000 * float64(count) / float64(attempted)
}

# Repo checks. `make verify` is the documented pre-merge gate: it keeps the
# concurrent serving/engine code race-clean on top of the tier-1
# build-and-test pass.

GO ?= go

.PHONY: build test vet fmt race race-policy race-exp race-fault race-obs race-router race-plan race-hot race-super race-tracez alloc-guard fuzz-fault smoke-admin smoke-plan smoke-chaos smoke-traces chaos chaos-short verify bench bench-all bench-diff profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails when any file needs gofmt.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi

# internal/exp runs in -short mode under the race detector: its full-fidelity
# determinism tests exceed the 10-minute per-package test timeout once race
# instrumentation slows them 5-20x (notably on small machines), while the
# short suite already drives every concurrency path (worker pool, RunAll,
# concurrent ExecuteCtx). The full suite runs un-instrumented in `make test`.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v '/internal/exp$$')
	$(GO) test -race -short ./internal/exp/

# The policy plane (checkpoint store, federation syncer, gateway wiring) is
# the most concurrency-heavy subsystem; give it a dedicated race pass.
race-policy:
	$(GO) test -race ./internal/policy/ ./internal/serve/ .

# The execution-context plane: the deterministic RNG/clock substrate and
# the parallel experiment harness built on it. The dedicated pass certifies
# concurrent World.ExecuteCtx and the worker pool race-free (exp in -short
# mode, see the race target note).
race-exp:
	$(GO) test -race ./internal/sim/ ./internal/exec/
	$(GO) test -race -short ./internal/exp/

# The fault plane: the scripted injector and the gateway's resilient offload
# path (breakers, retries, hedging) — the storm acceptance test must hold
# under race instrumentation.
race-fault:
	$(GO) test -race ./internal/fault/ ./internal/serve/ ./internal/sim/

# The telemetry plane: lock-free histograms, the seqlock metrics registry and
# the admin endpoint serving scrapes concurrently with the request path.
race-obs:
	$(GO) test -race ./internal/obs/ ./internal/serve/... ./internal/core/ ./internal/trace/

# The routing tier: cross-shard admission, DRR fairness and shard lifecycle
# run concurrently with pipe goroutines and the dispatcher — the shard-kill
# storm and the concurrent-kill accounting test must hold under race
# instrumentation, together with the serving layer they drive.
race-router:
	$(GO) test -race ./internal/router/ ./internal/serve/...

# The capacity-planning plane: the planner's actuation loop touches the
# router's setters, the gateways' active-lane masks and the admin endpoint
# concurrently with the request path — the surge acceptance drill must hold
# under race instrumentation.
race-plan:
	$(GO) test -race ./internal/plan/ ./internal/router/ ./internal/serve/

# The hot decide path: the dense RCU Q-table, the engine's lock-free agent
# pointer and the gateway's batched telemetry run lock-free readers against
# single-writer updates — the torn-read hunt and the serving suite must hold
# under race instrumentation.
race-hot:
	$(GO) test -race ./internal/rl/ ./internal/core/ ./internal/serve/

# The supervision tier: health scoring, the cordon/drain/restart ladder and
# the crash-loop budget run against the router's lifecycle concurrently with
# the request path. The soak is excluded here (it runs un-instrumented in
# chaos-short; race instrumentation slows the full matrix past the point of
# usefulness) — the gray-failure, crash-loop and status tests are the
# race-sensitive surface.
race-super:
	$(GO) test -race -run 'TestGrayFailureCordon|TestCrashLoopConvergesToDead|TestSupervisorStatusJSONAndProm' ./internal/super/

# The tracing plane: the tracer's ring and pool run against concurrent
# request goroutines, and the flight recorder takes notes from the breaker,
# supervisor and planner paths while admin scrapes read it — the tracez
# suite plus the traced serving paths must hold under race instrumentation.
race-tracez:
	$(GO) test -race ./internal/tracez/ ./internal/serve/

# Seeded chaos soak, small matrix (~seconds): 2 seeds at high intensity with
# the invariant auditor, byte-identical replay and the goroutine-leak check.
# Part of `make verify`.
chaos-short:
	$(GO) test -short -run '^TestChaosSoak$$' -count=1 ./internal/super/

# The full chaos soak: 5 seeds x 2 intensities, every fault kind, supervised
# three-shard fleet, all invariants. The long-soak counterpart of
# chaos-short; run it before touching the supervisor, router lifecycle or
# checkpoint planes.
chaos:
	$(GO) test -run '^TestChaosSoak$$' -count=1 -timeout 1800s -v ./internal/super/

# Allocs-per-op regression guards: the frozen decide fast path (observe,
# dense state index, RCU argmax) must stay at zero allocations with tracing
# disabled; provenance capture and the sampled trace lifecycle each get a
# 2 allocs/op budget. The control-plane reads — the auditor's clock sample
# and an engine's learning-health sample — must stay at zero, and a fresh
# agent over the full Table I grid must allocate under 128 KB before any Q
# row materializes. Runs un-instrumented (the race detector's shadow memory
# allocates).
alloc-guard:
	$(GO) test -run '^(TestDecideZeroAlloc|TestTracedDecideAllocBudget|TestTraceLifecycleAllocBudget|TestAuditorObserveZeroAlloc|TestEngineHealthZeroAlloc|TestFreshAgentHeapBudget)$$' .

# Fuzz smoke over the fault-schedule parser: any input that parses must also
# compile and answer injector queries without panicking.
fuzz-fault:
	$(GO) test -run '^$$' -fuzz FuzzScheduleParse -fuzztime 5s ./internal/fault/

# End-to-end scrape check: boot a small load with the admin endpoint up,
# then curl /healthz and /metrics like a monitoring agent would.
smoke-admin:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/autoscale-serve ./cmd/autoscale-serve; \
	$$tmp/autoscale-serve -n 60 -clients 4 -admin 127.0.0.1:0 -linger 8s > $$tmp/out 2>&1 & pid=$$!; \
	addr=; for i in $$(seq 1 100); do \
		addr=$$(sed -n 's#^admin listening on http://##p' $$tmp/out); \
		[ -n "$$addr" ] && break; sleep 0.1; done; \
	if [ -z "$$addr" ]; then echo "smoke-admin: no admin address"; cat $$tmp/out; kill $$pid 2>/dev/null; exit 1; fi; \
	curl -fsS "http://$$addr/healthz" | grep '^ok' > /dev/null; \
	curl -fsS "http://$$addr/metrics" > $$tmp/metrics; \
	grep '^autoscale_requests_submitted_total' $$tmp/metrics > /dev/null; \
	grep '^autoscale_rl_epsilon' $$tmp/metrics > /dev/null; \
	grep '^autoscale_phase_seconds_bucket' $$tmp/metrics > /dev/null; \
	wait $$pid; echo "smoke-admin: ok"

# End-to-end planner scrape check: boot a planned load, then curl /plan and
# the autoscale_plan_* series like a capacity dashboard would.
smoke-plan:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/autoscale-serve ./cmd/autoscale-serve; \
	$$tmp/autoscale-serve -n 200 -clients 2 -replicas 2 -shards 2 -plan \
		-admin 127.0.0.1:0 -linger 8s > $$tmp/out 2>&1 & pid=$$!; \
	addr=; for i in $$(seq 1 100); do \
		addr=$$(sed -n 's#^admin listening on http://##p' $$tmp/out); \
		[ -n "$$addr" ] && break; sleep 0.1; done; \
	if [ -z "$$addr" ]; then echo "smoke-plan: no admin address"; cat $$tmp/out; kill $$pid 2>/dev/null; exit 1; fi; \
	curl -fsS "http://$$addr/plan" > $$tmp/plan; \
	grep '"generation"' $$tmp/plan > /dev/null; \
	grep '"classes"' $$tmp/plan > /dev/null; \
	curl -fsS "http://$$addr/metrics" > $$tmp/metrics; \
	grep '^autoscale_plan_active_lanes' $$tmp/metrics > /dev/null; \
	grep '^autoscale_plan_class_attained' $$tmp/metrics > /dev/null; \
	wait $$pid; echo "smoke-plan: ok"

# End-to-end chaos check: a seeded storm over a supervised sharded fleet via
# the CLI, scraping /supervisor and the autoscale_super_* series, and
# requiring the run to end with "all invariants held" (the binary exits
# non-zero on any violation).
smoke-chaos:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/autoscale-serve ./cmd/autoscale-serve; \
	$$tmp/autoscale-serve -chaos -shards 2 -replicas 2 -n 1500 -clients 4 -seed 7 \
		-admin 127.0.0.1:0 -linger 8s > $$tmp/out 2>&1 & pid=$$!; \
	addr=; for i in $$(seq 1 100); do \
		addr=$$(sed -n 's#^admin listening on http://##p' $$tmp/out); \
		[ -n "$$addr" ] && break; sleep 0.1; done; \
	if [ -z "$$addr" ]; then echo "smoke-chaos: no admin address"; cat $$tmp/out; kill $$pid 2>/dev/null; exit 1; fi; \
	curl -fsS "http://$$addr/supervisor" > $$tmp/super; \
	grep '"ticks"' $$tmp/super > /dev/null; \
	grep '"phase"' $$tmp/super > /dev/null; \
	curl -fsS "http://$$addr/metrics" | grep '^autoscale_super_score' > /dev/null; \
	wait $$pid || { echo "smoke-chaos: run failed"; cat $$tmp/out; exit 1; }; \
	grep 'chaos audit: all invariants held' $$tmp/out > /dev/null; \
	echo "smoke-chaos: ok"

# End-to-end tracing check: a chaos storm with causal tracing and the flight
# recorder on, scraping /traces (index + chrome export) like an operator
# chasing an incident would, and requiring the supervisor's remediations to
# have left at least one incident bundle on disk.
smoke-traces:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/autoscale-serve ./cmd/autoscale-serve; \
	$$tmp/autoscale-serve -chaos -shards 2 -replicas 2 -n 1500 -clients 4 -seed 7 \
		-trace-sample 0.25 -flight-recorder $$tmp/fr \
		-admin 127.0.0.1:0 -linger 8s > $$tmp/out 2>&1 & pid=$$!; \
	addr=; for i in $$(seq 1 100); do \
		addr=$$(sed -n 's#^admin listening on http://##p' $$tmp/out); \
		[ -n "$$addr" ] && break; sleep 0.1; done; \
	if [ -z "$$addr" ]; then echo "smoke-traces: no admin address"; cat $$tmp/out; kill $$pid 2>/dev/null; exit 1; fi; \
	curl -fsS "http://$$addr/traces" > $$tmp/idx; \
	grep '"stats"' $$tmp/idx > /dev/null; \
	grep '"traces"' $$tmp/idx > /dev/null; \
	curl -fsS "http://$$addr/traces?format=chrome" > $$tmp/chrome; \
	grep 'traceEvents' $$tmp/chrome > /dev/null; \
	curl -fsS "http://$$addr/metrics" | grep '^autoscale_trace_kept_total' > /dev/null; \
	wait $$pid || { echo "smoke-traces: run failed"; cat $$tmp/out; exit 1; }; \
	ls $$tmp/fr/incident-*.json > /dev/null 2>&1 || { echo "smoke-traces: no incident bundle"; cat $$tmp/out; exit 1; }; \
	echo "smoke-traces: ok"

# The full gate: tier-1 (build + test) plus formatting, vet, the race
# detector (which includes the dedicated policy-plane, exec-plane, fault-plane,
# telemetry-plane, planning-plane, supervision-plane and tracing-plane
# passes), the schedule-parser fuzz smoke, the short chaos soak and the
# admin, planner, chaos and tracing scrape smokes.
verify: build fmt vet race race-policy race-exp race-fault race-obs race-router race-plan race-hot race-super race-tracez chaos-short alloc-guard fuzz-fault smoke-admin smoke-plan smoke-chaos smoke-traces

# Archive the representative benchmarks (end-to-end Fig 9, gateway and
# routing-tier throughput, the offline decide path's layers: a training
# step, a simulated execution idle and beside a co-runner, the Opt oracle's
# search and the neighbour-seeding scan, the telemetry hot path, the router
# dispatch path, the planner recompute and the control-plane reads: the
# auditor's clock sample and an engine's learning-health sample) as
# BENCH_exp.json: per-benchmark name, ns/op and allocs/op averaged over
# three repetitions.
bench:
	$(GO) test -run '^$$' -bench '^(BenchmarkFig9|BenchmarkDecide|BenchmarkGatewayThroughput|BenchmarkRouterThroughput|BenchmarkEngineTrainStep|BenchmarkWorldExecute|BenchmarkOptSearch)$$' \
		-benchmem -count=3 . > BENCH_exp.txt
	$(GO) test -run '^$$' -bench '^BenchmarkNeighborSeed$$' \
		-benchmem -count=3 ./internal/core/ >> BENCH_exp.txt
	$(GO) test -run '^$$' -bench '^BenchmarkHistogramObserve' \
		-benchmem -count=3 ./internal/obs/ >> BENCH_exp.txt
	$(GO) test -run '^$$' -bench '^BenchmarkRouterDispatch$$' \
		-benchmem -count=3 ./internal/router/ >> BENCH_exp.txt
	$(GO) test -run '^$$' -bench '^BenchmarkPlannerRecompute$$' \
		-benchmem -count=3 ./internal/plan/ >> BENCH_exp.txt
	$(GO) test -run '^$$' -bench '^(BenchmarkAuditorObserve|BenchmarkEngineHealth)$$' \
		-benchmem -count=3 . >> BENCH_exp.txt
	$(GO) run ./cmd/benchjson -in BENCH_exp.txt -out BENCH_exp.json
	@cat BENCH_exp.json

bench-all:
	$(GO) test -bench=. -benchmem

# Benchstat-style old-vs-new comparison of the archived benchmark snapshot.
# The previous snapshot defaults to the last committed BENCH_exp.json; run
# `make bench` first to refresh the current one.
bench-diff:
	@if [ ! -f BENCH_exp.prev.json ]; then \
		git show HEAD:BENCH_exp.json > BENCH_exp.prev.json 2>/dev/null || \
		{ echo "bench-diff: no BENCH_exp.prev.json and no committed BENCH_exp.json"; exit 1; }; \
	fi
	$(GO) run ./cmd/benchdiff -old BENCH_exp.prev.json -new BENCH_exp.json

# CPU and heap profiles of the serving hot path, from the closed-loop
# gateway bench. Inspect with `go tool pprof cpu.pprof` / `mem.pprof`.
profile:
	$(GO) test -run '^$$' -bench '^BenchmarkGatewayThroughput/clients=1$$' -benchtime=3s \
		-cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "profiles written: cpu.pprof mem.pprof (go tool pprof <file>)"

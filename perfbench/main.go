// Command perfbench is the repository benchmark. It runs one workload for a
// fixed wall-clock budget, checks the program's outputs, and prints the
// workload's metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload serve_mix --seed 7 --seconds 12 --trace 0
//
// Workloads: fig9_offline (the paper's Fig 9 evaluation), serve_mix (planned
// mixed-fleet serving) and serve_chaos (a supervised fleet under a seeded
// fault storm); README.md in this directory records why each exists and which
// end-to-end metric each per-layer metric should move. With --trace 0 the
// result holds the end-to-end metrics; with --trace 1 it holds the per-layer
// metrics of a separate traced run, and the span file is written under
// .bench_build/perfbench/spans.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workDir holds everything a run writes: span files and temporary
// checkpoint stores. It is relative to the checkout the benchmark runs in.
const workDir = ".bench_build/perfbench"

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// report is what one workload run produces.
type report struct {
	attempted int64
	metrics   []metric
	checks    []string // failed output checks; empty means correct
	notes     []string // human-readable lines printed before the result
}

func (r *report) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, n: n})
}

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*report, error){
	"fig9_offline": runFig9,
	"serve_mix":    runServeMix,
	"serve_chaos":  runServeChaos,
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload: fig9_offline, serve_mix or serve_chaos")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed: the same seed makes the same inputs")
	flag.Float64Var(&c.seconds, "seconds", 10, "wall-clock seconds of measured work")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	c.trace = trace == 1
	if err := run(c, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(c config, trace int) error {
	fn, ok := workloads[c.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if c.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", c.seconds)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	host := fingerprint()
	hb, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", hb)

	rep, err := fn(c)
	if err != nil {
		return err
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, m := range rep.metrics {
		fmt.Printf("metric %-28s %16.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	for _, msg := range rep.checks {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", msg)
	}
	if len(rep.checks) > 0 {
		return errors.New("output checks failed; no result printed")
	}
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
	}
	// An operation that errors fails the whole run, which then prints no
	// result; shed and failed requests are outcomes the metrics count.
	// So a printed result has no failed operations.
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: true, Attempted: rep.attempted, Metrics: map[string]jm{}}
	for _, m := range rep.metrics {
		out.Metrics[m.name] = jm{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// hostInfo is the fingerprint printed with every result. The sleep
// granularity is why wall-clock load is a closed loop: a paced open loop
// could not space requests finer than one sleep.
type hostInfo struct {
	CPU          string  `json:"cpu"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go"`
	SleepGrainMS float64 `json:"sleep_granularity_ms"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	// Median actual duration of a 50µs sleep.
	var d []float64
	for i := 0; i < 15; i++ {
		t := time.Now()
		time.Sleep(50 * time.Microsecond)
		d = append(d, float64(time.Since(t))/1e6)
	}
	h.SleepGrainMS = quantile(d, 0.5)
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// beyond counts samples strictly above v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// floats renders a sample list compactly for the human-readable output.
func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// heapSampler records the peak live heap per window: the heap the garbage
// collector marked live at the end of its latest cycle. Unlike HeapInuse it
// does not depend on how much garbage had piled up when a sample happened
// to be taken.
type heapSampler struct {
	quit chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
	buf  []metrics.Sample
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{}),
		buf: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	h.sample()
	go func() {
		defer close(h.done)
		tk := time.NewTicker(20 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tk.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.buf)
	if v := h.buf[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > h.peak {
		h.peak = v.Uint64()
	}
}

// take returns the peak since the previous take, or since the start, in MB,
// and starts a new window.
func (h *heapSampler) take() float64 {
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	peak := h.peak
	h.peak = 0
	return float64(peak) / (1 << 20)
}

// stop stops the sampler and waits for it.
func (h *heapSampler) stop() {
	close(h.quit)
	<-h.done
}

// stopwatch times a pass net of the time the hypervisor gave this machine's
// CPUs to other guests. On a shared virtual machine that steal time is the
// largest source of run-to-run spread in wall times: it varies from run to
// run with the neighbours' load, not with the program. /proc/stat reports
// it in 10 ms ticks summed over the CPUs, so only passes of a few hundred
// milliseconds or more are timed this way; where /proc/stat is unavailable
// the stopwatch reads plain wall time.
type stopwatch struct {
	start time.Time
	steal float64
}

func startWatch() stopwatch { return stopwatch{start: time.Now(), steal: stolenS()} }

// seconds is the wall time since the start less the steal time per CPU,
// and the share of the wall time stolen, in percent.
func (w stopwatch) seconds() (net, stealPct float64) {
	wall := time.Since(w.start).Seconds()
	stolen := (stolenS() - w.steal) / float64(runtime.NumCPU())
	return wall - stolen, 100 * stolen / wall
}

// stolenS is the steal time summed over the CPUs since boot, in seconds:
// the eighth value of the "cpu" line of /proc/stat, in USER_HZ (100) ticks.
func stolenS() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v / 100
}

// passTimes are the per-pass timings a run reports as medians across its
// passes, so a burst of load from outside the benchmark moves one pass, not
// the result.
type passTimes struct {
	setups, runs, rates, p50s, p99s, steal []float64
	samples, beyond                        int
}

// pass records one pass: its wall time net of steal, the share stolen, the
// decisions it made, and their per-decision latencies in microseconds.
func (pt *passTimes) pass(runS, stealPct float64, decisions int, latUS []float64) {
	pt.runs = append(pt.runs, runS)
	pt.steal = append(pt.steal, stealPct)
	pt.rates = append(pt.rates, float64(decisions)/runS)
	xs := append([]float64(nil), latUS...)
	p99 := smoothQuantile(xs, 0.99)
	pt.p50s = append(pt.p50s, smoothQuantile(xs, 0.5))
	pt.p99s = append(pt.p99s, p99)
	pt.samples += len(xs)
	pt.beyond += beyond(xs, p99)
}

func (pt *passTimes) addTo(rep *report) {
	rep.add("setup_s", quantile(pt.setups, 0.5), "s", len(pt.setups))
	rep.add("run_s", quantile(pt.runs, 0.5), "s", len(pt.runs))
	rep.add("decisions_per_s", quantile(pt.rates, 0.5), "req/s", len(pt.rates))
	p50, p99 := quantile(pt.p50s, 0.5), quantile(pt.p99s, 0.5)
	rep.add("do_p50_us", p50, "us", pt.samples)
	rep.note("pass run_s %s", floats(pt.runs))
	rep.note("pass decisions_per_s %s", floats(pt.rates))
	rep.note("pass do_p50_us %s", floats(pt.p50s))
	rep.note("pass do_p99_us %s", floats(pt.p99s))
	rep.note("pass steal_pct %s", floats(pt.steal))
	rep.note("decision latency: median over %d passes of p50 %.2f us and p99 %.2f us; %d samples, %d beyond their pass's p99",
		len(pt.runs), p50, p99, pt.samples, pt.beyond)
}

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{allocBytes: after.TotalAlloc - before.TotalAlloc, gcCycles: after.NumGC - before.NumGC}
}

// tempDir makes a fresh directory under the work directory.
func tempDir(prefix string) (string, error) {
	base := filepath.Join(workDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix)
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own tracing: one span per timed call into a layer, with
// name, start, end, parent and the request id all spans of one request
// share. Spans are recorded per goroutine ("lane") without locks, kept in
// memory up to a cap, and written out when the run ends. Self time (a span's
// duration minus its children's) is accumulated per layer as spans close, so
// the breakdown covers every span even past the cap. A nil *lane records
// nothing, which is how untraced runs call the same code.

// rootSpan names the span that covers one goroutine's whole measured loop;
// its self time is the work no layer span accounts for.
const rootSpan = "unattributed"

// maxKeptSpans bounds the spans held for the span file per run.
const maxKeptSpans = 400_000

type spanRec struct {
	Lane   int    `json:"lane"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type openSpan struct {
	name  string
	start int64
	child int64 // summed duration of closed children
	kept  int32 // index in the lane's kept spans, or -1
}

// layerTime accumulates one layer's calls, inclusive time and self time.
type layerTime struct {
	calls int64
	total int64
	self  int64
}

type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	lanes []*lane
	kept  atomic.Int64
}

type lane struct {
	tr    *tracer
	id    int
	req   uint64
	stack []openSpan
	spans []spanRec
	times map[string]*layerTime
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// lane registers a new per-goroutine span buffer; nil on a nil tracer.
func (tr *tracer) lane() *lane {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	l := &lane{tr: tr, id: len(tr.lanes), times: map[string]*layerTime{}}
	tr.lanes = append(tr.lanes, l)
	return l
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// reserve claims room for one kept span.
func (tr *tracer) reserve() bool { return tr.kept.Add(1) <= maxKeptSpans }

// setReq sets the request id later spans on this lane carry.
func (l *lane) setReq(id uint64) {
	if l != nil {
		l.req = id
	}
}

// begin opens a span as a child of the innermost open span.
func (l *lane) begin(name string) {
	if l == nil {
		return
	}
	now := l.tr.now()
	kept := int32(-1)
	if l.tr.reserve() {
		kept = int32(len(l.spans))
		l.spans = append(l.spans, spanRec{Lane: l.id, ID: kept, Parent: l.parentKept(), Req: l.req, Name: name, Start: now})
	}
	l.stack = append(l.stack, openSpan{name: name, start: now, kept: kept})
}

func (l *lane) parentKept() int32 {
	if len(l.stack) == 0 {
		return -1
	}
	return l.stack[len(l.stack)-1].kept
}

// end closes the innermost open span.
func (l *lane) end() {
	if l == nil {
		return
	}
	now := l.tr.now()
	top := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	if top.kept >= 0 {
		l.spans[top.kept].End = now
	}
	l.account(top.name, now-top.start, top.child)
}

// leaf records a span that was timed by the program itself (for example a
// gateway's SubmittedAt/DoneAt), as a closed child of the innermost open
// span, clipped to that span's start.
func (l *lane) leaf(name string, start, end time.Time) {
	if l == nil || len(l.stack) == 0 {
		return
	}
	s, e := int64(start.Sub(l.tr.t0)), int64(end.Sub(l.tr.t0))
	if p := l.stack[len(l.stack)-1].start; s < p {
		s = p
	}
	if now := l.tr.now(); e > now {
		e = now
	}
	if e < s {
		e = s
	}
	if l.tr.reserve() {
		l.spans = append(l.spans, spanRec{Lane: l.id, ID: int32(len(l.spans)), Parent: l.parentKept(), Req: l.req, Name: name, Start: s, End: e})
	}
	l.account(name, e-s, 0)
}

func (l *lane) account(name string, dur, child int64) {
	lt := l.times[name]
	if lt == nil {
		lt = &layerTime{}
		l.times[name] = lt
	}
	lt.calls++
	lt.total += dur
	lt.self += dur - child
	if n := len(l.stack); n > 0 {
		l.stack[n-1].child += dur
	}
}

// times merges every lane's per-layer accounting.
func (tr *tracer) times() map[string]layerTime {
	out := map[string]layerTime{}
	if tr == nil {
		return out
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, l := range tr.lanes {
		for name, lt := range l.times {
			acc := out[name]
			acc.calls += lt.calls
			acc.total += lt.total
			acc.self += lt.self
			out[name] = acc
		}
	}
	return out
}

// meanNS is a layer's mean inclusive time per call.
func meanNS(t map[string]layerTime, name string) float64 {
	lt := t[name]
	if lt.calls == 0 {
		return 0
	}
	return float64(lt.total) / float64(lt.calls)
}

// breakdown adds one self-time share metric per layer and notes the
// breakdown; the root spans' self time is the unattributed remainder, so the
// shares sum to 100% of the traced goroutine time (the summed durations of
// the root spans).
func breakdown(rep *report, tr *tracer, layers []string) {
	t := tr.times()
	wall := t[rootSpan].total
	var sum int64
	for name, lt := range t {
		sum += lt.self
		if name != rootSpan && !contains(layers, name) {
			rep.checks = append(rep.checks, fmt.Sprintf("span %q has no self-time metric", name))
		}
	}
	rep.note("traced time: %.3f s summed over %d goroutine timelines; layer self times:", float64(wall)/1e9, t[rootSpan].calls)
	for _, name := range append(layers, rootSpan) {
		lt := t[name]
		share := 0.0
		if wall > 0 {
			share = 100 * float64(lt.self) / float64(wall)
		}
		rep.note("  %-18s self %10.4f s  %6.2f%%  calls %d", name, float64(lt.self)/1e9, share, lt.calls)
		rep.add("self."+name+"_pct", share, "%", int(lt.calls))
	}
	rep.note("  %-18s      %10.4f s (sum of self times; traced time %.4f s)", "total", float64(sum)/1e9, float64(wall)/1e9)
	rep.check(sum == wall, "self times sum to %d ns, traced time is %d ns", sum, wall)
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// write stores the kept spans as JSON lines under the work directory.
func (tr *tracer) write(workload string, seed int64) (string, int, error) {
	dir := filepath.Join(workDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	lanes := append([]*lane(nil), tr.lanes...)
	tr.mu.Unlock()
	sort.Slice(lanes, func(i, j int) bool { return lanes[i].id < lanes[j].id })
	n := 0
	for _, l := range lanes {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return "", 0, err
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", 0, err
	}
	return path, n, f.Close()
}

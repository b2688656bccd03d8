package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a module's public function, recorded from
// the benchmark's side of the call. Spans of one request (or one sweep
// graph) share Req; Parent names the span that caused this one.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the run began
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, so the same code runs traced and untraced.
type tracer struct {
	on    bool
	t0    time.Time
	ids   atomic.Int32
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// id reserves a span id, so a child recorded first (a server-side span)
// can name a parent that is recorded when its own call returns.
func (t *tracer) id() int32 { return t.ids.Add(1) }

func (t *tracer) add(id, parent int32, req int64, name string, start, end time.Time) {
	if !t.on {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a span ending now and returns its id.
func (t *tracer) record(parent int32, req int64, name string, start time.Time) int32 {
	id := t.id()
	t.add(id, parent, req, name, start, time.Now())
	return id
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStats is one span name's aggregate: calls, total and self time
// (duration minus the part covered by child spans), and the total per
// request id for joins across span names.
type layerStats struct {
	Calls int     `json:"calls"`
	Total float64 `json:"totalUs"`
	Self  float64 `json:"selfUs"`
	byReq map[int64]float64
}

func (l *layerStats) calls() int {
	if l == nil {
		return 0
	}
	return l.Calls
}

func (l *layerStats) meanUs() float64 {
	if l == nil || l.Calls == 0 {
		return 0
	}
	return l.Total / float64(l.Calls)
}

// aggregate groups spans by name, keeps per-request durations for joins,
// and subtracts each span's children from its self time.
func (t *tracer) aggregate() map[string]*layerStats {
	out := map[string]*layerStats{}
	child := map[int32]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += float64(s.End-s.Start) / 1e3
		}
	}
	for _, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &layerStats{byReq: map[int64]float64{}}
			out[s.Name] = l
		}
		d := float64(s.End-s.Start) / 1e3
		l.Calls++
		l.Total += d
		l.Self += d - child[s.ID]
		l.byReq[s.Req] += d
	}
	return out
}

// perLayer is the fixed per-layer metric set of a traced run. Every
// workload reports all of them; a layer the workload never calls reports
// 0, which is itself the check that the work split is as designed.
var perLayer = []struct{ name, unit string }{
	{"serve.handler_hit_us", "us"},
	{"serve.allocs_per_hit", "count"},
	{"serve.handler_miss_us", "us"},
	{"serve.render_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.shed_frac", "ratio"},
	{"serve.retries_per_req", "count"},
	{"serve.admit_wait_ms", "ms"},
	{"serve.server_client_p50_gap_ms", "ms"},
	{"http.overhead_us", "us"},
	{"taskgraph.decode_us", "us"},
	{"taskgraph.canon_us", "us"},
	{"generator.generate_us", "us"},
	{"core.distribute_us", "us"},
	{"core.dp_runs_per_graph", "count"},
	{"core.search_reuse_ratio", "ratio"},
	{"scheduler.schedule_us", "us"},
	{"experiment.fingerprint_hit_ratio", "ratio"},
	{"experiment.cross_hit_ratio", "ratio"},
	{"experiment.batch_hit_ratio", "ratio"},
	{"experiment.pool_wait_us", "us"},
	{"experiment.pool_busy_frac", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// initLayers sets every per-layer metric to 0 before a traced run fills
// the ones its workload exercises.
func initLayers(r *Result) {
	for _, m := range perLayer {
		r.set(m.name, 0, m.unit)
	}
}

// setLayer overwrites a per-layer metric, keeping its declared unit.
func setLayer(r *Result, name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("undeclared per-layer metric " + name)
	}
	m.Value = v
	r.Metrics[name] = m
}

// finishTrace writes the span file and a per-name summary.
func finishTrace(o opts, r *Result, tr *tracer, stats map[string]*layerStats) error {
	// One span file per workload: the latest traced run's.
	path := filepath.Join(o.out, o.workload+".spans.jsonl")
	if err := tr.write(path); err != nil {
		return err
	}
	names := make([]string, 0, len(stats))
	for k := range stats {
		names = append(names, k)
	}
	sort.Strings(names)
	sum := map[string]*layerStats{}
	for _, k := range names {
		sum[k] = stats[k]
	}
	r.extra("spans", sum)
	r.extra("spanFile", path)
	return nil
}

func ratio(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

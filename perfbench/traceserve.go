package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deadlinedist/internal/core"
	"deadlinedist/internal/experiment"
	"deadlinedist/internal/metrics"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/scheduler"
	"deadlinedist/internal/serve"
	"deadlinedist/internal/taskgraph"
)

// The traced serve run keeps these many requests aside for the
// allocation count and the tracing-overhead measurement.
const (
	maxReplay     = 20000 // requests whose stage calls are replayed
	allocProbe    = 1000
	overheadReqs  = 300
	overheadRound = 3
)

// slicingFor mirrors dlserve's assigner registry for the slicing metrics
// (CCNE estimation), keyed by the label a response reports.
func slicingFor(label string) (experiment.Assigner, error) {
	switch registryName(label) {
	case "PURE":
		return experiment.Slicing(core.PURE(), core.CCNE()), nil
	case "NORM":
		return experiment.Slicing(core.NORM(), core.CCNE()), nil
	case "THRES":
		return experiment.Slicing(core.THRES(1.0, 1.25), core.CCNE()), nil
	case "ADAPT":
		return experiment.Slicing(core.ADAPT(1.25), core.CCNE()), nil
	}
	return nil, fmt.Errorf("served assigner %q is not a slicing metric", label)
}

// lockedBuffer is the access-log sink of the in-process server.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// served is one timed request, kept for the stage replay.
type served struct {
	req    int64
	parent int32 // the client span
	idx    int
	hit    bool
	body   []byte
}

// stageCtx carries what the stage replay needs: the decoded envelopes of
// the request bodies and the pool the distribution runs on.
type stageCtx struct {
	tr    *tracer
	orc   *experiment.Orchestrator
	envs  []serve.Request
	busy  atomic.Int64 // closure nanoseconds
	dp    atomic.Int64
	reuse atomic.Int64
}

// replay re-runs, in process, the module calls the server made for one
// request, each as a span beside the handler span: decode and
// canonicalization on every request; distribute, schedule and render
// only on a miss, as the server does.
func (sc *stageCtx) replay(s served) error {
	tr := sc.tr
	raw := sc.envs[s.idx].Graph
	t := time.Now()
	g, err := taskgraph.Decode(raw)
	if err != nil {
		return err
	}
	tr.record(s.parent, s.req, "taskgraph.decode", t)
	t = time.Now()
	if _, err := g.MarshalJSON(); err != nil {
		return err
	}
	tr.record(s.parent, s.req, "taskgraph.canon", t)
	if s.hit {
		return nil
	}
	var resp serve.Response
	if err := json.Unmarshal(s.body, &resp); err != nil {
		return err
	}
	asg, err := slicingFor(resp.Assigner)
	if err != nil {
		return err
	}
	sys, err := platform.New(resp.Procs)
	if err != nil {
		return err
	}
	doID := tr.id()
	called := time.Now()
	err = sc.orc.Do(context.Background(), nil, func(wb *experiment.Workbench) error {
		entered := time.Now()
		tr.add(tr.id(), doID, s.req, "experiment.pool_wait", called, entered)
		defer func() { sc.busy.Add(int64(time.Since(entered))) }()
		t := time.Now()
		res, err := experiment.AssignContext(context.Background(), asg, g, sys, wb.Distributor())
		if err != nil {
			return err
		}
		tr.record(doID, s.req, "core.distribute", t)
		sc.dp.Add(int64(res.Search.DPRuns))
		sc.reuse.Add(int64(res.Search.CacheReuses))
		t = time.Now()
		if _, err := wb.Scheduler().Run(g, sys, res, scheduler.Config{RespectRelease: true}); err != nil {
			return err
		}
		tr.record(doID, s.req, "scheduler.schedule", t)
		return nil
	})
	if err != nil {
		return err
	}
	tr.add(doID, s.parent, s.req, "experiment.do", called, time.Now())
	t = time.Now()
	if _, err := json.Marshal(&resp); err != nil {
		return err
	}
	tr.record(s.parent, s.req, "serve.render", t)
	return nil
}

// traceServe is the traced run of a serve workload: the in-process
// server behind a loopback listener, driven by the same request stream
// as the untraced run, with a span around every ServeHTTP call and the
// stage calls replayed beside it afterwards.
func traceServe(o opts, r *Result, hit, pool []reqBody) error {
	initLayers(r)
	mixed := pool != nil
	bodies, cache := hit, 4096
	if mixed {
		bodies, cache = pool, mixedCache
	}
	nproc := runtime.NumCPU()
	tr := newTracer(true)
	orc := experiment.NewOrchestrator(nproc)
	defer orc.Close()
	alog := &lockedBuffer{}
	srv := serve.New(serve.Config{Orchestrator: orc, Metrics: metrics.New(), AccessLog: alog, CacheEntries: cache})
	h := srv.Handler()
	wrap := http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, q)
		if req, err := strconv.ParseInt(strings.TrimPrefix(q.Header.Get("X-Request-Id"), "b-"), 10, 64); err == nil {
			parent, _ := strconv.ParseInt(q.Header.Get("X-Bench-Span"), 10, 32)
			tr.add(tr.id(), int32(parent), req, "serve.handler", t0, time.Now())
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: wrap}
	go hs.Serve(ln)
	defer hs.Close()
	url := "http://" + ln.Addr().String() + "/v1/assign"

	envs := make([]serve.Request, len(bodies))
	for i, b := range bodies {
		if err := json.Unmarshal(b.body, &envs[i]); err != nil {
			return err
		}
	}
	sc := &stageCtx{tr: tr, orc: orc, envs: envs}

	var seqNo atomic.Int64
	var logMu sync.Mutex
	var log []served
	send := func(hc *http.Client, idx int) reply {
		id := tr.id()
		req := seqNo.Add(1)
		t0 := time.Now()
		rp := post(hc, url, bodies[idx].body, map[string]string{
			"X-Request-Id": "b-" + strconv.FormatInt(req, 10),
			"X-Bench-Span": strconv.FormatInt(int64(id), 10),
		})
		tr.add(id, 0, req, "client.request", t0, time.Now())
		if rp.err == nil && rp.status == http.StatusOK {
			logMu.Lock()
			s := served{req: req, parent: id, idx: idx, hit: rp.hit}
			if !rp.hit {
				s.body = rp.body // a miss replays its render
			}
			log = append(log, s)
			logMu.Unlock()
		}
		return rp
	}

	// Warm-up, as in the untraced run; its spans and stages are discarded.
	ck := newChecker()
	st := newStream(o.seed)
	warm := intRange(0, len(bodies)-1)
	if mixed {
		warm = make([]int, mixedWarmup)
		for i := range warm {
			warm[i] = st.pick()
		}
	}
	hc := newHTTPClient()
	for _, idx := range warm {
		send(hc, idx)
	}
	hc.CloseIdleConnections()
	setLayer(r, "serve.allocs_per_hit", allocsPerHit(h, bodies, warm))
	tr.mu.Lock()
	tr.spans = nil
	tr.mu.Unlock()
	log = nil
	firstTimed := seqNo.Load() + 1

	// Timed: the workload's own load shape.
	start := time.Now()
	var clientMs []float64
	if mixed {
		p := openLoop(send, st, poissonSchedule(o.seed, 1, highRate, o.seconds), highRate, nproc, ck)
		clientMs = p.sendLats
		setLayer(r, "loadgen.late_p99_ms", p.LateP99)
		r.extra("phase", p)
	} else {
		clientMs = flatten(closedLoop(send, seededPicker(o.seed, len(bodies)), closedClients, o.seconds/hitWindows, hitWindows, ck).lats)
	}
	wall := time.Since(start)
	if err := settle(ck, bodies, r); err != nil {
		return err
	}

	gap, err := serverClientGap(ln.Addr().String(), clientMs)
	if err != nil {
		return err
	}
	setLayer(r, "serve.server_client_p50_gap_ms", gap.GapMs)
	r.extra("serverClient", gap)
	if err := serverCounters(ln.Addr().String(), r); err != nil {
		return err
	}
	setLayer(r, "serve.admit_wait_ms", admitWait(alog, firstTimed))

	// Stage replay beside each handler span, on nproc goroutines, for an
	// evenly spaced sample of at most maxReplay requests.
	stride := (len(log) + maxReplay - 1) / maxReplay
	replayed := (len(log) + stride - 1) / stride
	if err := parallel(nproc, replayed, func(i int) error { return sc.replay(log[i*stride]) }); err != nil {
		return err
	}
	stats := tr.aggregate()
	var hitUs, missUs, overheadUs []float64
	handler, client := stats["serve.handler"], stats["client.request"]
	hits := 0
	for _, s := range log {
		hd, ok := handler.byReq[s.req]
		if !ok {
			continue
		}
		if s.hit {
			hits++
			hitUs = append(hitUs, hd)
		} else {
			missUs = append(missUs, hd)
		}
		overheadUs = append(overheadUs, client.byReq[s.req]-hd)
	}
	if len(hitUs) > 0 {
		setLayer(r, "serve.handler_hit_us", median(hitUs))
	}
	if len(missUs) > 0 {
		setLayer(r, "serve.handler_miss_us", median(missUs))
	}
	if len(overheadUs) > 0 {
		setLayer(r, "http.overhead_us", median(overheadUs))
	}
	if len(log) > 0 {
		setLayer(r, "serve.cache_hit_ratio", float64(hits)/float64(len(log)))
	}
	setLayer(r, "serve.render_us", stats["serve.render"].meanUs())
	setLayer(r, "taskgraph.decode_us", stats["taskgraph.decode"].meanUs())
	setLayer(r, "taskgraph.canon_us", stats["taskgraph.canon"].meanUs())
	dist := stats["core.distribute"]
	setLayer(r, "core.distribute_us", dist.meanUs())
	setLayer(r, "scheduler.schedule_us", stats["scheduler.schedule"].meanUs())
	if dist != nil && dist.Calls > 0 {
		setLayer(r, "core.dp_runs_per_graph", float64(sc.dp.Load())/float64(dist.Calls))
		setLayer(r, "core.search_reuse_ratio", ratio(sc.reuse.Load(), sc.dp.Load()))
	}
	if w := stats["experiment.pool_wait"]; w != nil {
		setLayer(r, "experiment.pool_wait_us", w.meanUs())
	}
	r.extra("timedWallS", wall.Seconds())
	r.extra("split", serveSplit(stats, replayed, mixed))

	ov, err := traceOverhead(func(t *tracer) error {
		sc2 := &stageCtx{tr: t, orc: orc, envs: envs}
		for _, s := range log[:min(overheadReqs, len(log))] {
			w := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/assign", bytes.NewReader(bodies[s.idx].body)))
			t.record(0, s.req, "serve.handler", t0)
			s.hit = w.Header().Get("X-Cache") == "hit"
			s.body = w.Body.Bytes()
			if err := sc2.replay(s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	setLayer(r, "trace.overhead_frac", ov)
	// The replay's own closures are the pool work this run can attribute.
	setLayer(r, "experiment.pool_busy_frac", float64(sc.busy.Load())/(float64(nproc)*float64(wall)))
	return finishTrace(o, r, tr, stats)
}

// serveSplit states the work split the traced run should confirm: on
// serve-hit, distribute and schedule are a negligible share of handler
// time; on serve-mixed, they are the largest stage share of a miss.
func serveSplit(stats map[string]*layerStats, replayed int, mixed bool) map[string]any {
	total := func(n string) float64 {
		if l := stats[n]; l != nil {
			return l.Total
		}
		return 0
	}
	// Per request: handler time over all requests, distribute and
	// schedule time over the replayed ones.
	handler := stats["serve.handler"].meanUs()
	dp := 0.0
	if replayed > 0 {
		dp = (total("core.distribute") + total("scheduler.schedule")) / float64(replayed)
	}
	out := map[string]any{}
	if handler > 0 {
		out["distributeScheduleShareOfHandler"] = dp / handler
	}
	if !mixed {
		out["ok"] = handler > 0 && dp/handler < 0.05
		return out
	}
	// Per miss: each stage's mean per call, distribute+schedule combined.
	perMiss := map[string]float64{
		"decode":              stats["taskgraph.decode"].meanUs(),
		"canon":               stats["taskgraph.canon"].meanUs(),
		"render":              stats["serve.render"].meanUs(),
		"distribute+schedule": stats["core.distribute"].meanUs() + stats["scheduler.schedule"].meanUs(),
	}
	largest := ""
	for k, v := range perMiss {
		if largest == "" || v > perMiss[largest] {
			largest = k
		}
	}
	out["perMissUs"] = perMiss
	out["ok"] = largest == "distribute+schedule"
	return out
}

// allocsPerHit counts heap allocations per in-process ServeHTTP of a
// warmed body, requests built outside the counted region.
func allocsPerHit(h http.Handler, bodies []reqBody, warm []int) float64 {
	reqs := make([]*http.Request, allocProbe)
	recs := make([]*httptest.ResponseRecorder, allocProbe)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/assign", bytes.NewReader(bodies[warm[i%len(warm)]].body))
		recs[i] = httptest.NewRecorder()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range reqs {
		h.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(allocProbe)
}

// serverCounters reads the shed and retry counters off /metrics.
func serverCounters(addr string, r *Result) error {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	resp, err := hc.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var requests, overload, retries float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(f[0], "dlserve_requests_total{"):
			requests += v
			if strings.Contains(f[0], `"overload"`) {
				overload += v
			}
		case f[0] == "dlserve_retries_total":
			retries = v
		}
	}
	if requests > 0 {
		setLayer(r, "serve.shed_frac", overload/requests)
		setLayer(r, "serve.retries_per_req", retries/requests)
	}
	return sc.Err()
}

// admitWait is the mean admitMs of the access-log records of timed
// requests (request ids b-N with N ≥ first).
func admitWait(alog *lockedBuffer, first int64) float64 {
	alog.mu.Lock()
	defer alog.mu.Unlock()
	var sum float64
	n := 0
	sc := bufio.NewScanner(bytes.NewReader(alog.b.Bytes()))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var rec serve.AccessRecord
		if json.Unmarshal(sc.Bytes(), &rec) != nil {
			continue
		}
		id, err := strconv.ParseInt(strings.TrimPrefix(rec.Req, "b-"), 10, 64)
		if err != nil || id < first {
			continue
		}
		sum += rec.AdmitMs
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// parallel runs fn(0..n-1) on workers goroutines and returns the first
// error.
func parallel(workers, n int, fn func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// traceOverhead runs the same fixed work with span recording off and on,
// alternating, after one priming pass, and returns the median on/off wall
// ratio minus one.
func traceOverhead(work func(t *tracer) error) (float64, error) {
	if err := work(newTracer(false)); err != nil {
		return 0, err
	}
	var ratios []float64
	for i := 0; i < overheadRound; i++ {
		t0 := time.Now()
		if err := work(newTracer(false)); err != nil {
			return 0, err
		}
		off := time.Since(t0)
		t0 = time.Now()
		if err := work(newTracer(true)); err != nil {
			return 0, err
		}
		on := time.Since(t0)
		ratios = append(ratios, float64(on)/float64(off))
	}
	return median(ratios) - 1, nil
}

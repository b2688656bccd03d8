package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"deadlinedist/internal/core"
	"deadlinedist/internal/experiment"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/metrics"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/scheduler"
	"deadlinedist/internal/taskgraph"
)

// The pipeline replay of the traced sweep: each graph is distributed by
// the four slicing metrics (CCNE) on a spread of system sizes.
var (
	replaySizes     = []int{2, 4, 8, 16}
	replayAssigners = []experiment.Assigner{
		experiment.Slicing(core.PURE(), core.CCNE()),
		experiment.Slicing(core.NORM(), core.CCNE()),
		experiment.Slicing(core.THRES(1.0, 1.25), core.CCNE()),
		experiment.Slicing(core.ADAPT(1.25), core.CCNE()),
	}
)

const (
	overheadGraphs = 8
	// Spans are kept for one replay graph in spanSample: each graph makes
	// 65 spans, and the per-call means need only a sample of them.
	spanSample = 8
)

var untraced = newTracer(false)

func sweepBase(seed uint64, orc *experiment.Orchestrator, rec *metrics.Recorder) experiment.Config {
	base := experiment.Default(generator.MDET)
	base.Graphs = sweepGraphs
	base.Seed = seed
	base.Sizes = nil
	for n := 2; n <= 16; n++ {
		base.Sizes = append(base.Sizes, n)
	}
	base.Orchestrator = orc
	base.Metrics = rec
	return base
}

// traceSweep is the traced run of sweep-all. It first runs the figure-all
// sweep in process, exactly as dlexp does (every figure concurrently over
// one shared orchestrator), with a metrics recorder attached for the
// orchestrator's cache and search counters; then it replays the sweep's
// pipeline (generate, then distribute and schedule on the pool) with a
// span around each public call, for the rest of the run.
func traceSweep(o opts, r *Result) error {
	initLayers(r)
	nproc := runtime.NumCPU()
	tr := newTracer(true)
	orc := experiment.NewOrchestrator(nproc)
	defer orc.Close()
	rec := metrics.New()
	base := sweepBase(o.seed, orc, rec)

	start := time.Now()
	keys := experiment.FigureOrder()
	registry := experiment.Figures()
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for i, key := range keys {
		wg.Add(1)
		go func(i int, fn experiment.FigureFunc) {
			defer wg.Done()
			_, errs[i] = fn(context.Background(), base)
		}(i, registry[key])
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	tr.record(0, 0, "experiment.sweep", start)
	snap := rec.Snapshot()
	var graphs int64
	for _, st := range snap.Stages {
		if st.Stage == metrics.StageMeasure.String() {
			graphs = st.Count
		}
	}
	if graphs == 0 {
		return fmt.Errorf("in-process sweep measured no graphs")
	}
	setLayer(r, "experiment.fingerprint_hit_ratio", ratio(snap.CacheHits, snap.CacheMisses))
	setLayer(r, "experiment.cross_hit_ratio", ratio(snap.CrossHits, snap.CrossMisses))
	setLayer(r, "experiment.batch_hit_ratio", ratio(snap.BatchHits, snap.BatchMisses))
	setLayer(r, "core.dp_runs_per_graph", float64(snap.Search.DPRuns)/float64(graphs))
	setLayer(r, "core.search_reuse_ratio", ratio(snap.Search.CacheReuses, snap.Search.DPRuns))
	r.extra("sweep", map[string]any{"graphs": graphs, "wallS": time.Since(start).Seconds(),
		"orchestratorCaches": orc.CacheStats(), "search": snap.Search})

	// Pipeline replay for the rest of the run (at least a quarter of it).
	budget := max(o.seconds-time.Since(start), o.seconds/4)
	var busy atomic.Int64
	var next atomic.Int64
	deadline := time.Now().Add(budget)
	replayStart := time.Now()
	err := parallel(nproc, replayMaxGraphs, func(int) error {
		if time.Now().After(deadline) {
			return errStop
		}
		i := next.Add(1)
		t := untraced
		if i%spanSample == 1 {
			t = tr
		}
		return pipeline(t, orc, o.seed, i, &busy)
	})
	if err != nil && !errors.Is(err, errStop) {
		return err
	}
	wall := time.Since(replayStart)
	r.Attempted = next.Load()
	stats := tr.aggregate()
	setLayer(r, "generator.generate_us", stats["generator.generate"].meanUs())
	setLayer(r, "core.distribute_us", stats["core.distribute"].meanUs())
	setLayer(r, "scheduler.schedule_us", stats["scheduler.schedule"].meanUs())
	setLayer(r, "experiment.pool_wait_us", stats["experiment.pool_wait"].meanUs())
	setLayer(r, "experiment.pool_busy_frac", float64(busy.Load())/(float64(nproc)*float64(wall)))
	r.extra("split", map[string]any{
		"serveSpans":  stats["serve.handler"].calls(),
		"decodeSpans": stats["taskgraph.decode"].calls(),
		"ok":          stats["serve.handler"] == nil && stats["taskgraph.decode"] == nil,
	})

	ov, err := traceOverhead(func(t *tracer) error {
		var b atomic.Int64
		for i := int64(1); i <= overheadGraphs; i++ {
			if err := pipeline(t, orc, o.seed, -i, &b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	setLayer(r, "trace.overhead_frac", ov)
	return finishTrace(o, r, tr, stats)
}

// replayMaxGraphs bounds the replay's graph count; the deadline ends it first.
const replayMaxGraphs = 1 << 30

var errStop = errors.New("replay budget spent")

// pipeline generates graph i of the replay and runs it through every
// replay assigner and size on the pool, one span per public call.
func pipeline(tr *tracer, orc *experiment.Orchestrator, seed uint64, i int64, busy *atomic.Int64) error {
	t := time.Now()
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(seed).Split(uint64(i)))
	if err != nil {
		return err
	}
	gen := tr.record(0, i, "generator.generate", t)
	for _, procs := range replaySizes {
		sys, err := platform.New(procs)
		if err != nil {
			return err
		}
		for _, asg := range replayAssigners {
			if err := distributeSchedule(tr, orc, g, sys, asg, gen, i, busy); err != nil {
				return err
			}
		}
	}
	return nil
}

// distributeSchedule is one pool job: the distribution DP on the worker's
// scratch, then the EDF list schedule, with the wait for a worker as its
// own span.
func distributeSchedule(tr *tracer, orc *experiment.Orchestrator, g *taskgraph.Graph, sys *platform.System,
	asg experiment.Assigner, parent int32, req int64, busy *atomic.Int64) error {
	doID := tr.id()
	called := time.Now()
	err := orc.Do(context.Background(), nil, func(wb *experiment.Workbench) error {
		entered := time.Now()
		tr.add(tr.id(), doID, req, "experiment.pool_wait", called, entered)
		defer func() { busy.Add(int64(time.Since(entered))) }()
		t := time.Now()
		res, err := experiment.AssignContext(context.Background(), asg, g, sys, wb.Distributor())
		if err != nil {
			return err
		}
		tr.record(doID, req, "core.distribute", t)
		t = time.Now()
		if _, err := wb.Scheduler().Run(g, sys, res, scheduler.Config{RespectRelease: true}); err != nil {
			return err
		}
		tr.record(doID, req, "scheduler.schedule", t)
		return nil
	})
	tr.add(doID, parent, req, "experiment.do", called, time.Now())
	return err
}

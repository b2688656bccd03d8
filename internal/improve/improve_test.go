package improve

import (
	"context"
	"errors"
	"testing"

	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/scheduler"
	"deadlinedist/internal/taskgraph"
)

func pipeline(t *testing.T, g *taskgraph.Graph, nproc int) (*platform.System, *core.Result) {
	t.Helper()
	sys, err := platform.New(nproc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Distributor{Metric: core.PURE(), Estimator: core.CCNE()}.Distribute(context.Background(), g, sys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys, res
}

// contendedChain builds two chains sharing one processor so the equal-share
// windows of PURE leave the heavier chain's subtasks binding.
func contendedChain(t *testing.T) *taskgraph.Graph {
	t.Helper()
	b := taskgraph.NewBuilder()
	a1 := b.AddSubtask("a1", 30)
	a2 := b.AddSubtask("a2", 30)
	b.Connect(a1, a2, 1)
	b.SetEndToEnd(a2, 150)
	c1 := b.AddSubtask("c1", 10)
	c2 := b.AddSubtask("c2", 10)
	b.Connect(c1, c2, 1)
	b.SetEndToEnd(c2, 150)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestImproveNeverDegrades(t *testing.T) {
	wcfg := generator.Default(generator.MDET)
	src := rng.New(13)
	for i := 0; i < 6; i++ {
		g, err := generator.Random(wcfg, src.Split(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		sys, res := pipeline(t, g, 2)
		out, err := Run(g, sys, res, Config{Scheduler: scheduler.Config{RespectRelease: true}})
		if err != nil {
			t.Fatal(err)
		}
		if out.Best > out.Initial+1e-9 {
			t.Fatalf("graph %d: improvement degraded lateness %v -> %v", i, out.Initial, out.Best)
		}
	}
}

// blockedChain builds a 3-stage chain whose first stage is delayed by an
// urgent independent blocker on a single processor: PURE's equal-share
// windows leave the first chain stage binding (positive lateness), while
// shifting slack forward along the chain fixes it.
func blockedChain(t *testing.T) *taskgraph.Graph {
	t.Helper()
	b := taskgraph.NewBuilder()
	x1 := b.AddSubtask("x1", 10)
	x2 := b.AddSubtask("x2", 10)
	x3 := b.AddSubtask("x3", 10)
	b.Connect(x1, x2, 1)
	b.Connect(x2, x3, 1)
	b.SetEndToEnd(x3, 60)
	blocker := b.AddSubtask("blocker", 15)
	b.SetEndToEnd(blocker, 18) // more urgent than x1's window: runs first
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestImproveHelpsOnContendedWorkload(t *testing.T) {
	g := blockedChain(t)
	sys, res := pipeline(t, g, 1)
	cfg := Config{Iterations: 16, Scheduler: scheduler.Config{RespectRelease: true}}

	// PURE's equal share leaves x1 late: the blocker occupies [0,20] and
	// x1's window ends at 20.
	sched, err := scheduler.Run(g, sys, res, cfg.Scheduler)
	if err != nil {
		t.Fatal(err)
	}
	if l := sched.MaxLateness(g, res); l <= 0 {
		t.Fatalf("fixture not binding: initial max lateness %v", l)
	}

	out, err := Run(g, sys, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Best >= out.Initial {
		t.Fatalf("no improvement on blocked chain: %v -> %v (trace %v)",
			out.Initial, out.Best, out.Trace)
	}
	if out.Best > 0 {
		t.Fatalf("improvement did not reach feasibility: best %v (trace %v)", out.Best, out.Trace)
	}
	// The returned summary reflects the improvement.
	if out.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestImproveBestScheduleValid(t *testing.T) {
	g := contendedChain(t)
	sys, res := pipeline(t, g, 1)
	cfg := Config{Iterations: 16, Scheduler: scheduler.Config{RespectRelease: true}}
	out, err := Run(g, sys, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduler.Run(g, sys, out.Distribution, cfg.Scheduler)
	if err != nil {
		t.Fatal(err)
	}
	if err := scheduler.Validate(g, sys, out.Distribution, sched, cfg.Scheduler); err != nil {
		t.Fatal(err)
	}
	if got := sched.MaxLateness(g, out.Distribution); got > out.Best+1e-9 {
		t.Fatalf("returned distribution scores %v, reported best %v", got, out.Best)
	}
}

func TestImproveDoesNotModifyInput(t *testing.T) {
	g := contendedChain(t)
	sys, res := pipeline(t, g, 1)
	before := append([]float64(nil), res.Relative...)
	if _, err := Run(g, sys, res, Config{Iterations: 4}); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if res.Relative[i] != before[i] {
			t.Fatal("Run modified the input distribution")
		}
	}
}

func TestImprovePreservesPathSpans(t *testing.T) {
	g := contendedChain(t)
	sys, res := pipeline(t, g, 1)
	out, err := Run(g, sys, res, Config{Iterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range res.Paths {
		origSpan := res.Absolute[p[len(p)-1]] - res.Release[p[0]]
		newSpan := out.Distribution.Absolute[p[len(p)-1]] - out.Distribution.Release[p[0]]
		if diff := newSpan - origSpan; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("path %d span changed: %v -> %v", pi, origSpan, newSpan)
		}
	}
}

func TestImproveErrorsAndDefaults(t *testing.T) {
	if _, err := Run(nil, nil, nil, Config{}); !errors.Is(err, ErrNilInput) {
		t.Fatalf("nil inputs: %v", err)
	}
	g := contendedChain(t)
	sys, res := pipeline(t, g, 1)
	out, err := Run(g, sys, res, Config{Iterations: -1, Transfer: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Trace) > 8 {
		t.Fatalf("default iteration bound not applied: %d rounds", len(out.Trace))
	}
	if out.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestImproveSingleNodePathStops(t *testing.T) {
	// A single subtask has no donors: the improver must stop gracefully.
	b := taskgraph.NewBuilder()
	x := b.AddSubtask("x", 10)
	b.SetEndToEnd(x, 30)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	sys, res := pipeline(t, g, 1)
	out, err := Run(g, sys, res, Config{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Trace) != 0 {
		t.Fatalf("expected immediate stop, got %d rounds", len(out.Trace))
	}
}

package apps

import (
	"context"
	"errors"
	"testing"

	"deadlinedist/internal/analysis"
	"deadlinedist/internal/core"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/scheduler"
	"deadlinedist/internal/taskgraph"
)

func TestAllAppsBuild(t *testing.T) {
	for _, app := range All() {
		t.Run(app.Name, func(t *testing.T) {
			g, err := app.Build(rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			if g.NumSubtasks() < 15 {
				t.Errorf("only %d subtasks — not a 'larger application'", g.NumSubtasks())
			}
			if len(g.Outputs()) == 0 {
				t.Error("no outputs")
			}
			for _, out := range g.Outputs() {
				if g.Node(out).EndToEnd <= 0 {
					t.Errorf("output %q has no deadline", g.Node(out).Name)
				}
			}
			// Every app pins some sensors/actuators (strict locality).
			pinned := 0
			for _, n := range g.Nodes() {
				if n.Kind == taskgraph.KindSubtask && n.Pinned != taskgraph.Unpinned {
					pinned++
				}
			}
			if pinned == 0 {
				t.Error("no strict locality constraints")
			}
			if app.About == "" {
				t.Error("missing About")
			}
		})
	}
}

func TestAppsDeterministicPerSeed(t *testing.T) {
	for _, app := range All() {
		g1, err := app.Build(rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		g2, err := app.Build(rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		j1, _ := g1.MarshalJSON()
		j2, _ := g2.MarshalJSON()
		if string(j1) != string(j2) {
			t.Errorf("%s: same seed produced different instances", app.Name)
		}
		g3, err := app.Build(rng.New(8))
		if err != nil {
			t.Fatal(err)
		}
		j3, _ := g3.MarshalJSON()
		if string(j1) == string(j3) {
			t.Errorf("%s: different seeds produced identical instances (no WCET jitter?)", app.Name)
		}
	}
}

func TestAppsJitterBounded(t *testing.T) {
	// Structure is fixed; only costs vary, by at most ±10%.
	for _, app := range All() {
		g1, _ := app.Build(rng.New(1))
		g2, _ := app.Build(rng.New(2))
		if g1.NumNodes() != g2.NumNodes() {
			t.Fatalf("%s: structure varies with seed", app.Name)
		}
		for _, n1 := range g1.Nodes() {
			n2 := g2.Node(n1.ID)
			if n1.Kind != taskgraph.KindSubtask {
				if n1.Size != n2.Size {
					t.Fatalf("%s: message sizes vary", app.Name)
				}
				continue
			}
			// Both are within ±10% of the same nominal, so they are
			// within ~22% of each other.
			ratio := n1.Cost / n2.Cost
			if ratio < 1/1.23 || ratio > 1.23 {
				t.Fatalf("%s: %q cost jitter out of bounds (%v vs %v)", app.Name, n1.Name, n1.Cost, n2.Cost)
			}
		}
	}
}

func TestAppsFeasibleOnTypicalPlatform(t *testing.T) {
	sys, err := platform.New(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range All() {
		g, err := app.Build(rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		f := analysis.CheckFeasibility(g, sys)
		if !f.Feasible() {
			t.Errorf("%s: infeasible on 4 processors: %v", app.Name, f.Violations)
		}
	}
}

func TestAppsFullPipeline(t *testing.T) {
	sys, err := platform.New(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := scheduler.Config{RespectRelease: true}
	for _, app := range All() {
		g, err := app.Build(rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []core.Metric{core.PURE(), core.ADAPT(1.25)} {
			res, err := core.Distributor{Metric: m, Estimator: core.CCNE()}.Distribute(context.Background(), g, sys, nil, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name, m.Name(), err)
			}
			sched, err := scheduler.Run(g, sys, res, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name, m.Name(), err)
			}
			if err := scheduler.Validate(g, sys, res, sched, cfg); err != nil {
				t.Fatalf("%s/%s: %v", app.Name, m.Name(), err)
			}
			if l := sched.MaxLateness(g, res); l > 0 {
				t.Errorf("%s/%s: missed windows on 4 processors (max lateness %v)", app.Name, m.Name(), l)
			}
		}
	}
}

func TestNilSourceRejected(t *testing.T) {
	for _, app := range All() {
		if _, err := app.Build(nil); !errors.Is(err, ErrNilSource) {
			t.Errorf("%s: nil source accepted (%v)", app.Name, err)
		}
	}
}

package assign

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/scheduler"
	"deadlinedist/internal/taskgraph"
)

func sys(t *testing.T, n int) *platform.System {
	t.Helper()
	s, err := platform.New(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestClusterCoversAllSubtasks(t *testing.T) {
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 4)
	a, err := Cluster(g, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes() {
		if n.Kind == taskgraph.KindSubtask {
			if a[n.ID] < 0 || a[n.ID] >= 4 {
				t.Fatalf("subtask %v assigned to %d", n.ID, a[n.ID])
			}
		} else if a[n.ID] != -1 {
			t.Fatalf("message %v assigned to %d", n.ID, a[n.ID])
		}
	}
}

func TestClusterChainStaysTogether(t *testing.T) {
	// A pure chain has no parallelism: zeroing every edge never lengthens
	// the critical path, so the whole chain lands on one processor.
	b := taskgraph.NewBuilder()
	var prev taskgraph.NodeID = taskgraph.None
	for i := 0; i < 6; i++ {
		id := b.AddSubtask("", 10)
		if i > 0 {
			b.Connect(prev, id, 5)
		}
		prev = id
	}
	b.SetEndToEnd(prev, 500)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 4)
	a, err := Cluster(g, s)
	if err != nil {
		t.Fatal(err)
	}
	first := a[0]
	for _, n := range g.Nodes() {
		if n.Kind == taskgraph.KindSubtask && a[n.ID] != first {
			t.Fatalf("chain split across processors: %v", a)
		}
	}
}

func TestClusterIndependentTasksSpread(t *testing.T) {
	// Independent equal tasks must load-balance across processors.
	b := taskgraph.NewBuilder()
	ids := make([]taskgraph.NodeID, 4)
	for i := range ids {
		ids[i] = b.AddSubtask("", 10)
		b.SetEndToEnd(ids[i], 100)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 4)
	a, err := Cluster(g, s)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, id := range ids {
		seen[a[id]] = true
	}
	if len(seen) != 4 {
		t.Fatalf("independent tasks on %d processors, want 4: %v", len(seen), a)
	}
}

func TestClusterHonoursPins(t *testing.T) {
	b := taskgraph.NewBuilder()
	x := b.AddSubtask("x", 10)
	y := b.AddSubtask("y", 10)
	b.Connect(x, y, 100) // huge message: clustering wants them together
	b.Pin(x, 3)
	b.SetEndToEnd(y, 500)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 4)
	a, err := Cluster(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if a[x] != 3 {
		t.Fatalf("pinned subtask assigned to %d, want 3", a[x])
	}
	if a[y] != 3 {
		t.Fatalf("heavily-communicating partner assigned to %d, want co-located 3", a[y])
	}
}

func TestClusterPinConflict(t *testing.T) {
	b := taskgraph.NewBuilder()
	x := b.AddSubtask("x", 10)
	y := b.AddSubtask("y", 10)
	b.Connect(x, y, 1e9) // force a merge attempt
	b.Pin(x, 0)
	b.Pin(y, 1)
	b.SetEndToEnd(y, 1e12)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 2)
	a, err := Cluster(g, s)
	// Either the merge is refused (valid assignment respecting both pins)
	// or a conflict is reported — both are acceptable; silent violation is
	// not.
	if err != nil {
		if !errors.Is(err, ErrPinConflict) {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
	if a[x] != 0 || a[y] != 1 {
		t.Fatalf("pins violated: %v", a)
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := Cluster(nil, nil); !errors.Is(err, ErrNilInput) {
		t.Fatalf("nil inputs: %v", err)
	}
}

func TestApplyPinsEverything(t *testing.T) {
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 4)
	a, err := Cluster(g, s)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := Apply(g, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range pinned.Nodes() {
		if n.Kind == taskgraph.KindSubtask && n.Pinned != a[n.ID] {
			t.Fatalf("subtask %v pinned to %d, assignment says %d", n.ID, n.Pinned, a[n.ID])
		}
	}
	// Original untouched.
	for _, n := range g.Nodes() {
		if n.Kind == taskgraph.KindSubtask && n.Pinned != taskgraph.Unpinned &&
			g.Node(n.ID).Pinned != n.Pinned {
			t.Fatal("Apply modified the original graph")
		}
	}
}

func TestApplyErrors(t *testing.T) {
	b := taskgraph.NewBuilder()
	x := b.AddSubtask("x", 1)
	b.SetEndToEnd(x, 10)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(g, Assignment{0, 0, 0}); err == nil {
		t.Error("wrong-size assignment accepted")
	}
	if _, err := Apply(g, Assignment{-1}); err == nil {
		t.Error("unassigned subtask accepted")
	}
}

// TestAssignmentFirstPipeline runs the conventional flow end to end:
// cluster, pin, distribute with exact communication costs, schedule.
func TestAssignmentFirstPipeline(t *testing.T) {
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 4)
	a, err := Cluster(g, s)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := Apply(g, a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Distributor{Metric: core.PURE(), Estimator: core.CCKnown(a)}.Distribute(context.Background(), pinned, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := scheduler.Config{RespectRelease: true}
	sched, err := scheduler.Run(pinned, s, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := scheduler.Validate(pinned, s, res, sched, cfg); err != nil {
		t.Fatal(err)
	}
	// Every subtask ran where the assignment put it.
	for _, n := range pinned.Nodes() {
		if n.Kind == taskgraph.KindSubtask && sched.Proc[n.ID] != a[n.ID] {
			t.Fatalf("subtask %v ran on %d, assigned %d", n.ID, sched.Proc[n.ID], a[n.ID])
		}
	}
}

// Property: clustering always yields a complete, in-range assignment.
func TestPropertyClusterComplete(t *testing.T) {
	wcfg := generator.Default(generator.HDET)
	f := func(seed uint64, procs uint8) bool {
		n := int(procs%8) + 2
		g, err := generator.Random(wcfg, rng.New(seed))
		if err != nil {
			return false
		}
		s, err := platform.New(n)
		if err != nil {
			return false
		}
		a, err := Cluster(g, s)
		if err != nil {
			return false
		}
		for _, node := range g.Nodes() {
			if node.Kind == taskgraph.KindSubtask && (a[node.ID] < 0 || a[node.ID] >= n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

package periodic

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"deadlinedist/internal/core"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/scheduler"
	"deadlinedist/internal/taskgraph"
)

// template builds a 2-subtask chain a(c1) -> b(c2).
func template(t *testing.T, c1, c2 float64) *taskgraph.Graph {
	t.Helper()
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", c1)
	bb := b.AddSubtask("b", c2)
	b.Connect(a, bb, 2)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestHyperperiod(t *testing.T) {
	g := template(t, 1, 1)
	cases := []struct {
		periods []int
		want    int
	}{
		{[]int{10}, 10},
		{[]int{10, 20}, 20},
		{[]int{6, 4}, 12},
		{[]int{3, 5, 15}, 15},
		{[]int{7, 11}, 77},
	}
	for _, c := range cases {
		tasks := make([]Task, len(c.periods))
		for i, p := range c.periods {
			tasks[i] = Task{Graph: g, Period: p}
		}
		got, err := Hyperperiod(tasks)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Hyperperiod(%v) = %d, want %d", c.periods, got, c.want)
		}
	}
}

func TestHyperperiodErrors(t *testing.T) {
	if _, err := Hyperperiod(nil); !errors.Is(err, ErrNoTasks) {
		t.Errorf("empty set: %v, want ErrNoTasks", err)
	}
	g := template(t, 1, 1)
	if _, err := Hyperperiod([]Task{{Graph: g, Period: 0}}); !errors.Is(err, ErrBadPeriod) {
		t.Errorf("zero period: %v, want ErrBadPeriod", err)
	}
}

func TestUnrollInstanceCount(t *testing.T) {
	g := template(t, 5, 5)
	tasks := []Task{
		{Name: "fast", Graph: g, Period: 10},
		{Name: "slow", Graph: g, Period: 20},
	}
	combined, hyper, err := Unroll(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if hyper != 20 {
		t.Fatalf("hyperperiod = %d, want 20", hyper)
	}
	// fast: 2 instances × 2 subtasks, slow: 1 × 2 = 6 subtasks, 3 messages.
	if combined.NumSubtasks() != 6 {
		t.Fatalf("subtasks = %d, want 6", combined.NumSubtasks())
	}
	if combined.NumMessages() != 3 {
		t.Fatalf("messages = %d, want 3", combined.NumMessages())
	}
}

func TestUnrollReleasesAndDeadlines(t *testing.T) {
	g := template(t, 3, 4)
	tasks := []Task{{Name: "t", Graph: g, Period: 10}}
	combined, hyper, err := Unroll(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if hyper != 10 {
		t.Fatal("single task hyperperiod must equal its period")
	}
	// Implicit deadline: D = period.
	for _, n := range combined.Nodes() {
		if n.Kind != taskgraph.KindSubtask {
			continue
		}
		switch {
		case strings.HasSuffix(n.Name, ".a"):
			if n.Release != 0 {
				t.Errorf("input release = %v, want 0", n.Release)
			}
		case strings.HasSuffix(n.Name, ".b"):
			if n.EndToEnd != 10 {
				t.Errorf("output deadline = %v, want 10", n.EndToEnd)
			}
		}
	}
}

func TestUnrollOffsetsInstances(t *testing.T) {
	g := template(t, 2, 2)
	tasks := []Task{{Name: "t", Graph: g, Period: 10, Deadline: 8}}
	// Two hyperperiods worth by pairing with a slower task.
	tasks = append(tasks, Task{Name: "bg", Graph: template(t, 1, 1), Period: 30})
	combined, hyper, err := Unroll(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if hyper != 30 {
		t.Fatalf("hyperperiod = %d", hyper)
	}
	wantRelease := map[string]float64{"t.0.a": 0, "t.1.a": 10, "t.2.a": 20}
	wantDeadline := map[string]float64{"t.0.b": 8, "t.1.b": 18, "t.2.b": 28}
	seen := 0
	for _, n := range combined.Nodes() {
		if r, ok := wantRelease[n.Name]; ok {
			seen++
			if n.Release != r {
				t.Errorf("%s release = %v, want %v", n.Name, n.Release, r)
			}
		}
		if d, ok := wantDeadline[n.Name]; ok {
			seen++
			if n.EndToEnd != d {
				t.Errorf("%s deadline = %v, want %v", n.Name, n.EndToEnd, d)
			}
		}
	}
	if seen != 6 {
		t.Fatalf("found %d of 6 expected instance subtasks", seen)
	}
}

func TestUnrollPreservesPins(t *testing.T) {
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("sensor", 2)
	c := b.AddSubtask("proc", 2)
	b.Connect(a, c, 1)
	b.Pin(a, 1)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	combined, _, err := Unroll([]Task{{Name: "t", Graph: g, Period: 5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range combined.Nodes() {
		if strings.HasSuffix(n.Name, ".sensor") && n.Pinned != 1 {
			t.Errorf("%s pinned = %d, want 1", n.Name, n.Pinned)
		}
		if strings.HasSuffix(n.Name, ".proc") && n.Pinned != taskgraph.Unpinned {
			t.Errorf("%s pinned = %d, want unpinned", n.Name, n.Pinned)
		}
	}
}

func TestUnrollErrors(t *testing.T) {
	if _, _, err := Unroll(nil); !errors.Is(err, ErrNoTasks) {
		t.Errorf("empty: %v", err)
	}
	if _, _, err := Unroll([]Task{{Period: 5}}); !errors.Is(err, ErrNilGraph) {
		t.Errorf("nil graph: %v", err)
	}
}

func TestUtilization(t *testing.T) {
	g := template(t, 3, 7) // workload 10
	u, err := Utilization([]Task{
		{Graph: g, Period: 20}, // 0.5
		{Graph: g, Period: 40}, // 0.25
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-0.75) > 1e-12 {
		t.Fatalf("utilization = %v, want 0.75", u)
	}
}

// TestUnrolledPipeline runs the full paper pipeline over an unrolled
// periodic set: all instances must meet their windows on a sufficiently
// large platform.
func TestUnrolledPipeline(t *testing.T) {
	g := template(t, 2, 3)
	tasks := []Task{
		{Name: "ctl", Graph: g, Period: 20},
		{Name: "mon", Graph: g, Period: 40},
	}
	combined, hyper, err := Unroll(tasks)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := platform.New(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Distributor{Metric: core.PURE(), Estimator: core.CCNE()}.Distribute(context.Background(), combined, sys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := scheduler.Config{RespectRelease: true}
	sched, err := scheduler.Run(combined, sys, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := scheduler.Validate(combined, sys, res, sched, cfg); err != nil {
		t.Fatal(err)
	}
	if sched.MaxLateness(combined, res) > 0 {
		t.Errorf("unrolled periodic set missed windows: max lateness %v", sched.MaxLateness(combined, res))
	}
	if sched.Makespan > float64(hyper) {
		t.Errorf("makespan %v exceeds the hyperperiod %d", sched.Makespan, hyper)
	}
}

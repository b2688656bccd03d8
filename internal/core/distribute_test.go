package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"deadlinedist/internal/generator"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

func distribute(t *testing.T, g *taskgraph.Graph, m Metric, e CommEstimator, nproc int) *Result {
	t.Helper()
	res, err := Distributor{Metric: m, Estimator: e}.Distribute(context.Background(), g, sys(t, nproc), nil, nil)
	if err != nil {
		t.Fatalf("Distribute(%s,%s): %v", m.Name(), e.Name(), err)
	}
	return res
}

func nodeByName(t *testing.T, g *taskgraph.Graph, name string) taskgraph.Node {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("no node named %q", name)
	return taskgraph.Node{}
}

func TestDistributeChainPURECCNE(t *testing.T) {
	g := threeChain(t) // a(10)->b(20)->c(30), D = 90
	res := distribute(t, g, PURE(), CCNE(), 4)

	// R = (90-60)/3 = 10; windows 20, 30, 40; messages zero-width.
	a, b, c := nodeByName(t, g, "a"), nodeByName(t, g, "b"), nodeByName(t, g, "c")
	wantRel := map[taskgraph.NodeID]float64{a.ID: 20, b.ID: 30, c.ID: 40}
	wantRelease := map[taskgraph.NodeID]float64{a.ID: 0, b.ID: 20, c.ID: 50}
	for id, want := range wantRel {
		if !approx(res.Relative[id], want) {
			t.Errorf("relative[%v] = %v, want %v", id, res.Relative[id], want)
		}
	}
	for id, want := range wantRelease {
		if !approx(res.Release[id], want) {
			t.Errorf("release[%v] = %v, want %v", id, res.Release[id], want)
		}
	}
	if !approx(res.Absolute[c.ID], 90) {
		t.Errorf("absolute[c] = %v, want 90", res.Absolute[c.ID])
	}
	// Zero-cost messages: zero-width windows, not windowed.
	for _, n := range g.Nodes() {
		if n.Kind != taskgraph.KindMessage {
			continue
		}
		if res.Windowed[n.ID] || res.Relative[n.ID] != 0 {
			t.Errorf("CCNE message %v got a window", n.ID)
		}
	}
	if len(res.Paths) != 1 {
		t.Errorf("chain sliced in %d paths, want 1", len(res.Paths))
	}
	// All subtask laxities equal R under PURE (equal-share).
	for _, name := range []string{"a", "b", "c"} {
		n := nodeByName(t, g, name)
		if l := res.Laxity(g, n.ID); !approx(l, 10) {
			t.Errorf("laxity(%s) = %v, want 10", name, l)
		}
	}
	if !approx(res.MinLaxity(g), 10) {
		t.Errorf("MinLaxity = %v, want 10", res.MinLaxity(g))
	}
}

func TestDistributeChainNORMCCNE(t *testing.T) {
	g := threeChain(t)
	res := distribute(t, g, NORM(), CCNE(), 4)
	// R = (90-60)/60 = 0.5; windows proportional: 15, 30, 45.
	want := map[string]float64{"a": 15, "b": 30, "c": 45}
	for name, w := range want {
		n := nodeByName(t, g, name)
		if !approx(res.Relative[n.ID], w) {
			t.Errorf("relative[%s] = %v, want %v", name, res.Relative[n.ID], w)
		}
	}
	c := nodeByName(t, g, "c")
	if !approx(res.Absolute[c.ID], 90) {
		t.Errorf("absolute[c] = %v, want 90", res.Absolute[c.ID])
	}
}

func TestDistributeChainPURECCAA(t *testing.T) {
	g := threeChain(t)
	res := distribute(t, g, PURE(), CCAA(), 4)
	// Messages estimated at 5 each: sum 70, n = 5, R = 4.
	// Windows: a=14, m=9, b=24, m=9, c=34 — total 90.
	a, c := nodeByName(t, g, "a"), nodeByName(t, g, "c")
	if !approx(res.Relative[a.ID], 14) {
		t.Errorf("relative[a] = %v, want 14", res.Relative[a.ID])
	}
	if !approx(res.Relative[c.ID], 34) {
		t.Errorf("relative[c] = %v, want 34", res.Relative[c.ID])
	}
	for _, n := range g.Nodes() {
		if n.Kind != taskgraph.KindMessage {
			continue
		}
		if !res.Windowed[n.ID] {
			t.Errorf("CCAA message %v not windowed", n.ID)
		}
		if !approx(res.Relative[n.ID], 9) {
			t.Errorf("message window = %v, want 9", res.Relative[n.ID])
		}
	}
	if !approx(res.Absolute[c.ID], 90) {
		t.Errorf("absolute[c] = %v, want 90", res.Absolute[c.ID])
	}
}

func TestDistributeTHRESGivesLongTasksMoreSlack(t *testing.T) {
	g := threeChain(t)
	pure := distribute(t, g, PURE(), CCNE(), 2)
	thres := distribute(t, g, THRES(1, 1.0), CCNE(), 2)
	c := nodeByName(t, g, "c")
	a := nodeByName(t, g, "a")
	if thres.Laxity(g, c.ID) <= pure.Laxity(g, c.ID) {
		t.Errorf("THRES laxity(c) = %v, not above PURE %v",
			thres.Laxity(g, c.ID), pure.Laxity(g, c.ID))
	}
	if thres.Laxity(g, a.ID) >= pure.Laxity(g, a.ID) {
		t.Errorf("THRES laxity(a) = %v, not below PURE %v (short task pays)",
			thres.Laxity(g, a.ID), pure.Laxity(g, a.ID))
	}
	// Total still exactly D.
	if !approx(thres.Absolute[c.ID], 90) {
		t.Errorf("THRES absolute[c] = %v, want 90", thres.Absolute[c.ID])
	}
}

func TestDistributeADAPTChain(t *testing.T) {
	g := threeChain(t)
	res := distribute(t, g, ADAPT(1.25), CCNE(), 4)
	// ξ = 1, N = 4, Δ = 0.25; cthres = 25, only c inflated: c' = 37.5.
	// sum = 67.5, R = (90-67.5)/3 = 7.5; windows 17.5, 27.5, 45.
	want := map[string]float64{"a": 17.5, "b": 27.5, "c": 45}
	for name, w := range want {
		n := nodeByName(t, g, name)
		if !approx(res.Relative[n.ID], w) {
			t.Errorf("ADAPT relative[%s] = %v, want %v", name, res.Relative[n.ID], w)
		}
	}
}

func TestDistributeDiamondTwoIterations(t *testing.T) {
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 10)
	x := b.AddSubtask("x", 20)
	y := b.AddSubtask("y", 5)
	d := b.AddSubtask("d", 10)
	b.Connect(a, x, 1)
	b.Connect(a, y, 1)
	b.Connect(x, d, 1)
	b.Connect(y, d, 1)
	b.SetEndToEnd(d, 60)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	res := distribute(t, g, PURE(), CCNE(), 4)

	// Spine a-x-d is tighter (R = (60-40)/3) than a-y-d (R = (60-25)/3):
	// first sliced path contains x.
	if len(res.Paths) != 2 {
		t.Fatalf("sliced %d paths, want 2", len(res.Paths))
	}
	inFirst := map[taskgraph.NodeID]bool{}
	for _, id := range res.Paths[0] {
		inFirst[id] = true
	}
	if !inFirst[x] || !inFirst[a] || !inFirst[d] {
		t.Errorf("first path %v should be the a-x-d spine", res.Paths[0])
	}
	if inFirst[y] {
		t.Errorf("y must be attached in a later iteration, got path %v", res.Paths[0])
	}
	// Spine windows: R = 20/3.
	r := 20.0 / 3.0
	if !approx(res.Relative[x], 20+r) {
		t.Errorf("relative[x] = %v, want %v", res.Relative[x], 20+r)
	}
	// y attaches between abs(a) and release(d): gap = 60 - (10+r) - (10+r)
	// - (10+r) ... compute via anchors directly.
	if !approx(res.Release[y], res.Absolute[a]) {
		t.Errorf("release[y] = %v, want abs[a] = %v", res.Release[y], res.Absolute[a])
	}
	if !approx(res.Absolute[y], res.Release[d]) {
		t.Errorf("absolute[y] = %v, want release[d] = %v", res.Absolute[y], res.Release[d])
	}
	// Full validation passes on this feasible workload.
	if err := res.Validate(g, 1e-9); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDistributeErrors(t *testing.T) {
	g := threeChain(t)
	s := sys(t, 2)
	t.Run("nil metric", func(t *testing.T) {
		_, err := Distributor{Estimator: CCNE()}.Distribute(context.Background(), g, s, nil, nil)
		if !errors.Is(err, ErrNilStrategy) {
			t.Fatalf("got %v, want ErrNilStrategy", err)
		}
	})
	t.Run("nil estimator", func(t *testing.T) {
		_, err := Distributor{Metric: PURE()}.Distribute(context.Background(), g, s, nil, nil)
		if !errors.Is(err, ErrNilStrategy) {
			t.Fatalf("got %v, want ErrNilStrategy", err)
		}
	})
	t.Run("missing deadline", func(t *testing.T) {
		b := taskgraph.NewBuilder()
		b.AddSubtask("solo", 5)
		g2, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		_, err = Distributor{Metric: PURE(), Estimator: CCNE()}.Distribute(context.Background(), g2, s, nil, nil)
		if !errors.Is(err, ErrNoDeadline) {
			t.Fatalf("got %v, want ErrNoDeadline", err)
		}
	})
}

func TestDistributeDoesNotModifyGraph(t *testing.T) {
	g := threeChain(t)
	before, _ := g.MarshalJSON()
	_ = distribute(t, g, PURE(), CCAA(), 4)
	after, _ := g.MarshalJSON()
	if string(before) != string(after) {
		t.Fatal("Distribute modified the input graph")
	}
}

func TestDistributeDeterministic(t *testing.T) {
	cfg := generator.Default(generator.MDET)
	g, err := generator.Random(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	r1 := distribute(t, g, ADAPT(1.25), CCNE(), 4)
	r2 := distribute(t, g, ADAPT(1.25), CCNE(), 4)
	for id := range r1.Release {
		if r1.Release[id] != r2.Release[id] || r1.Relative[id] != r2.Relative[id] {
			t.Fatalf("node %d: non-deterministic distribution", id)
		}
	}
}

// checkStructural verifies the invariants that hold for every distribution,
// feasible or not: full coverage, window accounting, path consecutiveness.
func checkStructural(g *taskgraph.Graph, res *Result) error {
	seen := make(map[taskgraph.NodeID]int)
	for _, p := range res.Paths {
		for _, id := range p {
			seen[id]++
		}
	}
	for id := 0; id < g.NumNodes(); id++ {
		if seen[taskgraph.NodeID(id)] != 1 {
			return errors.New("node not covered by exactly one sliced path")
		}
	}
	for id := 0; id < g.NumNodes(); id++ {
		if res.Relative[id] < 0 {
			return errors.New("negative window")
		}
		if math.Abs(res.Absolute[id]-(res.Release[id]+res.Relative[id])) > 1e-6 {
			return errors.New("absolute != release + relative")
		}
	}
	for _, p := range res.Paths {
		for i := 1; i < len(p); i++ {
			if math.Abs(res.Release[p[i]]-res.Absolute[p[i-1]]) > 1e-6 {
				return errors.New("windows along a sliced path are not consecutive")
			}
		}
	}
	return nil
}

// Property: structural invariants hold for every metric × estimator on
// random paper workloads.
func TestPropertyDistributionInvariants(t *testing.T) {
	metrics := []Metric{NORM(), PURE(), THRES(1, 1.25), ADAPT(1.25)}
	estimators := []CommEstimator{CCNE(), CCAA(), CCEXP()}
	cfg := generator.Default(generator.HDET)
	s := sys(t, 4)

	f := func(seed uint64) bool {
		g, err := generator.Random(cfg, rng.New(seed))
		if err != nil {
			return false
		}
		for _, m := range metrics {
			for _, e := range estimators {
				res, err := Distributor{Metric: m, Estimator: e}.Distribute(context.Background(), g, s, nil, nil)
				if err != nil {
					t.Logf("seed %d %s/%s: %v", seed, m.Name(), e.Name(), err)
					return false
				}
				if err := checkStructural(g, res); err != nil {
					t.Logf("seed %d %s/%s: %v", seed, m.Name(), e.Name(), err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// Property: on feasible workloads with CCNE, outputs meet their end-to-end
// deadlines exactly in the annotation (the last window of the first sliced
// path reaching an output ends at D).
func TestPropertyOutputsWithinEndToEnd(t *testing.T) {
	cfg := generator.Default(generator.MDET)
	s := sys(t, 8)
	f := func(seed uint64) bool {
		g, err := generator.Random(cfg, rng.New(seed))
		if err != nil {
			return false
		}
		res, err := Distributor{Metric: PURE(), Estimator: CCNE()}.Distribute(context.Background(), g, s, nil, nil)
		if err != nil {
			return false
		}
		for _, out := range g.Outputs() {
			if res.Absolute[out] > g.Node(out).EndToEnd+1e-6 {
				t.Logf("seed %d: output %v abs %v > D %v", seed, out, res.Absolute[out], g.Node(out).EndToEnd)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributeSingleNode(t *testing.T) {
	b := taskgraph.NewBuilder()
	id := b.AddSubtask("solo", 10)
	b.SetEndToEnd(id, 25)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	res := distribute(t, g, PURE(), CCNE(), 2)
	if !approx(res.Release[id], 0) || !approx(res.Relative[id], 25) {
		t.Fatalf("solo window = [%v, +%v], want [0, +25]", res.Release[id], res.Relative[id])
	}
}

func TestDistributeOverloadClampsWindows(t *testing.T) {
	// Deadline far below the workload: windows must clamp at zero rather
	// than go negative.
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 10)
	c := b.AddSubtask("c", 100)
	b.Connect(a, c, 1)
	b.SetEndToEnd(c, 5)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	res := distribute(t, g, PURE(), CCNE(), 2)
	for id := range res.Relative {
		if res.Relative[id] < 0 {
			t.Fatalf("negative window %v", res.Relative[id])
		}
	}
}

// TestDistributeOverloadRenormalizesWindows: clamping a negative window at
// zero removes its (negative) contribution to the path sum, so without a
// second pass the surviving windows overshoot the end-to-end deadline and
// every later anchor inherits the inflated absolute deadline. The fix
// rescales the surviving windows back onto the available span.
func TestDistributeOverloadRenormalizesWindows(t *testing.T) {
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 1)
	mid := b.AddSubtask("b", 1)
	c := b.AddSubtask("c", 100)
	b.Connect(a, mid, 1)
	b.Connect(mid, c, 1)
	b.SetEndToEnd(c, 30)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	// PURE: R = (30-102)/3 = -24, raw windows -23, -23, 76. The negatives
	// clamp to zero; the old code then left c at 76, putting its absolute
	// deadline 46 time units past D = 30.
	res := distribute(t, g, PURE(), CCNE(), 2)
	if res.Relative[a] != 0 || res.Relative[mid] != 0 {
		t.Errorf("clamped windows = %v, %v, want 0, 0", res.Relative[a], res.Relative[mid])
	}
	if !approx(res.Relative[c], 30) {
		t.Errorf("surviving window = %v, want renormalized 30", res.Relative[c])
	}
	if !approx(res.Absolute[c], 30) {
		t.Errorf("absolute[c] = %v, want the end-to-end deadline 30", res.Absolute[c])
	}
}

// Property: under arbitrary overload (deadline a small fraction of the
// chain's workload) windows stay non-negative, sum to the end-to-end
// deadline, and no absolute deadline escapes past it — for every metric.
func TestPropertyOverloadWindowsSumToDeadline(t *testing.T) {
	metrics := []Metric{PURE(), NORM(), THRES(1, 1.25), ADAPT(1.25)}
	s := sys(t, 4)
	f := func(seed uint64) bool {
		r := rng.New(seed)
		b := taskgraph.NewBuilder()
		n := r.IntIn(2, 10)
		ids := make([]taskgraph.NodeID, n)
		total := 0.0
		for i := range ids {
			cost := r.Float64In(1, 100)
			total += cost
			ids[i] = b.AddSubtask("t", cost)
			if i > 0 {
				b.Connect(ids[i-1], ids[i], 1)
			}
		}
		deadline := total * r.Float64In(0.05, 0.5)
		b.SetEndToEnd(ids[n-1], deadline)
		g, err := b.Finalize()
		if err != nil {
			return false
		}
		for _, m := range metrics {
			res, err := Distributor{Metric: m, Estimator: CCNE()}.Distribute(context.Background(), g, s, nil, nil)
			if err != nil {
				t.Logf("seed %d %s: %v", seed, m.Name(), err)
				return false
			}
			sum := 0.0
			for _, id := range ids {
				if res.Relative[id] < 0 {
					t.Logf("seed %d %s: negative window %v", seed, m.Name(), res.Relative[id])
					return false
				}
				if res.Absolute[id] > deadline+1e-6 {
					t.Logf("seed %d %s: absolute %v past deadline %v", seed, m.Name(), res.Absolute[id], deadline)
					return false
				}
				sum += res.Relative[id]
			}
			if math.Abs(sum-deadline) > 1e-6*deadline {
				t.Logf("seed %d %s: windows sum to %v, want %v", seed, m.Name(), sum, deadline)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 32}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributeRespectsInputRelease(t *testing.T) {
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 10)
	c := b.AddSubtask("c", 10)
	b.Connect(a, c, 1)
	b.SetRelease(a, 50)
	b.SetEndToEnd(c, 100)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	res := distribute(t, g, PURE(), CCNE(), 2)
	if !approx(res.Release[a], 50) {
		t.Fatalf("release[a] = %v, want 50 (application release)", res.Release[a])
	}
	if !approx(res.Absolute[c], 100) {
		t.Fatalf("absolute[c] = %v, want 100", res.Absolute[c])
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := threeChain(t)
	res := distribute(t, g, PURE(), CCNE(), 4)
	if err := res.Validate(g, 1e-9); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	res.Relative[0] = -1
	if err := res.Validate(g, 1e-9); err == nil {
		t.Fatal("negative window not caught")
	}
	res.Relative[0] = 0
	res.Absolute[0] = res.Release[0] + 999
	if err := res.Validate(g, 1e-9); err == nil {
		t.Fatal("inconsistent absolute deadline not caught")
	}
}

// TestWindowOnlyAblationSumsToDeadline: with separate window costs the
// windows along the sliced path must still sum exactly to the end-to-end
// deadline.
func TestWindowOnlyAblationSumsToDeadline(t *testing.T) {
	g := threeChain(t) // D = 90
	res := distribute(t, g, ADAPTAblation(1.25, false, true), CCNE(), 2)
	var c taskgraph.NodeID
	total := 0.0
	for _, n := range g.Nodes() {
		total += res.Relative[n.ID]
		if n.Name == "c" {
			c = n.ID
		}
	}
	if !approx(total, 90) {
		t.Fatalf("windows sum to %v, want 90", total)
	}
	if !approx(res.Absolute[c], 90) {
		t.Fatalf("absolute[c] = %v, want 90", res.Absolute[c])
	}
	// Window sizing used the inflated cost for c: window = 45 + R where
	// R = (90 - (10+20+45))/3 = 5.
	if !approx(res.Relative[c], 50) {
		t.Fatalf("relative[c] = %v, want 50", res.Relative[c])
	}
}

// TestRankOnlyAblationKeepsPureWindows: ranking with inflated costs but
// sizing with real costs gives PURE-sized windows on the chosen path.
func TestRankOnlyAblationKeepsPureWindows(t *testing.T) {
	g := threeChain(t)
	res := distribute(t, g, ADAPTAblation(1.25, true, false), CCNE(), 2)
	// Single path: windows must match PURE exactly (R = 10).
	pure := distribute(t, g, PURE(), CCNE(), 2)
	for id := range res.Relative {
		if !approx(res.Relative[id], pure.Relative[id]) {
			t.Fatalf("rank-only window[%d] = %v, PURE = %v", id, res.Relative[id], pure.Relative[id])
		}
	}
}

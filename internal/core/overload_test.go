package core

import (
	"context"
	"math"
	"testing"

	"deadlinedist/internal/taskgraph"
)

// negWindow is a pathological metric that drives the proportional-split
// fallback in slice(): PURE's virtual costs and ranking, but a Window that
// is negative for every node even when the path span is positive. Every
// window clamps to zero (wsum == 0) while span > 0, so the span must be
// split in proportion to virtual cost. No paper metric reaches that branch
// on a positive span — their raw windows always sum to the span — but the
// branch guards slice() against metrics with different window algebra.
type negWindow struct{ Metric }

func (m negWindow) Name() string                { return "NEGWIN" }
func (m negWindow) Window(c, r float64) float64 { return -c }

// Ratio prefers dense paths (highest mean virtual cost) so the diamond test
// below can slice its spine before the side branch.
func (m negWindow) Ratio(d, sumC float64, n int) float64 {
	if n == 0 {
		return math.Inf(1)
	}
	return -sumC / float64(n)
}

// TestSliceProportionalSplitFallback drives the slice() branch where every
// window clamps to zero yet the path span is positive: the span must be
// split across windowed nodes in proportion to their virtual costs, keeping
// the distribution feasible (windows sum to the span, absolute deadlines
// stay inside the end-to-end deadline).
func TestSliceProportionalSplitFallback(t *testing.T) {
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 10)
	c := b.AddSubtask("c", 30)
	e := b.AddSubtask("e", 60)
	b.Connect(a, c, 0)
	b.Connect(c, e, 0)
	b.SetEndToEnd(e, 200)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	d := Distributor{Metric: negWindow{Metric: PURE()}, Estimator: CCNE()}
	res, err := d.Distribute(context.Background(), g, sys(t, 4), nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Whole chain (subtasks plus negligible comm nodes) sliced in one
	// iteration over span 200; costs 10/30/60 give proportional windows
	// 20/60/120.
	if len(res.Paths) != 1 || len(res.Paths[0]) != g.NumNodes() {
		t.Fatalf("paths = %v, want one %d-node path", res.Paths, g.NumNodes())
	}
	want := map[taskgraph.NodeID]float64{a: 20, c: 60, e: 120}
	for id, w := range want {
		if math.Abs(res.Relative[id]-w) > 1e-9 {
			t.Errorf("node %v window = %v, want %v", id, res.Relative[id], w)
		}
		if !res.Windowed[id] {
			t.Errorf("node %v not windowed", id)
		}
	}
	if math.Abs(res.Absolute[e]-200) > 1e-9 {
		t.Errorf("final absolute deadline = %v, want 200", res.Absolute[e])
	}
	if err := res.Validate(g, 1e-9); err != nil {
		t.Errorf("proportional-split result invalid: %v", err)
	}

	// The reference implementation shares the branch; keep them identical.
	ref, err := referenceDistribute(d, g, sys(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameResult(res, ref); diff != "" {
		t.Errorf("optimized diverges from reference on fallback path: %s", diff)
	}
}

// TestSliceZeroSpanClampsAll covers the sibling branch: when the anchors of
// a later-sliced segment leave no span at all, every window collapses to
// zero rather than going negative. A diamond under negWindow arranges this:
// the dense spine A → E is sliced first and splits the deadline
// proportionally between two equal costs, leaving the side branch through C
// anchored between Absolute[A] and Release[E], which coincide (only a
// zero-width comm node separates A and E on the spine).
func TestSliceZeroSpanClampsAll(t *testing.T) {
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 100)
	e := b.AddSubtask("e", 100)
	c := b.AddSubtask("c", 1)
	b.Connect(a, e, 0)
	b.Connect(a, c, 0)
	b.Connect(c, e, 0)
	b.SetEndToEnd(e, 200)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	d := Distributor{Metric: negWindow{Metric: PURE()}, Estimator: CCNE()}
	res, err := d.Distribute(context.Background(), g, sys(t, 4), nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Spine windows: proportional split of 200 across two cost-100 nodes.
	if math.Abs(res.Relative[a]-100) > 1e-9 || math.Abs(res.Relative[e]-100) > 1e-9 {
		t.Fatalf("spine windows = %v, %v, want 100, 100", res.Relative[a], res.Relative[e])
	}
	// Side branch: zero span between Absolute[a] and Release[e].
	if res.Relative[c] != 0 {
		t.Errorf("zero-span node window = %v, want 0", res.Relative[c])
	}
	if res.Release[c] != res.Absolute[a] || res.Absolute[c] != res.Release[c] {
		t.Errorf("zero-span node not pinned to anchors: release %v, absolute %v, anchor %v",
			res.Release[c], res.Absolute[c], res.Absolute[a])
	}

	ref, err := referenceDistribute(d, g, sys(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameResult(res, ref); diff != "" {
		t.Errorf("optimized diverges from reference on zero-span path: %s", diff)
	}
}

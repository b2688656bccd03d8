package core

import (
	"context"
	"reflect"
	"testing"

	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
)

// TestDistributeScratchMatchesFresh carries one Scratch and one recycled
// Result across a mixed stream of graphs, metrics and system sizes — the
// exact reuse pattern of the experiment engine's pooled workers — and
// checks every distribution bit-for-bit against a fresh share-nothing run.
// Pooled state (DP tables, generation stamps, candidate memos, reachability
// marks) must be invisible in the output.
func TestDistributeScratchMatchesFresh(t *testing.T) {
	sc := NewScratch()
	var recycle *Result
	metrics := []Metric{NORM(), PURE(), THRES(1, 1.25), ADAPT(1.25)}
	for seed := uint64(1); seed <= 4; seed++ {
		g, err := generator.Random(generator.Default(generator.MDET), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 8} {
			sys, err := platform.New(n)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range metrics {
				d := Distributor{Metric: m, Estimator: CCNE()}
				want, err := d.Distribute(context.Background(), g, sys, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := d.Distribute(context.Background(), g, sys, sc, recycle)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %d procs, %s: scratch distribution differs from fresh run",
						seed, n, m.Name())
				}
				// Hand the result back as the next run's recycle target,
				// as the engine's workers do once it has been measured.
				recycle = got
			}
		}
	}
}

// TestDistributeIntoRecyclesStorage pins the recycling contract: the
// returned Result is the recycle argument itself, fully overwritten.
func TestDistributeIntoRecyclesStorage(t *testing.T) {
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := platform.New(4)
	if err != nil {
		t.Fatal(err)
	}
	d := Distributor{Metric: PURE(), Estimator: CCNE()}
	first, err := d.Distribute(context.Background(), g, sys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Distribute(context.Background(), g, sys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Distribute(context.Background(), g, sys, nil, first)
	if err != nil {
		t.Fatal(err)
	}
	if got != first {
		t.Error("Distribute did not return the recycled Result")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("recycled distribution differs from fresh run")
	}
}

package core

import (
	"context"
	"testing"

	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
)

// TestDistributeScratchZeroAlloc pins the steady-state allocation contract
// of the pooled distribution path: once a Scratch and a recycled Result have
// warmed up on a graph/platform shape, further distributions allocate
// nothing. This is what the template-cleared DP rows, bitset reachability
// and Into-style estimator/coster scratch paths buy; any regression (a
// fresh slice on the hot path, an interface box, a map) shows up as a
// nonzero allocation count.
func TestDistributeScratchZeroAlloc(t *testing.T) {
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := platform.New(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Metric{PURE(), NORM(), ADAPT(1.25)} {
		t.Run(m.Name(), func(t *testing.T) {
			d := Distributor{Metric: m, Estimator: CCNE()}
			sc := NewScratch()
			res, err := d.Distribute(context.Background(), g, sys, sc, nil)
			if err != nil {
				t.Fatal(err)
			}
			// A second warmup run settles any cap-growth of recycled
			// slices (Paths entries, candidate memos) before counting.
			if res, err = d.Distribute(context.Background(), g, sys, sc, res); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				var err error
				res, err = d.Distribute(context.Background(), g, sys, sc, res)
				if err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state scratch Distribute allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

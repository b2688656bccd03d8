package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"deadlinedist/internal/generator"
	"deadlinedist/internal/rng"
)

// TestTailQuantile pins the percentile rule: the reported tail is the
// highest percentile (at most the wanted one) with at least ten samples
// beyond it, and none is reported for ten samples or fewer.
func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {11, 1.0 / 11}, {20, 0.5}, {100, 0.9}, {500, 0.98}, {1000, 0.99}, {100000, 0.99},
	} {
		if got := tailQuantile(c.n, 0.99); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	for n := 11; n <= 3000; n++ {
		q := tailQuantile(n, 0.99)
		rank := int(math.Ceil(q * float64(n)))
		if beyond := n - rank; beyond < 10 {
			t.Fatalf("n=%d: q=%v leaves %d samples beyond it", n, q, beyond)
		}
		// One step higher would leave fewer than ten, unless capped.
		if q < 0.99 && n-(rank+1) >= 10 {
			t.Fatalf("n=%d: q=%v is not the highest supported percentile", n, q)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending input: summarize sorts
	}
	s := summarize(xs, 0.99)
	if s.N != 1000 || s.P50 != 500.5 || s.Tail != 990 || s.TailQ != 0.99 {
		t.Fatalf("summarize = %+v", s)
	}
	if s := summarize(xs[:10], 0.99); s.TailQ != 0 || s.Tail != 0 {
		t.Fatalf("ten samples support no tail, got %+v", s)
	}
}

// TestPoissonScheduleMean checks the open-loop schedule: arrivals at the
// requested rate (mean gap 1/rate), inside the phase, in order.
func TestPoissonScheduleMean(t *testing.T) {
	const rate = 500.0
	dur := 40 * time.Second
	sched := poissonSchedule(7, 1, rate, dur)
	want := rate * dur.Seconds()
	// The count is Poisson(20000): four standard deviations is ±566.
	if n := float64(len(sched)); math.Abs(n-want) > 4*math.Sqrt(want) {
		t.Fatalf("%v arrivals, want %v ± %v", n, want, 4*math.Sqrt(want))
	}
	var gaps []float64
	prev := time.Duration(0)
	for _, d := range sched {
		if d < prev || d >= dur {
			t.Fatalf("due time %v out of order or outside the phase", d)
		}
		gaps = append(gaps, (d - prev).Seconds())
		prev = d
	}
	if m := mean(gaps); math.Abs(m*rate-1) > 0.03 {
		t.Fatalf("mean gap %v s, want %v s", m, 1/rate)
	}
	// Exponential gaps: the standard deviation equals the mean.
	var ss float64
	for _, g := range gaps {
		ss += (g - 1/rate) * (g - 1/rate)
	}
	if sd := math.Sqrt(ss / float64(len(gaps))); math.Abs(sd*rate-1) > 0.05 {
		t.Fatalf("gap deviation %v s, want about %v s", sd, 1/rate)
	}
}

// TestSameSeedSameInputs checks that a seed determines every input: the
// request bodies of both serve workloads, the serve-mixed request
// sequence and schedules, and the graphs of the sweep replay.
func TestSameSeedSameInputs(t *testing.T) {
	a, err := hitSet(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hitSet(3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := hitSet(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("serve-hit body %d differs for the same seed", i)
		}
	}
	if bytes.Equal(a[0].body, c[0].body) {
		t.Fatal("serve-hit bodies do not depend on the seed")
	}

	m1, err := mixedSet(3)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := mixedSet(3)
	if err != nil {
		t.Fatal(err)
	}
	tail := 0
	for i := range m1 {
		if !bytes.Equal(m1[i].body, m2[i].body) {
			t.Fatalf("serve-mixed body %d differs for the same seed", i)
		}
		if m1[i].subtasks >= mixedTailMin {
			tail++
		}
	}
	if want := len(m1) / mixedTailEvery; tail < want || tail > want+1 {
		t.Fatalf("%d tail graphs in the pool, want %d", tail, want)
	}

	s1, s2 := newStream(3), newStream(3)
	repeats := 0
	seen := map[int]bool{}
	for i := 0; i < 5000; i++ {
		x, y := s1.pick(), s2.pick()
		if x != y {
			t.Fatalf("stream pick %d differs for the same seed", i)
		}
		if seen[x] && i < mixedPool/2 {
			repeats++
		}
		seen[x] = true
	}
	if share := float64(repeats) / float64(mixedPool/2); math.Abs(share-mixedRepeat) > 0.05 {
		t.Fatalf("repeat share %v, want about %v", share, mixedRepeat)
	}
	p1, p2 := poissonSchedule(3, 2, 600, time.Second), poissonSchedule(3, 2, 600, time.Second)
	if len(p1) != len(p2) || len(p1) == 0 || p1[len(p1)-1] != p2[len(p2)-1] {
		t.Fatal("schedule differs for the same seed")
	}

	for i := uint64(1); i <= 3; i++ {
		g1, err := generator.Random(generator.Default(generator.MDET), rng.New(3).Split(i))
		if err != nil {
			t.Fatal(err)
		}
		g2, err := generator.Random(generator.Default(generator.MDET), rng.New(3).Split(i))
		if err != nil {
			t.Fatal(err)
		}
		j1, _ := g1.MarshalJSON()
		j2, _ := g2.MarshalJSON()
		if !bytes.Equal(j1, j2) {
			t.Fatalf("replay graph %d differs for the same seed", i)
		}
	}
}

func TestSLOCrossing(t *testing.T) {
	ph := func(rate, p99 float64) phase {
		return phase{Rate: rate, WindowP99: p99}
	}
	// A clean crossing interpolates linearly.
	if got := sloCrossing([]phase{ph(600, 8), ph(800, 12), ph(1000, 28)}); math.Abs(got-900) > 1e-9 {
		t.Fatalf("crossing = %v, want 900", got)
	}
	// A noisy dip above the crossing is pooled away: 1100's 18 merges with
	// 1000's 30 into 24, so the limit is crossed between 800 and 1000.
	got := sloCrossing([]phase{ph(600, 8), ph(800, 16), ph(1000, 30), ph(1100, 18)})
	if want := 800 + 200*(20-16)/(24.0-16); math.Abs(got-want) > 1e-9 {
		t.Fatalf("crossing = %v, want %v", got, want)
	}
	// A growing backlog fails regardless of its p99.
	g := ph(1000, 5)
	g.Growing = true
	if got := sloCrossing([]phase{ph(600, 10), g}); got <= 600 || got >= 1000 {
		t.Fatalf("crossing = %v, want inside (600, 1000)", got)
	}
	// Nothing fails: the highest probed rate.
	if got := sloCrossing([]phase{ph(600, 5), ph(700, 6)}); got != 700 {
		t.Fatalf("crossing = %v, want 700", got)
	}
}

// TestParseSweep checks that the table digest ignores the per-figure
// timings and a trailing -stats block, and that the graph count is read.
func TestParseSweep(t *testing.T) {
	tables := "=== figure 2 (16 graphs/point, 1.984s) ===\n\nFigure 2 table\n1 2 3\n\n"
	a, err := parseSweep([]byte(tables))
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseSweep([]byte(strings.Replace(tables, "1.984s", "812ms", 1) +
		"\nstage             count        total\nmeasure          36960    29.791ms\n"))
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Fatal("digest depends on timings or the stats block")
	}
	if b.graphs != 36960 {
		t.Fatalf("parsed %+v and %+v", a, b)
	}
	c, _ := parseSweep([]byte(strings.Replace(tables, "1 2 3", "1 2 4", 1)))
	if c.digest == a.digest {
		t.Fatal("digest ignores table contents")
	}
}

func TestCompareRefusesDifferentCPUs(t *testing.T) {
	a := Result{Workload: "serve-hit", Host: Host{Nproc: 2, Gomaxprocs: 2, CPUModel: "x"}}
	b := a
	if err := comparable(a, b); err != nil {
		t.Fatalf("same host refused: %v", err)
	}
	b.Host.Nproc, b.Host.Gomaxprocs = 1, 1
	if err := comparable(a, b); err == nil || !strings.Contains(err.Error(), "cpus differ") {
		t.Fatalf("different cpus compared: %v", err)
	}
}

// TestCheckerCountsWrongAnswers checks the serve answer accounting: a
// refusal with its taxonomy error is a failure, not a wrong answer; a
// non-200 without one, or a 200 that differs from an earlier answer of
// the same key, is wrong.
func TestCheckerCountsWrongAnswers(t *testing.T) {
	key := strings.Repeat("ab", 32)
	body := []byte(`{"key":"` + key + `","assigner":"ADAPT/CCNE"}`)
	ck := newChecker()
	ck.record(0, reply{status: 200, body: body})
	ck.record(0, reply{status: 200, hit: true, body: body})
	ck.record(1, reply{status: 429, body: []byte(`{"error":{"class":"overload","message":"shed","retryable":true}}`)})
	if ck.attempted != 3 || ck.failed != 1 || ck.wrong != 0 || ck.hits != 1 || ck.misses != 1 {
		t.Fatalf("after two answers and a refusal: %+v", ck)
	}
	ck.record(1, reply{status: 500, body: []byte(`{"error":{"class":"bogus"}}`)})
	ck.record(1, reply{status: 503, body: []byte(`{"error":{"class":"overload"}}`)})
	ck.record(0, reply{status: 200, body: []byte(`{"key":"` + key + `","assigner":"PURE/CCNE"}`)})
	if ck.wrong != 3 {
		t.Fatalf("wrong = %d, want 3 (unknown class, mismatched status, differing body)", ck.wrong)
	}
}

// TestClosedRunValid checks that windows with more than stealMax of
// their cpu time stolen are left out, and that a run without a valid
// window falls back to all of them.
func TestClosedRunValid(t *testing.T) {
	run := closedRun{lats: [][]float64{{1}, {2}, {3}}, steal: []float64{0.01, stealMax + 0.1, stealMax}}
	if got := run.valid(); len(got) != 2 || got[0][0] != 1 || got[1][0] != 3 {
		t.Fatalf("valid windows %v", got)
	}
	run.steal = []float64{0.5, 0.5, 0.5}
	if got := run.valid(); len(got) != 3 {
		t.Fatalf("fallback gave %v", got)
	}
}

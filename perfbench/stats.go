package main

import (
	"math"
	"sort"
)

// Summary is a latency distribution reduced the way every timing in this
// benchmark is reported: a median, the highest percentile the sample
// supports (at most Want), and the sample count behind both.
type Summary struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	Tail  float64 `json:"tail"`
	TailQ float64 `json:"tailQ"` // the percentile Tail is, as a fraction; 0 when unsupported
}

// tailQuantile applies the percentile rule: report the highest percentile
// that still has at least ten samples beyond it, capped at want. With the
// nearest-rank definition the q-quantile of n samples is the
// ceil(q·n)-th smallest, leaving n-ceil(q·n) samples beyond it, so the
// rule admits q ≤ (n-10)/n. It returns 0 when n ≤ 10 (no percentile has
// ten samples beyond it).
func tailQuantile(n int, want float64) float64 {
	if n <= 10 {
		return 0
	}
	if q := float64(n-10) / float64(n); q < want {
		return q
	}
	return want
}

// rankQuantile is the nearest-rank q-quantile of an ascending sample.
func rankQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summarize reduces a sample to its median and supported tail, targeting
// the want-quantile (0.99 for every p99 metric).
func summarize(xs []float64, want float64) Summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := Summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P50 = median(s)
	if q := tailQuantile(len(s), want); q > 0 {
		out.TailQ = q
		out.Tail = rankQuantile(s, q)
	}
	return out
}

// median is the midpoint of a sample (mean of the two middle values for
// even counts); it is how repeated measurements inside one run are
// combined into the run's figure.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

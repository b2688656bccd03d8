package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"deadlinedist/internal/generator"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/serve"
)

// Seed labels: every input of a run is drawn from its own split of the
// workload seed, so adding a draw to one input never shifts another.
const (
	labelHitBodies = iota + 1
	labelHitClients
	labelMixedPool
	labelMixedStream
	labelSchedule
)

// Request-mix parameters of the serving workloads.
const (
	hitBodies      = 64   // serve-hit: the fixed body set replayed after warm-up
	mixedPool      = 2048 // serve-mixed: distinct bodies, 4x the server cache
	mixedCache     = 512  // serve-mixed: dlserve -cache
	mixedTailEvery = 25   // one serve-mixed graph in this many is drawn from the tail
	mixedTailMin   = 100  // tail graph size range (subtasks)
	mixedTailMax   = 200
	mixedRepeat    = 0.30 // share of serve-mixed requests repeating a recent body
	mixedRecent    = 32   // how far back a repeat may reach (distinct bodies)
)

// reqBody is one generated request: the wire body and its graph's size.
type reqBody struct {
	body     []byte
	subtasks int
}

// makeBody draws one §5.2 task graph with a subtask count in [lo, hi] and
// wraps it in a /v1/assign envelope. The assigner is left unpinned, so the
// server's degrade tier picks it, exactly as for an ordinary client.
func makeBody(src *rng.Source, lo, hi, procs int, class string) (reqBody, error) {
	cfg := generator.Default(generator.MDET)
	cfg.MinSubtasks, cfg.MaxSubtasks = lo, hi
	g, err := generator.Random(cfg, src)
	if err != nil {
		return reqBody{}, err
	}
	graph, err := g.MarshalJSON()
	if err != nil {
		return reqBody{}, err
	}
	body, err := json.Marshal(serve.Request{Graph: graph, Procs: procs, Class: class})
	if err != nil {
		return reqBody{}, err
	}
	return reqBody{body: body, subtasks: g.NumSubtasks()}, nil
}

// strata deals seeded values in exact proportions: each consecutive block
// of len(values) draws is a fresh permutation of values, so every block
// of a pool carries the same mix and only the order is random. A seed
// then changes which graphs are drawn, not how much work the mix holds.
type strata struct {
	src    *rng.Source
	values []int
	perm   []int
}

func (s *strata) next() int {
	if len(s.perm) == 0 {
		s.perm = s.src.Perm(len(s.values))
	}
	v := s.values[s.perm[0]]
	s.perm = s.perm[1:]
	return v
}

func intRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

// hitSet is serve-hit's fixed body set: §5.2 graphs of 40–60 subtasks on
// 2–16 processors, all in the server's default latency class.
func hitSet(seed uint64) ([]reqBody, error) {
	src := rng.New(seed).Split(labelHitBodies)
	procs := &strata{src: src.Split(1), values: intRange(2, 16)}
	out := make([]reqBody, hitBodies)
	for i := range out {
		b, err := makeBody(src, 40, 60, procs.next(), "")
		if err != nil {
			return nil, fmt.Errorf("serve-hit body %d: %w", i, err)
		}
		out[i] = b
	}
	return out, nil
}

// Latency classes of serve-mixed, dealt 3/5/2 per block of ten.
var mixedClasses = []string{"interactive", "interactive", "interactive",
	"standard", "standard", "standard", "standard", "standard", "batch", "batch"}

// mixedSet is serve-mixed's distinct body pool: §5.2 graphs of 40–60
// subtasks with a heavy tail (one graph in mixedTailEvery of
// mixedTailMin–mixedTailMax subtasks), 2–16 processors, and an
// interactive/standard/batch class mix of 30/50/20.
func mixedSet(seed uint64) ([]reqBody, error) {
	src := rng.New(seed).Split(labelMixedPool)
	procs := &strata{src: src.Split(1), values: intRange(2, 16)}
	tail := &strata{src: src.Split(2), values: make([]int, mixedTailEvery)}
	tail.values[0] = 1
	tailSize := &strata{src: src.Split(4), values: intRange(mixedTailMin, mixedTailMax)}
	class := &strata{src: src.Split(3), values: intRange(0, len(mixedClasses)-1)}
	out := make([]reqBody, mixedPool)
	for i := range out {
		lo, hi := 40, 60
		if tail.next() == 1 {
			lo = tailSize.next()
			hi = lo
		}
		b, err := makeBody(src, lo, hi, procs.next(), mixedClasses[class.next()])
		if err != nil {
			return nil, fmt.Errorf("serve-mixed body %d: %w", i, err)
		}
		out[i] = b
	}
	return out, nil
}

// stream yields serve-mixed's request sequence as indexes into the pool:
// a fresh body (cycling through the pool) or, with probability
// mixedRepeat, a repeat of one of the last mixedRecent fresh bodies.
type stream struct {
	src    *rng.Source
	next   int
	recent []int
}

func newStream(seed uint64) *stream {
	return &stream{src: rng.New(seed).Split(labelMixedStream)}
}

func (s *stream) pick() int {
	if len(s.recent) > 0 && s.src.Float64() < mixedRepeat {
		return s.recent[s.src.IntN(len(s.recent))]
	}
	i := s.next % mixedPool
	s.next++
	if len(s.recent) == mixedRecent {
		copy(s.recent, s.recent[1:])
		s.recent = s.recent[:mixedRecent-1]
	}
	s.recent = append(s.recent, i)
	return i
}

// poissonSchedule draws the due times of an open-loop phase: Poisson
// arrivals at rate per second over dur, from the phase's own seed split.
func poissonSchedule(seed uint64, phase int, rate float64, dur time.Duration) []time.Duration {
	src := rng.New(seed).Split(labelSchedule).Split(uint64(phase))
	var out []time.Duration
	t := 0.0
	limit := dur.Seconds()
	for {
		// 1-U lies in (0, 1], so the logarithm is finite.
		t += -math.Log(1-src.Float64()) / rate
		if t >= limit {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

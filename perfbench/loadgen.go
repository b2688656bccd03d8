package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"deadlinedist/internal/rng"
	"deadlinedist/internal/serve"
)

// The load comes from one process with at most nproc connections: each
// sender goroutine owns one keep-alive connection.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}, Timeout: 30 * time.Second}
}

// reply is one completed request as the client saw it.
type reply struct {
	status int
	hit    bool
	body   []byte
	err    error
}

func post(hc *http.Client, url string, body []byte, hdr map[string]string) reply {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{status: resp.StatusCode, hit: resp.Header.Get("X-Cache") == "hit", body: b, err: err}
}

// checker accounts every reply: failures (transport errors and non-200s,
// 429 included) and wrong answers (a 200 body that differs from an
// earlier 200 body of the same key, or a non-200 without exactly one
// taxonomy error matching its status). It keeps one body per key for the
// reference comparison made after the timed region.
type checker struct {
	mu        sync.Mutex
	byKey     map[string]keyed
	attempted int64
	failed    int64
	wrong     int64
	hits      int64
	misses    int64
	notes     []string
}

type keyed struct {
	body []byte
	idx  int // the request body that produced it
}

func newChecker() *checker { return &checker{byKey: map[string]keyed{}} }

// taxonomy is the set of error classes a non-200 may carry.
var taxonomy = map[serve.Class]bool{
	serve.ClassInvalid: true, serve.ClassOverload: true, serve.ClassTransient: true, serve.ClassInternal: true,
}

// keyOf extracts the content address a verdict body starts with.
func keyOf(body []byte) (string, bool) {
	const prefix = `{"key":"`
	if len(body) < len(prefix)+64 || !bytes.HasPrefix(body, []byte(prefix)) {
		return "", false
	}
	return string(body[len(prefix) : len(prefix)+64]), true
}

func (c *checker) note(format string, args ...any) {
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// record accounts one reply to request body idx and reports whether it
// was a success.
func (c *checker) record(idx int, rp reply) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	switch {
	case rp.err != nil:
		c.failed++
		c.note("request %d: %v", idx, rp.err)
		return false
	case rp.status != http.StatusOK:
		c.failed++
		var eb serve.ErrorBody
		if err := json.Unmarshal(rp.body, &eb); err != nil || !taxonomy[eb.Err.Class] || eb.Err.Class.Status() != rp.status {
			c.wrong++
			c.note("request %d: status %d without a matching taxonomy error: %.200s", idx, rp.status, rp.body)
		}
		return false
	}
	if rp.hit {
		c.hits++
	} else {
		c.misses++
	}
	k, ok := keyOf(rp.body)
	if !ok {
		c.wrong++
		c.note("request %d: 200 body without a key: %.200s", idx, rp.body)
		return true
	}
	if prev, seen := c.byKey[k]; !seen {
		c.byKey[k] = keyed{body: rp.body, idx: idx}
	} else if !bytes.Equal(prev.body, rp.body) {
		c.wrong++
		c.note("key %s: body differs from an earlier answer", k[:12])
	}
	return true
}

// verify compares every distinct answer with the body an unloaded
// in-process reference server returns for the same graph, procs and
// served assigner (pinned, so the reference cannot degrade).
func (c *checker) verify(bodies []reqBody) error {
	ref := newRefServer()
	defer ref.close()
	for k, kb := range c.byKey {
		var served struct {
			Assigner string `json:"assigner"`
		}
		if err := json.Unmarshal(kb.body, &served); err != nil {
			c.wrong++
			c.note("key %s: unparsable body: %v", k[:12], err)
			continue
		}
		var req serve.Request
		if err := json.Unmarshal(bodies[kb.idx].body, &req); err != nil {
			return err
		}
		req.Assigner = registryName(served.Assigner)
		want, status := ref.assign(req)
		if status != http.StatusOK || !bytes.Equal(want, kb.body) {
			c.wrong++
			c.note("key %s: served body differs from the reference (status %d)", k[:12], status)
		}
	}
	return nil
}

// sender posts request body idx over the caller's connection.
type sender func(hc *http.Client, idx int) reply

// plainSender posts bodies to url with no extra headers.
func plainSender(url string, bodies []reqBody) sender {
	return func(hc *http.Client, idx int) reply { return post(hc, url, bodies[idx].body, nil) }
}

// closedRun is a closed loop's outcome: per-request latencies in ms
// (failures as +Inf) grouped by send time into windows of winDur, and the
// share of cpu time stolen from the guest during each window.
type closedRun struct {
	winDur time.Duration
	lats   [][]float64
	steal  []float64
}

// closedLoop runs clients senders back to back, each posting the bodies
// its own picker draws, in windows of winDur until nwin windows are
// valid (at most stealMax of their cpu time stolen) or stretch·nwin
// windows have passed.
func closedLoop(send sender, picker func(c int) func() int, clients int, winDur time.Duration, nwin int, ck *checker) closedRun {
	maxWin := int(math.Ceil(stretch * float64(nwin)))
	var stop atomic.Bool
	var mu sync.Mutex
	lats := make([][]float64, maxWin)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newHTTPClient()
			defer hc.CloseIdleConnections()
			pick := picker(c)
			mine := make([][]float64, maxWin)
			for !stop.Load() {
				t0 := time.Now()
				idx := pick()
				rp := send(hc, idx)
				lat := float64(time.Since(t0)) / float64(time.Millisecond)
				if !ck.record(idx, rp) {
					lat = math.Inf(1)
				}
				if w := int(t0.Sub(start) / winDur); w < maxWin {
					mine[w] = append(mine[w], lat)
				}
			}
			mu.Lock()
			for w := range lats {
				lats[w] = append(lats[w], mine[w]...)
			}
			mu.Unlock()
		}(c)
	}
	run := closedRun{winDur: winDur}
	clk := readSteal()
	for valid := 0; valid < nwin && len(run.steal) < maxWin; {
		time.Sleep(time.Until(start.Add(time.Duration(len(run.steal)+1) * winDur)))
		stolen := clk.stolenSince()
		clk = readSteal()
		run.steal = append(run.steal, stolen)
		if stolen <= stealMax {
			valid++
		}
	}
	stop.Store(true)
	wg.Wait()
	run.lats = lats[:len(run.steal)]
	return run
}

// valid returns the latencies of the windows with at most stealMax of
// their cpu time stolen, or of every window when none qualifies.
func (c closedRun) valid() [][]float64 {
	var out [][]float64
	for w, s := range c.steal {
		if s <= stealMax {
			out = append(out, c.lats[w])
		}
	}
	if len(out) == 0 {
		return c.lats
	}
	return out
}

// report is the closed loop's entry in the record.
func (c closedRun) report() map[string]any {
	return map[string]any{"windows": len(c.steal), "valid": len(c.valid()), "windowS": c.winDur.Seconds(),
		"stolenFrac": c.steal, "stealMax": stealMax}
}

// seededPicker gives each closed-loop client its own seeded stream of
// indexes into n bodies.
func seededPicker(seed uint64, n int) func(c int) func() int {
	return func(c int) func() int {
		src := rng.New(seed).Split(labelHitClients).Split(uint64(c))
		return func() int { return src.IntN(n) }
	}
}

// sharedPicker lets every closed-loop client draw from one request stream.
func sharedPicker(st *stream) func(c int) func() int {
	var mu sync.Mutex
	return func(int) func() int {
		return func() int {
			mu.Lock()
			defer mu.Unlock()
			return st.pick()
		}
	}
}

// windowedRate is the median over windows of winDur of each window's
// answered requests per second: like windowedTail, it is not moved by a
// stall confined to a few windows.
func windowedRate(windows [][]float64, winDur time.Duration) float64 {
	var rates []float64
	for _, w := range windows {
		n := 0
		for _, l := range w {
			if !math.IsInf(l, 1) {
				n++
			}
		}
		rates = append(rates, float64(n)/winDur.Seconds())
	}
	return median(rates)
}

// windowedTail is the median over windows of each window's p99: one stall
// of the shared host lifts a single window's p99, not the figure. A window
// too small to support a p99 reads +Inf.
func windowedTail(windows [][]float64) float64 {
	var wp []float64
	for _, w := range windows {
		s := summarize(w, 0.99)
		if s.TailQ == 0 {
			s.Tail = math.Inf(1)
		}
		wp = append(wp, s.Tail)
	}
	return median(wp)
}

func flatten(windows [][]float64) []float64 {
	var out []float64
	for _, w := range windows {
		out = append(out, w...)
	}
	return out
}

// phase is one open-loop phase's outcome.
type phase struct {
	Rate       float64    `json:"rate"`
	Sent       int        `json:"sent"`
	Latency    Summary    `json:"latencyMs"` // from each request's due time
	LateP99    float64    `json:"lateP99Ms"` // generator send time minus due time
	Growing    bool       `json:"growingBacklog"`
	Backlog    [2]float64 `json:"backlogFirstLastThird"`
	MeanSendMs float64    `json:"meanSendMs"`  // mean connection occupancy per request
	WindowP99  float64    `json:"windowP99Ms"` // median of the windows' p99s
	MeetsSLO   bool       `json:"meetsSLO"`
	sendLats   []float64
}

// openLoop replays one Poisson schedule: a dispatcher releases each
// request at its due time into a queue that clients senders drain over
// their own connections. Latency runs from the due time, so a stall also
// charges the requests queued behind it.
func openLoop(send sender, st *stream, sched []time.Duration, rate float64, clients int, ck *checker) phase {
	type job struct {
		seq int // position in the schedule
		idx int
		due time.Time
	}
	jobs := make(chan job, len(sched)) // sized to the schedule: the dispatcher never blocks
	lats := make([]float64, len(sched))
	sendLats := make([]float64, len(sched))
	late := make([]float64, 0, len(sched))
	var done atomic.Int64

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newHTTPClient()
			defer hc.CloseIdleConnections()
			for j := range jobs {
				t0 := time.Now()
				rp := send(hc, j.idx)
				now := time.Now()
				ok := ck.record(j.idx, rp)
				lats[j.seq] = float64(now.Sub(j.due)) / float64(time.Millisecond)
				sendLats[j.seq] = float64(now.Sub(t0)) / float64(time.Millisecond)
				if !ok {
					lats[j.seq] = math.Inf(1)
				}
				done.Add(1)
			}
		}()
	}

	// Backlog sampler: due-and-released minus completed, every 50ms.
	var backlog []float64
	var released atomic.Int64
	stopSample := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				backlog = append(backlog, float64(released.Load()-done.Load()))
			case <-stopSample:
				return
			}
		}
	}()

	start := time.Now()
	for i, d := range sched {
		due := start.Add(d)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		late = append(late, float64(time.Since(due))/float64(time.Millisecond))
		released.Add(1)
		jobs <- job{seq: i, idx: st.pick(), due: due}
	}
	close(stopSample)
	<-sampled
	close(jobs)
	wg.Wait()

	p := phase{Rate: rate, Sent: len(sched), Latency: summarize(lats, 0.99), sendLats: sendLats, MeanSendMs: mean(sendLats)}
	p.LateP99 = summarize(late, 0.99).Tail
	if n := len(backlog); n >= 3 {
		first, last := mean(backlog[:n/3]), mean(backlog[n-n/3:])
		p.Backlog = [2]float64{first, last}
		// Growing: the queue rose over the phase and ends holding more than
		// one latency limit's worth of arrivals, so new requests wait out
		// the limit before they are even sent.
		p.Growing = last > first && last > rate*sloP99Ms/1000
	}
	// The SLO verdict reads the windowed p99 of sloWindows consecutive
	// windows by due time.
	windows := make([][]float64, sloWindows)
	for w := range windows {
		windows[w] = lats[w*len(lats)/sloWindows : (w+1)*len(lats)/sloWindows]
	}
	p.WindowP99 = windowedTail(windows)
	p.MeetsSLO = p.WindowP99 <= sloP99Ms && !p.Growing
	return p
}

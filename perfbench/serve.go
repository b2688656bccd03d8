package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"deadlinedist/internal/experiment"
	"deadlinedist/internal/serve"
)

const (
	sloP99Ms      = 20.0     // serve-mixed latency limit on p99, from due time
	lateBoundMs   = sloP99Ms // a generator later than the limit it judges makes a phase invalid
	lowRate       = 250.0
	highRate      = 600.0
	lowShare      = 0.2 // shares of -seconds: the low and high phases,
	highShare     = 0.1
	closedShare   = 0.5  // the closed-loop phase,
	probeShare    = 0.05 // and each max_rate_at_slo probe:
	ladderSteps   = 4    // this many probes, more while all pass,
	maxProbes     = 5    // up to this many,
	sloWindows    = 3    // windows per open-loop phase for the windowed p99
	hitWindows    = 10   // windows per closed loop for the windowed rate and p99
	closedClients = 1    // connections of a closed loop
	startLoad     = 0.8  // from this share of the capacity the high phase implies
	rateStep      = 1.05 // up in 5% steps
	mixedWarmup   = 64   // serve-mixed warm-up requests (fresh bodies)
	serveSetupRun = 9    // daemon launches measured for setup_s
)

// refServer is an unloaded in-process dlserve on its own pool, the
// reference every served answer is compared with.
type refServer struct {
	orc *experiment.Orchestrator
	h   http.Handler
}

func newRefServer() *refServer {
	orc := experiment.NewOrchestrator(1)
	s := serve.New(serve.Config{Orchestrator: orc, CacheEntries: 1})
	return &refServer{orc: orc, h: s.Handler()}
}

func (r *refServer) close() { r.orc.Close() }

func (r *refServer) assign(req serve.Request) ([]byte, int) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, 0
	}
	w := httptest.NewRecorder()
	r.h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/assign", bytes.NewReader(b)))
	return w.Body.Bytes(), w.Code
}

// registryName maps a served assigner label ("ADAPT/CCNE") back to the
// registry name a request pins it with ("ADAPT").
func registryName(label string) string {
	name, _, _ := strings.Cut(label, "/")
	return name
}

// launch starts dlserve, waits for /readyz, and posts the warm-up
// bodies once each, sequentially; it returns the daemon and the seconds
// from launch to warm. With a checker the warm-up replies are accounted;
// without one any failed warm-up request fails the launch.
func launch(o opts, args []string, bodies []reqBody, warm []int, ck *checker) (*daemon, float64, error) {
	t0 := time.Now()
	d, err := startDaemon(filepath.Join(o.bin, "dlserve"), args...)
	if err != nil {
		return nil, 0, err
	}
	base := "http://" + d.addr
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	for {
		resp, err := hc.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 30*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("dlserve not ready within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, idx := range warm {
		rp := post(hc, base+"/v1/assign", bodies[idx].body, nil)
		if ck != nil {
			ck.record(idx, rp)
		} else if rp.err != nil || rp.status != http.StatusOK {
			d.kill()
			return nil, 0, fmt.Errorf("warm-up request for body %d: status %d: %v", idx, rp.status, rp.err)
		}
	}
	return d, time.Since(t0).Seconds(), nil
}

// setupDaemon measures set-up until serveSetupRun launches are valid (at
// most stealMax of their cpu time stolen), or twice that many have run,
// and records the median of the valid ones (of all, if none is) as
// setup_s. Each measured daemon is drained; one more launch, whose warm-up
// replies are accounted by ck, is returned running.
func setupDaemon(o opts, args []string, bodies []reqBody, warm []int, ck *checker, r *Result) (*daemon, error) {
	var all, valid []float64
	for len(valid) < serveSetupRun && len(all) < 2*serveSetupRun {
		clk := readSteal()
		d, s, err := launch(o, args, bodies, warm, nil)
		if err != nil {
			return nil, err
		}
		stolen := clk.stolenSince()
		if err := d.stop(); err != nil {
			return nil, err
		}
		all = append(all, s)
		if stolen <= stealMax {
			valid = append(valid, s)
		}
	}
	if len(valid) == 0 {
		valid = all
	}
	r.set("setup_s", median(valid), "s")
	r.extra("setup", map[string]any{"launches": len(all), "valid": len(valid)})
	d, _, err := launch(o, args, bodies, warm, ck)
	return d, err
}

func runServeHit(o opts, r *Result) error {
	bodies, err := hitSet(o.seed)
	if err != nil {
		return err
	}
	if o.trace {
		return traceServe(o, r, bodies, nil)
	}
	ck := newChecker()
	d, err := setupDaemon(o, nil, bodies, intRange(0, len(bodies)-1), ck, r)
	if err != nil {
		return err
	}
	defer d.kill()
	loadgenProcs(r)
	run := closedLoop(plainSender("http://"+d.addr+"/v1/assign", bodies), seededPicker(o.seed, len(bodies)),
		closedClients, o.seconds/hitWindows, hitWindows, ck)
	windows := run.valid()
	r.set("graphs_per_s", windowedRate(windows, run.winDur), "1/s")
	r.setLatency(summarize(flatten(windows), 0.99), windowedTail(windows))
	r.extra("clients", closedClients)
	r.extra("closedLoop", run.report())
	r.extra("cacheHitRatio", float64(ck.hits)/float64(ck.hits+ck.misses))
	gap, err := serverClientGap(d.addr, flatten(run.lats))
	if err != nil {
		return err
	}
	r.extra("serverClient", gap)
	r.set("rss_mb", d.peakRSSMB(), "MB")
	if err := d.stop(); err != nil {
		return err
	}
	return settle(ck, bodies, r)
}

// loadgenProcs runs the load generator on one processor from here on, so
// that its senders take as little of the host's cpus from dlserve as they
// can; dlserve keeps its default GOMAXPROCS (nproc).
func loadgenProcs(r *Result) {
	runtime.GOMAXPROCS(1)
	r.extra("loadgenGomaxprocs", 1)
}

// settle runs the reference comparison and copies the checker's counts
// into the result.
func settle(ck *checker, bodies []reqBody, r *Result) error {
	if err := ck.verify(bodies); err != nil {
		return err
	}
	r.Attempted, r.Failed, r.WrongAnswers = ck.attempted, ck.failed, ck.wrong
	r.extra("distinctAnswers", len(ck.byKey))
	if len(ck.notes) > 0 {
		r.extra("notes", ck.notes)
	}
	return nil
}

func runServeMixed(o opts, r *Result) error {
	pool, err := mixedSet(o.seed)
	if err != nil {
		return err
	}
	if o.trace {
		return traceServe(o, r, nil, pool)
	}
	ck := newChecker()
	st := newStream(o.seed)
	warm := make([]int, mixedWarmup)
	for i := range warm {
		warm[i] = st.pick()
	}
	// Every launch replays the same warm-up; the stream continues from
	// there for the timed phases.
	d, err := setupDaemon(o, []string{"-cache", strconv.Itoa(mixedCache)}, pool, warm, ck, r)
	if err != nil {
		return err
	}
	defer d.kill()
	send := plainSender("http://"+d.addr+"/v1/assign", pool)
	clients := runtime.NumCPU()
	loadgenProcs(r)
	secs := o.seconds.Seconds()
	at := func(share float64) time.Duration { return time.Duration(share * secs * float64(time.Second)) }

	var phases []phase
	var sendLats []float64
	n := 0
	runPhase := func(rate float64, dur time.Duration) phase {
		n++
		p := openLoop(send, st, poissonSchedule(o.seed, n, rate, dur), rate, clients, ck)
		sendLats = append(sendLats, p.sendLats...)
		phases = append(phases, p)
		return p
	}
	// A phase whose generator ran late is invalid: it is run once more,
	// and the run fails if it is late again.
	valid := func(rate float64, dur time.Duration) (phase, error) {
		p := runPhase(rate, dur)
		if p.LateP99 > lateBoundMs {
			p = runPhase(rate, dur)
		}
		if p.LateP99 > lateBoundMs {
			return p, fmt.Errorf("serve-mixed invalid: generator ran %.2fms late at p99 (bound %gms) at %g req/s",
				p.LateP99, lateBoundMs, p.Rate)
		}
		return p, nil
	}
	low, err := valid(lowRate, at(lowShare))
	if err != nil {
		return err
	}
	high, err := valid(highRate, at(highShare))
	if err != nil {
		return err
	}
	// Closed loop: the same stream from one connection, which sends its
	// next request when the last one returns. Its rate and latencies are
	// the reported figures: with no queue in front of the server they move
	// in proportion to the cost of the mix, where open-loop latencies add
	// queueing delay that swings far more with the shared host's speed.
	// Its p99 is taken over all valid windows together: it falls among
	// the misses of tail graphs, about 3% of requests, and a window holds
	// too few of them for a steady p99.
	closed := closedLoop(send, sharedPicker(st), closedClients, at(closedShare)/hitWindows, hitWindows, ck)
	sendLats = append(sendLats, flatten(closed.lats)...)
	maxRate := searchMaxRate(high, clients, func(rate float64) phase { return runPhase(rate, at(probeShare)) })

	windows := closed.valid()
	r.set("graphs_per_s", windowedRate(windows, closed.winDur), "1/s")
	r.setLatency(summarize(flatten(windows), 0.99), 0)
	r.extra("closedLoop", closed.report())
	r.extra("p50_ms_low", low.Latency.P50)
	r.extra("p99_ms_low", low.WindowP99)
	r.extra("p50_ms_high", high.Latency.P50)
	r.extra("p99_ms_high", high.WindowP99)
	r.extra("max_rate_at_slo", maxRate)
	r.extra("phases", phases)
	r.extra("cacheHitRatio", float64(ck.hits)/float64(ck.hits+ck.misses))
	gap, err := serverClientGap(d.addr, sendLats)
	if err != nil {
		return err
	}
	r.extra("serverClient", gap)
	r.set("rss_mb", d.peakRSSMB(), "MB")
	if err := d.stop(); err != nil {
		return err
	}
	return settle(ck, pool, r)
}

// searchMaxRate finds max_rate_at_slo: the highest Poisson rate whose
// p99 (from due time) stays within sloP99Ms without a growing backlog.
// It probes a ladder of rates 5% apart, starting at startLoad of the
// capacity the high phase implies (clients connections, each held
// meanSendMs per request), and extends the ladder while every probe
// passes. The answer comes from the high phase and every probe together
// (sloCrossing): near capacity a single probe's p99 swings with every
// stall, so no one probe decides it alone.
func searchMaxRate(high phase, clients int, probe func(rate float64) phase) float64 {
	pts := []phase{high}
	rate := max(high.Rate*rateStep, startLoad*float64(clients)/(high.MeanSendMs/1000))
	failed := false
	for i := 0; i < ladderSteps || (!failed && i < maxProbes); i++ {
		p := probe(rate)
		pts = append(pts, p)
		failed = failed || !p.MeetsSLO
		rate *= rateStep
	}
	return sloCrossing(pts)
}

// sloCrossing interpolates where a monotone fit of the windowed p99
// against rate crosses the latency limit. A phase with a growing backlog
// or without a supported p99 counts as failing by a wide margin.
func sloCrossing(pts []phase) float64 {
	sort.Slice(pts, func(i, j int) bool { return pts[i].Rate < pts[j].Rate })
	type block struct{ sum, n, rate float64 }
	var fit []block
	for _, p := range pts {
		y := p.WindowP99
		if p.Growing || math.IsInf(y, 1) {
			y = 10 * sloP99Ms
		}
		fit = append(fit, block{y, 1, p.Rate})
		for len(fit) > 1 && fit[len(fit)-2].sum/fit[len(fit)-2].n > fit[len(fit)-1].sum/fit[len(fit)-1].n {
			a, b := fit[len(fit)-2], fit[len(fit)-1]
			fit = append(fit[:len(fit)-2], block{a.sum + b.sum, a.n + b.n, b.rate})
		}
	}
	// Expand the pooled blocks back to one fitted value per phase.
	var rates, ys []float64
	i := 0
	for _, b := range fit {
		for k := 0; k < int(b.n); k++ {
			rates = append(rates, pts[i].Rate)
			ys = append(ys, b.sum/b.n)
			i++
		}
	}
	if ys[0] > sloP99Ms {
		return rates[0] * sloP99Ms / ys[0]
	}
	for j := 1; j < len(ys); j++ {
		if ys[j] > sloP99Ms {
			if ys[j] == ys[j-1] {
				return rates[j-1]
			}
			f := (sloP99Ms - ys[j-1]) / (ys[j] - ys[j-1])
			return rates[j-1] + f*(rates[j]-rates[j-1])
		}
	}
	return rates[len(rates)-1]
}

// gapReport compares the server's view of request latency with the
// client's.
type gapReport struct {
	ClientP50Ms   float64            `json:"clientP50Ms"`
	ServerP50Ms   float64            `json:"serverP50Ms"`
	GapMs         float64            `json:"gapMs"`
	BucketsApart  int                `json:"bucketsApart"`
	Flag          bool               `json:"flag"` // gap wider than one histogram bucket
	ServerServed  int64              `json:"serverServed"`
	SLOClassP50Ms map[string]float64 `json:"sloClassP50Ms"`
}

// serverClientGap scrapes dlserve_class_latency_seconds (summed over
// classes) and /slo after a run and compares the server's median with the
// client's send-to-reply median over the same requests. The server's
// histogram buckets double in width, so a gap of more than one bucket
// index is flagged.
func serverClientGap(addr string, clientMs []float64) (gapReport, error) {
	var g gapReport
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	resp, err := hc.Get("http://" + addr + "/metrics")
	if err != nil {
		return g, err
	}
	cum := map[float64]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "dlserve_class_latency_seconds_bucket{") {
			continue
		}
		i := strings.Index(line, `le="`)
		j := strings.LastIndex(line, `"}`)
		if i < 0 || j < i {
			continue
		}
		le, err1 := strconv.ParseFloat(line[i+4:j], 64)
		if line[i+4:j] == "+Inf" {
			le, err1 = math.Inf(1), nil
		}
		v, err2 := strconv.ParseFloat(strings.TrimSpace(line[j+2:]), 64)
		if err1 == nil && err2 == nil {
			cum[le] += v
		}
	}
	resp.Body.Close()
	les := make([]float64, 0, len(cum))
	for le := range cum {
		les = append(les, le)
	}
	sort.Float64s(les)
	// Classes omit empty buckets, so re-accumulating per le across classes
	// is exact only at each class's own bounds; the merged cumulative count
	// at a bound is the max over the running sums, which keeps it monotone.
	total := cum[math.Inf(1)]
	if total > 0 {
		prevLe, prevC := 0.0, 0.0
		for _, le := range les {
			c := math.Max(cum[le], prevC)
			if c >= total/2 {
				hi := le
				if math.IsInf(hi, 1) {
					hi = prevLe * 2
				}
				frac := 0.0
				if c > prevC {
					frac = (total/2 - prevC) / (c - prevC)
				}
				g.ServerP50Ms = 1000 * (prevLe + frac*(hi-prevLe))
				break
			}
			prevLe, prevC = le, c
		}
	}
	resp, err = hc.Get("http://" + addr + "/slo")
	if err != nil {
		return g, err
	}
	var slo struct {
		Classes []struct {
			Class   string `json:"class"`
			Served  int64  `json:"served"`
			Latency struct {
				P50Nanos int64 `json:"p50Nanos"`
			} `json:"latency"`
		} `json:"classes"`
	}
	err = json.NewDecoder(resp.Body).Decode(&slo)
	resp.Body.Close()
	if err != nil {
		return g, fmt.Errorf("decode /slo: %w", err)
	}
	g.SLOClassP50Ms = map[string]float64{}
	for _, c := range slo.Classes {
		g.ServerServed += c.Served
		if c.Served > 0 {
			g.SLOClassP50Ms[c.Class] = float64(c.Latency.P50Nanos) / 1e6
		}
	}
	g.ClientP50Ms = summarize(clientMs, 0.99).P50
	g.GapMs = g.ClientP50Ms - g.ServerP50Ms
	g.BucketsApart = bucketIndex(g.ClientP50Ms) - bucketIndex(g.ServerP50Ms)
	g.Flag = g.BucketsApart > 1 || g.BucketsApart < -1
	return g, nil
}

// bucketIndex is the index of the power-of-two microsecond histogram
// bucket holding a latency of ms milliseconds.
func bucketIndex(ms float64) int {
	us := ms * 1000
	if us <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(us)))
}

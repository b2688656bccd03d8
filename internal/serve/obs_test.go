package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"deadlinedist/internal/experiment"
	"deadlinedist/internal/metrics"
	"deadlinedist/internal/obs"
)

// syncWriter collects concurrent writes for later inspection.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestRequestIDEcho: every response — success and all four error classes —
// carries X-Request-Id, echoing the client's id when sane and minting one
// otherwise.
func TestRequestIDEcho(t *testing.T) {
	s := startServer(t, Config{
		Admission: AdmissionConfig{TenantRate: 0.001, TenantBurst: 1},
		Faults:    &experiment.FaultPlan{PanicRate: 1, MaxFaultyAttempts: 99},
		Retry:     experiment.RetryPolicy{MaxAttempts: 1},
	})

	// Success, client-supplied id.
	resp, b := post(t, s, reqBody(0, ``), map[string]string{
		"X-Request-Id": "client-abc-123", "X-Tenant": "t-ok",
	})
	// PanicRate 1 makes computes fail internal; cache-warming is not
	// possible here, so the "success" case is the 500 below. Instead
	// check the echo regardless of status.
	if got := resp.Header.Get("X-Request-Id"); got != "client-abc-123" {
		t.Errorf("client id not echoed: %q (status %d, %s)", got, resp.StatusCode, b)
	}
	// 500 internal (recovered panic after retries exhaust).
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panic request status %d, want 500", resp.StatusCode)
	}

	// 400 invalid.
	resp, _ = post(t, s, `{`, map[string]string{"X-Request-Id": "rid-invalid"})
	if resp.StatusCode != 400 || resp.Header.Get("X-Request-Id") != "rid-invalid" {
		t.Errorf("400: status %d id %q", resp.StatusCode, resp.Header.Get("X-Request-Id"))
	}

	// 429 overload: the tenant's single burst token is gone after one use.
	post(t, s, reqBody(1, ``), map[string]string{"X-Tenant": "noisy"})
	resp, _ = post(t, s, reqBody(2, ``), map[string]string{
		"X-Tenant": "noisy", "X-Request-Id": "rid-shed",
	})
	if resp.StatusCode != 429 || resp.Header.Get("X-Request-Id") != "rid-shed" {
		t.Errorf("429: status %d id %q", resp.StatusCode, resp.Header.Get("X-Request-Id"))
	}

	// 503 transient (draining).
	s.Readiness().SetDraining(true)
	resp, _ = post(t, s, reqBody(3, ``), map[string]string{"X-Request-Id": "rid-drain"})
	if resp.StatusCode != 503 || resp.Header.Get("X-Request-Id") != "rid-drain" {
		t.Errorf("503: status %d id %q", resp.StatusCode, resp.Header.Get("X-Request-Id"))
	}
	s.Readiness().SetDraining(false)

	// Unusable client ids (empty, oversized, non-printable) are replaced
	// with a minted one, never echoed and never blank.
	for _, bad := range []string{"", strings.Repeat("x", 100), "has space"} {
		hdr := map[string]string{}
		if bad != "" {
			hdr["X-Request-Id"] = bad
		}
		resp, _ = post(t, s, reqBody(4, ``), hdr)
		got := resp.Header.Get("X-Request-Id")
		if got == "" || got == bad {
			t.Errorf("bad id %q: echoed %q, want minted", bad, got)
		}
	}
}

// TestRetryAfterProportional: consecutive sheds of one bucket back off
// proportionally — the k-th shed is told to wait for k tokens' worth of
// refill, so shed clients return spread out instead of together.
func TestRetryAfterProportional(t *testing.T) {
	b := &bucket{tokens: 1}
	now := time.Unix(1000, 0)
	b.last = now
	if _, ok := b.take(now, 0.5, 1); !ok {
		t.Fatal("first take should succeed")
	}
	// rate 0.5/s, 0 tokens left: shed k wants ceil(k/0.5) = 2k seconds.
	for k, want := range []time.Duration{2 * time.Second, 4 * time.Second, 6 * time.Second} {
		ra, ok := b.take(now, 0.5, 1)
		if ok {
			t.Fatalf("shed %d unexpectedly admitted", k+1)
		}
		if ra != want {
			t.Errorf("shed %d: Retry-After %v, want %v", k+1, ra, want)
		}
	}
	// A successful take resets the shed streak.
	now = now.Add(4 * time.Second) // 2 tokens refill, clamped to burst 1
	if _, ok := b.take(now, 0.5, 1); !ok {
		t.Fatal("take after refill should succeed")
	}
	if ra, ok := b.take(now, 0.5, 1); ok || ra != 2*time.Second {
		t.Errorf("first shed after reset: %v %v, want 2s shed", ra, ok)
	}
}

// TestTierTransitionEvents: each tier change increments the transition
// counter exactly once and emits exactly one log event; a no-op SetTier
// emits nothing.
func TestTierTransitionEvents(t *testing.T) {
	orc := experiment.NewOrchestrator(1)
	defer orc.Close()
	var w syncWriter
	s := New(Config{Orchestrator: orc, AccessLog: &w, Metrics: metrics.New()})

	s.Ladder().SetTier(TierCheap)
	s.Ladder().SetTier(TierCheap) // no-op: same tier
	s.Ladder().SetTier(TierFull)

	if got := s.Ladder().Transitions(); got != 2 {
		t.Errorf("transitions = %d, want 2", got)
	}
	var events []struct {
		Event  string `json:"event"`
		Detail string `json:"detail"`
	}
	sc := bufio.NewScanner(strings.NewReader(w.String()))
	for sc.Scan() {
		var ev struct {
			Event  string `json:"event"`
			Detail string `json:"detail"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad log line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) != 2 {
		t.Fatalf("log events %v, want exactly 2", events)
	}
	if events[0].Event != "tier-change" || events[0].Detail != "full->cheap" {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[1].Event != "tier-change" || events[1].Detail != "cheap->full" {
		t.Errorf("event 1 = %+v", events[1])
	}
}

// TestAccessLogAndSpans: with both sinks on, a served request produces one
// access-log line carrying its identity and stage timings, and the JSONL
// event log contains its request span plus the expected child stages,
// all sharing the request id.
func TestAccessLogAndSpans(t *testing.T) {
	var alog, events syncWriter
	tr := obs.New(obs.Options{Events: &events})
	s := startServer(t, Config{Trace: tr, AccessLog: &alog})

	resp, _ := post(t, s, reqBody(0, ``), map[string]string{
		"X-Request-Id": "rid-traced", "X-Tenant": "acme", "X-Latency-Class": "interactive",
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var rec AccessRecord
	line := strings.TrimSpace(alog.String())
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("access line %q: %v", line, err)
	}
	if rec.Req != "rid-traced" || rec.Tenant != "acme" || rec.Class != "interactive" ||
		rec.Tier != "full" || rec.Status != 200 || rec.Outcome != "ok" || rec.Cache != "miss" {
		t.Errorf("access record %+v", rec)
	}
	if rec.Key == "" || rec.TotalMs <= 0 {
		t.Errorf("access record missing key/duration: %+v", rec)
	}

	stages := map[string]int{}
	var reqSpan *obs.Event
	sc := bufio.NewScanner(strings.NewReader(events.String()))
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		if ev.Req != "rid-traced" {
			continue
		}
		switch ev.Kind {
		case "request":
			e := ev
			reqSpan = &e
		case "rstage":
			stages[ev.Stage]++
		}
	}
	if reqSpan == nil {
		t.Fatal("no request span in event log")
	}
	if reqSpan.Tenant != "acme" || reqSpan.Class != "interactive" || reqSpan.Outcome != obs.OutcomeOK {
		t.Errorf("request span %+v", reqSpan)
	}
	for _, want := range []string{"tier", "quota", "queue", "attempt", "write"} {
		if stages[want] == 0 {
			t.Errorf("missing %q child span (got %v)", want, stages)
		}
	}
}

// TestDisabledSinksBodiesIdentical: the same request served with sinks on
// and sinks off returns byte-identical bodies — observability must never
// perturb answers.
func TestDisabledSinksBodiesIdentical(t *testing.T) {
	var alog, events syncWriter
	tr := obs.New(obs.Options{Events: &events})
	on := startServer(t, Config{Trace: tr, AccessLog: &alog})
	off := startServer(t, Config{})
	_, bOn := post(t, on, reqBody(6, ``), nil)
	_, bOff := post(t, off, reqBody(6, ``), nil)
	if !bytes.Equal(bOn, bOff) {
		t.Errorf("bodies differ with sinks on/off:\n%s\n%s", bOn, bOff)
	}
}

// TestLatencyClassBudgetClamp: an interactive request may not reserve a
// batch-sized budget — the class clamp binds below the server maximum.
func TestLatencyClassBudgetClamp(t *testing.T) {
	s := startServer(t, Config{
		SLO: SLOConfig{Interactive: SLOClassConfig{MaxBudget: 50 * time.Millisecond}},
		// Hang every attempt so the request runs into its budget.
		Faults: &experiment.FaultPlan{HangRate: 1, HangDuration: 10 * time.Second, MaxFaultyAttempts: 99},
	})
	start := time.Now()
	resp, b := post(t, s, reqBody(0, `, "class": "interactive", "budgetMs": 5000`), nil)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, b)
	}
	if elapsed > time.Second {
		t.Errorf("interactive request held %v despite its 50ms class clamp", elapsed)
	}
	// An unknown class is invalid, not defaulted.
	resp, b = post(t, s, reqBody(0, `, "class": "gold"`), nil)
	if resp.StatusCode != 400 {
		t.Errorf("unknown class: status %d (%s)", resp.StatusCode, b)
	}
	_ = b
}

// TestSLOMetricsExposition: the per-class histogram and burn-rate gauge
// families appear on /metrics, and /slo serves well-formed JSON.
func TestSLOMetricsExposition(t *testing.T) {
	s := startServer(t, Config{})
	post(t, s, reqBody(0, ``), map[string]string{"X-Latency-Class": "interactive"})
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`dlserve_class_requests_total{class="interactive",result="good"} 1`,
		`dlserve_class_latency_seconds_count{class="interactive"} 1`,
		`dlserve_slo_burn_rate{class="interactive",window="5m0s"}`,
		`dlserve_slo_alert_state{class="batch"} 0`,
		`dlserve_slo_alert_transitions_total{class="standard",to="page"} 0`,
		"dlserve_tier_transitions_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	sresp, err := http.Get("http://" + s.Addr() + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var doc struct {
		Classes []obs.SLOClass `json:"classes"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Classes) != 3 || doc.Classes[0].Class != "interactive" {
		t.Errorf("/slo classes %+v", doc.Classes)
	}
	if doc.Classes[0].Served != 1 || doc.Classes[0].State != "ok" {
		t.Errorf("interactive on /slo: %+v", doc.Classes[0])
	}
}

// TestDisabledSinksAllocFlat: with every sink nil, the warmed cache-hit
// request path must stay allocation-flat — the observability layer may not
// tax the disabled configuration, and a byte-identical resubmit must not
// parse. The bound leaves room for the test's request and recorder, the
// response headers, the budget context and admission; an accidentally
// enabled sink encoding JSON per request, or a hit that decodes its graph
// again, blows well past it.
func TestDisabledSinksAllocFlat(t *testing.T) {
	orc := experiment.NewOrchestrator(1)
	defer orc.Close()
	s := New(Config{Orchestrator: orc, Metrics: metrics.New()})
	body := []byte(reqBody(1, ""))

	do := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/assign", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.handleAssign(rec, req)
		return rec.Code
	}
	if code := do(); code != http.StatusOK {
		t.Fatalf("warm-up request: %d", code)
	}

	avg := testing.AllocsPerRun(200, func() {
		if code := do(); code != http.StatusOK {
			t.Fatalf("cache-hit request: %d", code)
		}
	})
	const limit = 60
	if avg > limit {
		t.Errorf("disabled-sinks cache-hit path: %.1f allocs/op, limit %d", avg, limit)
	}
}

package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"deadlinedist/internal/experiment"
)

// accessRecords parses an access log into its request records (event
// lines carry no request id and are skipped).
func accessRecords(t *testing.T, log string) []AccessRecord {
	t.Helper()
	var out []AccessRecord
	sc := bufio.NewScanner(strings.NewReader(log))
	for sc.Scan() {
		var rec AccessRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("access line %q: %v", sc.Text(), err)
		}
		if rec.Req != "" {
			out = append(out, rec)
		}
	}
	return out
}

// TestAliasHeadersNotStored: header overrides shape only the request that
// carries them. The same bytes resent without headers resolve through the
// alias to the body's own tenant, class and budget.
func TestAliasHeadersNotStored(t *testing.T) {
	var alog syncWriter
	s := startServer(t, Config{
		AccessLog: &alog,
		SLO:       SLOConfig{Interactive: SLOClassConfig{MaxBudget: 50 * time.Millisecond}},
		// Hang every attempt so each request runs into its budget, which
		// makes the effective budget visible as the request's latency.
		Faults: &experiment.FaultPlan{HangRate: 1, HangDuration: 10 * time.Second, MaxFaultyAttempts: 99},
	})
	body := reqBody(0, `, "tenant": "body-tenant", "class": "interactive", "budgetMs": 5000`)

	start := time.Now()
	resp, b := post(t, s, body, map[string]string{
		"X-Tenant": "header-tenant", "X-Latency-Class": "batch", "X-Budget-Ms": "600",
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("first request: status %d, want 503 (%s)", resp.StatusCode, b)
	}
	if elapsed := time.Since(start); elapsed < 500*time.Millisecond {
		t.Errorf("first request gave up after %v, before its 600ms header budget", elapsed)
	}

	start = time.Now()
	resp, b = post(t, s, body, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("resend: status %d, want 503 (%s)", resp.StatusCode, b)
	}
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Errorf("resend held %v: the header budget leaked past the interactive class's 50ms clamp", elapsed)
	}
	if n := s.cache.aliasHits.Load(); n != 1 {
		t.Errorf("alias hits = %d, want 1 (the resend)", n)
	}

	recs := accessRecords(t, alog.String())
	if len(recs) != 2 {
		t.Fatalf("%d access records, want 2", len(recs))
	}
	if recs[0].Tenant != "header-tenant" || recs[0].Class != "batch" {
		t.Errorf("first request served as tenant %q class %q, want the headers'", recs[0].Tenant, recs[0].Class)
	}
	if recs[1].Tenant != "body-tenant" || recs[1].Class != "interactive" {
		t.Errorf("resend served as tenant %q class %q, want the body's own", recs[1].Tenant, recs[1].Class)
	}
}

// TestAliasTierLabel: an unpinned body resolves to ADAPT at full fidelity
// and PURE once degraded, so the same bytes must not share an alias
// across tiers.
func TestAliasTierLabel(t *testing.T) {
	s := startServer(t, Config{})
	body := reqBody(2, ``)
	answer := func(tier Tier) *Response {
		t.Helper()
		s.Ladder().SetTier(tier)
		resp, b := post(t, s, body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tier %v: status %d (%s)", tier, resp.StatusCode, b)
		}
		return decodeResponse(t, b)
	}
	full := answer(TierFull)
	cheap := answer(TierCheap)
	if full.Assigner != "ADAPT/CCNE" || cheap.Assigner != "PURE/CCNE" {
		t.Errorf("assigners full %q cheap %q, want ADAPT/CCNE and PURE/CCNE", full.Assigner, cheap.Assigner)
	}
	if full.Key == cheap.Key {
		t.Errorf("full and cheap answers share key %s", full.Key)
	}
	// Both aliases now exist: each tier's resend is an alias hit with its
	// own answer.
	if again := answer(TierFull); again.Key != full.Key || again.Assigner != full.Assigner {
		t.Errorf("full-tier resend answered %s/%s, want %s/%s", again.Assigner, again.Key, full.Assigner, full.Key)
	}
	if again := answer(TierCheap); again.Key != cheap.Key || again.Assigner != cheap.Assigner {
		t.Errorf("cheap-tier resend answered %s/%s, want %s/%s", again.Assigner, again.Key, cheap.Assigner, cheap.Key)
	}
	if n := s.cache.aliasHits.Load(); n != 2 {
		t.Errorf("alias hits = %d, want 2", n)
	}
	s.Ladder().SetTier(TierFull)
}

// TestAliasOutlivesBody: when a body's response is evicted but its alias
// remains, the resend computes again from the lazily decoded graph and
// returns the first answer byte for byte.
func TestAliasOutlivesBody(t *testing.T) {
	s := startServer(t, Config{CacheEntries: 1})
	body := reqBody(3, `, "assigner": "THRES"`)
	resp, first := post(t, s, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first: %d (%s)", resp.StatusCode, first)
	}
	// Evict the response (capacity 1) without touching the alias table.
	e, _ := s.cache.begin("unrelated")
	s.cache.settle("unrelated", e, []byte("{}"), nil)
	if _, ok := s.cache.peek(decodeResponse(t, first).Key); ok {
		t.Fatal("response still cached after eviction")
	}

	resp, again := post(t, s, body, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("resend: %d X-Cache=%q (%s)", resp.StatusCode, resp.Header.Get("X-Cache"), again)
	}
	if s.cache.aliasHits.Load() != 1 {
		t.Errorf("resend did not resolve through the alias")
	}
	if !bytes.Equal(first, again) {
		t.Errorf("recomputed body differs:\n%s\n%s", first, again)
	}
}

// TestAliasRetryAfterFailure: a request whose computation fails releases
// its slot but keeps its alias; the retry resolves through the alias,
// decodes the graph lazily and computes the real answer.
func TestAliasRetryAfterFailure(t *testing.T) {
	s := startServer(t, Config{
		// Attempt 1 always hangs for 300ms: the first request's 60ms
		// budget cuts it short, the retry's default budget outlasts it.
		Faults: &experiment.FaultPlan{HangRate: 1, HangDuration: 300 * time.Millisecond, MaxFaultyAttempts: 1},
	})
	body := reqBody(4, ``)
	resp, b := post(t, s, body, map[string]string{"X-Budget-Ms": "60"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("first: status %d, want 503 (%s)", resp.StatusCode, b)
	}
	resp, got := post(t, s, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry: status %d (%s)", resp.StatusCode, got)
	}
	if s.cache.aliasHits.Load() != 1 {
		t.Errorf("retry did not resolve through the alias")
	}

	clean := startServer(t, Config{})
	if _, want := post(t, clean, body, nil); !bytes.Equal(got, want) {
		t.Errorf("retry answer differs from a clean server's:\n%s\n%s", got, want)
	}
}

// TestAliasBounded: unique traffic cannot grow the alias table past the
// cache's capacity.
func TestAliasBounded(t *testing.T) {
	s := startServer(t, Config{CacheEntries: 4})
	for i := 0; i < 12; i++ {
		resp, b := post(t, s, reqBody(0, fmt.Sprintf(`, "tenant": "t%d"`, i)), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d (%s)", i, resp.StatusCode, b)
		}
	}
	s.cache.mu.Lock()
	n, order := len(s.cache.aliases), len(s.cache.aorder)
	s.cache.mu.Unlock()
	if n > 4 || order > 4 {
		t.Errorf("alias table holds %d entries (order %d), capacity 4", n, order)
	}
}

// TestHandlerMountedTicks: a server mounted through Handler, never
// Started, still runs its pressure ticker — forced queue pressure moves
// the degrade ladder — and Drain stops it.
func TestHandlerMountedTicks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(Config{Workers: 1, PressureInterval: 5 * time.Millisecond})
	s.Handler()
	s.adm.waiting.Store(int64(s.adm.cfg.MaxQueue))
	deadline := time.Now().Add(5 * time.Second)
	for s.Ladder().Tier() == TierFull {
		if time.Now().After(deadline) {
			t.Fatal("ladder never moved under full-queue pressure")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.adm.waiting.Store(0)
	drainPromptly(t, s)
	waitNoLeak(t, baseline)

	// A server driven through handleAssign alone starts nothing.
	direct := New(Config{Workers: 1})
	direct.handleAssign(httptest.NewRecorder(),
		httptest.NewRequest(http.MethodPost, "/v1/assign", strings.NewReader(reqBody(0, ``))))
	direct.drainMu.Lock()
	ticking := direct.ticking
	direct.drainMu.Unlock()
	if ticking {
		t.Error("a direct handleAssign call started the pressure ticker")
	}
	if err := direct.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

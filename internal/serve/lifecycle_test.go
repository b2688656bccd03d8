package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// drainPromptly drains s and fails the test if Drain errs or blocks: on a
// server with nothing in flight it must return well inside the drain bound.
func drainPromptly(t *testing.T, s *Server) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- s.Drain(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain blocked")
	}
}

// TestLifecycleNew: a server built by New and never Started — the state a
// Handler()-mounted server lives in — has no address, serves through its
// handler, and drains promptly, closing the pool it owns.
func TestLifecycleNew(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(Config{Workers: 2})
	if a := s.Addr(); a != "" {
		t.Errorf("Addr before Start = %q, want empty", a)
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/assign", strings.NewReader(reqBody(0, ``))))
	if rr.Code != http.StatusOK {
		t.Fatalf("handler-mounted request: %d (%s)", rr.Code, rr.Body.Bytes())
	}
	drainPromptly(t, s)
	if ok, _ := s.Readiness().Ready(); ok {
		t.Error("/readyz still green after drain")
	}
	// The owned pool's workers are gone.
	waitNoLeak(t, baseline)
}

// TestLifecycleStarted: Start binds a real address that serves the mux.
func TestLifecycleStarted(t *testing.T) {
	s := startServer(t, Config{})
	if s.Addr() == "" {
		t.Fatal("Addr after Start is empty")
	}
	resp, err := http.Get("http://" + s.Addr() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz after Start: %d", resp.StatusCode)
	}
}

// TestLifecycleDrained: after Drain the listener is closed, the address
// stays readable, and the handler refuses work with a transient error.
func TestLifecycleDrained(t *testing.T) {
	s := New(Config{})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	drainPromptly(t, s)
	if s.Addr() != addr {
		t.Errorf("Addr after drain = %q, want %q", s.Addr(), addr)
	}
	if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
		resp.Body.Close()
		t.Error("listener still accepting after drain")
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/assign", strings.NewReader(reqBody(0, ``))))
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("request after drain: %d, want 503", rr.Code)
	}
	if e := decodeError(t, rr.Body.Bytes()); e.Class != ClassTransient {
		t.Errorf("refusal class %v, want transient", e.Class)
	}
}

// TestLifecycleDrainedTwice: Drain is idempotent in both the started and
// the never-started state.
func TestLifecycleDrainedTwice(t *testing.T) {
	started := New(Config{})
	if err := started.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Server{started, New(Config{})} {
		drainPromptly(t, s)
		drainPromptly(t, s)
	}
}

// TestMetricsDeterministic: with no traffic in between, two scrapes of
// /metrics are byte-identical — every family, including the per-class
// request outcomes, renders in a fixed order.
func TestMetricsDeterministic(t *testing.T) {
	s := startServer(t, Config{})
	post(t, s, reqBody(0, ``), nil)
	post(t, s, `{"graph":{"subtasks":[{"name":"a","cost":1}]},"procs":-3}`, nil)
	scrape := func() string {
		resp, err := http.Get("http://" + s.Addr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	first := scrape()
	// Several scrapes, since a map-ordered rendering can repeat by chance.
	for i := 0; i < 8; i++ {
		if got := scrape(); got != first {
			t.Fatalf("scrape %d differs from the first:\n%s\n---\n%s", i+2, first, got)
		}
	}
	last := -1
	for _, c := range failClasses {
		i := strings.Index(first, `dlserve_requests_total{outcome="`+string(c)+`"}`)
		if i < last {
			t.Fatalf("outcome %q out of order in /metrics", c)
		}
		last = i
	}
}

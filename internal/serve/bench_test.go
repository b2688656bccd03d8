package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"deadlinedist/internal/experiment"
)

// benchServe drives handleAssign in process, with every sink off, over
// the given bodies in rotation.
func benchServe(b *testing.B, cacheEntries int, bodies ...[]byte) {
	orc := experiment.NewOrchestrator(1)
	defer orc.Close()
	s := New(Config{Orchestrator: orc, CacheEntries: cacheEntries})
	defer s.Drain(context.Background())
	do := func(body []byte) {
		rec := httptest.NewRecorder()
		s.handleAssign(rec, httptest.NewRequest(http.MethodPost, "/v1/assign", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	for _, body := range bodies {
		do(body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do(bodies[i%len(bodies)])
	}
}

// BenchmarkServeHit: a warmed byte-identical resubmit of a §5.2 graph
// (40–60 subtasks), answered from its alias without parsing.
func BenchmarkServeHit(b *testing.B) {
	benchServe(b, 0, []byte(fmt.Sprintf(`{"graph": %s, "procs": 4}`, dlgenGraphJSON(b, 7))))
}

// BenchmarkServeMiss: two §5.2 graphs alternating through a one-entry
// cache, so every request parses, keys, distributes, schedules and
// renders.
func BenchmarkServeMiss(b *testing.B) {
	benchServe(b, 1,
		[]byte(fmt.Sprintf(`{"graph": %s, "procs": 4}`, dlgenGraphJSON(b, 7))),
		[]byte(fmt.Sprintf(`{"graph": %s, "procs": 4}`, dlgenGraphJSON(b, 8))))
}

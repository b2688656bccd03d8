package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"deadlinedist/internal/experiment"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/rng"
)

// dlgenGraphJSON returns a §5.2 random graph (40–60 subtasks) in the
// interchange form cmd/dlgen writes.
func dlgenGraphJSON(tb testing.TB, seed uint64) string {
	tb.Helper()
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(seed))
	if err != nil {
		tb.Fatal(err)
	}
	data, err := g.MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	return string(data)
}

// FuzzAssignBody: any body yields a 200 verdict or one taxonomy error
// whose class matches its status — never a 500 or a panic — and the same
// bytes sent twice get the same status and byte-identical body, so the
// second (alias) answer equals the full-parse answer. A 503 is the one
// timing-dependent outcome (a body may carry a budget too small to
// finish), so a pair with one is checked for class only.
func FuzzAssignBody(f *testing.F) {
	for i := 0; i < 3; i++ {
		f.Add([]byte(reqBody(i, ``)))
	}
	for _, extra := range []string{
		`, "assigner": "EQF", "policy": "LLF"`,
		`, "tenant": "acme", "class": "batch"`,
		`, "assigner": "MAGIC"`,
		`, "class": "gold"`,
		`, "procs": 0`,
	} {
		f.Add([]byte(reqBody(1, extra)))
	}
	for _, bad := range []string{``, `{`, `[]`, `{"procs": 2}`, `{"graph": null}`, `{"graph": {}} trailing`} {
		f.Add([]byte(bad))
	}
	f.Add([]byte(fmt.Sprintf(`{"graph": %s, "procs": 8}`, dlgenGraphJSON(f, 7))))

	orc := experiment.NewOrchestrator(1)
	f.Cleanup(orc.Close)
	s := New(Config{Orchestrator: orc})
	send := func(body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		s.handleAssign(rec, httptest.NewRequest(http.MethodPost, "/v1/assign", bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		code1, b1 := send(body)
		code2, b2 := send(body)
		for _, r := range []struct {
			code int
			body []byte
		}{{code1, b1}, {code2, b2}} {
			if r.code == http.StatusOK {
				var resp Response
				if err := json.Unmarshal(r.body, &resp); err != nil || resp.Key == "" {
					t.Fatalf("200 without a verdict: %v %s", err, r.body)
				}
				continue
			}
			var eb ErrorBody
			if err := json.Unmarshal(r.body, &eb); err != nil {
				t.Fatalf("status %d without a taxonomy error: %v %s", r.code, err, r.body)
			}
			if eb.Err.Class.Status() != r.code || eb.Err.Class == ClassInternal {
				t.Fatalf("status %d with error %+v", r.code, eb.Err)
			}
		}
		if code1 == http.StatusServiceUnavailable || code2 == http.StatusServiceUnavailable {
			return
		}
		if code1 != code2 || !bytes.Equal(b1, b2) {
			t.Fatalf("same bytes, different answers:\n%d %s\n%d %s", code1, b1, code2, b2)
		}
	})
}

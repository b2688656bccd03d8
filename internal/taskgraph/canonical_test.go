package taskgraph_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"deadlinedist/internal/generator"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

// The reference encoder: the struct-based interchange encoding that
// MarshalJSON used before AppendCanonical, kept as the oracle the
// reflection-free writer must match byte for byte (content keys and
// dlgen output depend on these exact bytes).

type refGraph struct {
	Subtasks []refSubtask `json:"subtasks"`
	Arcs     []refArc     `json:"arcs"`
}

type refSubtask struct {
	Name     string  `json:"name"`
	Cost     float64 `json:"cost"`
	Release  float64 `json:"release,omitempty"`
	EndToEnd float64 `json:"endToEnd,omitempty"`
	Pinned   *int    `json:"pinned,omitempty"`
}

type refArc struct {
	From string  `json:"from"`
	To   string  `json:"to"`
	Size float64 `json:"size"`
}

func referenceMarshal(g *taskgraph.Graph) ([]byte, error) {
	var out refGraph
	nodes := g.NodesView()
	for _, n := range nodes {
		if n.Kind != taskgraph.KindSubtask {
			continue
		}
		st := refSubtask{Name: n.Name, Cost: n.Cost, Release: n.Release, EndToEnd: n.EndToEnd}
		if n.Pinned != taskgraph.Unpinned {
			pinned := n.Pinned
			st.Pinned = &pinned
		}
		out.Subtasks = append(out.Subtasks, st)
	}
	for _, m := range nodes {
		if m.Kind != taskgraph.KindMessage {
			continue
		}
		from := nodes[g.Pred(m.ID)[0]]
		to := nodes[g.Succ(m.ID)[0]]
		out.Arcs = append(out.Arcs, refArc{From: from.Name, To: to.Name, Size: m.Size})
	}
	return json.Marshal(out)
}

// checkCanonical asserts AppendCanonical, MarshalJSON and json.Marshal(g)
// all equal the reference encoding.
func checkCanonical(t *testing.T, g *taskgraph.Graph) {
	t.Helper()
	want, err := referenceMarshal(g)
	if err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	if got := g.AppendCanonical(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendCanonical differs from the reference:\n got %s\nwant %s", got, want)
	}
	prefix := []byte("prefix|")
	if got := g.AppendCanonical(prefix); !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != "prefix|" {
		t.Fatalf("AppendCanonical does not append: %s", got)
	}
	if got, err := g.MarshalJSON(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("MarshalJSON = %s, %v; want %s", got, err, want)
	}
	if got, err := json.Marshal(g); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("json.Marshal(g) = %s, %v; want %s", got, err, want)
	}
}

// dlgenSeeds returns graphs as cmd/dlgen writes them: the paper's §5.2
// random graphs (with and without pinned subtasks and path-based
// deadlines) and the structured shapes.
func dlgenSeeds(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	add := func(g *taskgraph.Graph, err error) {
		if err != nil {
			t.Fatal(err)
		}
		data, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	for seed, sc := range []generator.Scenario{generator.LDET, generator.MDET, generator.HDET} {
		cfg := generator.Default(sc)
		if seed == 1 {
			cfg.PinnedFraction, cfg.PinnedProcs = 0.3, 2
			cfg.Basis = generator.OLRLongestPath
		}
		add(generator.Random(cfg, rng.New(uint64(7+seed))))
	}
	for _, s := range generator.Shapes() {
		add(generator.Structured(generator.StructuredConfig{
			Workload: generator.Default(generator.MDET), Shape: s, Depth: 4, Width: 3,
		}, rng.New(3)))
	}
	return out
}

// threeStage is the serving tests' pipeline graph.
const threeStage = `{"subtasks":[
	{"name":"a","cost":2},
	{"name":"b","cost":3},
	{"name":"c","cost":2,"endToEnd":40}],
  "arcs":[{"from":"a","to":"b","size":1},{"from":"b","to":"c","size":2}]}`

// TestAppendCanonicalEdgeCases covers what the generators never emit:
// escaped and invalid-UTF-8 names, exponent-form floats at both cutoffs,
// negative zero, a pin to processor 0, and a graph without arcs.
func TestAppendCanonicalEdgeCases(t *testing.T) {
	b := taskgraph.NewBuilder()
	names := []string{
		`quote"back\slash`, "<tag>&amp;", "ctl\x00\x01\b\f\n\r\t\x1f\x7f",
		"line\u2028para\u2029", "bad\xffutf8\xc3", "ünïcødé 世界", "",
	}
	costs := []float64{1e-7, 1e-6, 1e21, 9.999999999999999e20, math.Copysign(0, -1), 0.1, 123456789.125}
	var ids []taskgraph.NodeID
	for i, name := range names {
		ids = append(ids, b.AddSubtask(name, costs[i]))
	}
	b.Pin(ids[0], 0)
	b.Pin(ids[3], 7)
	b.SetRelease(ids[0], 5e-324)
	b.SetRelease(ids[1], math.Copysign(0, -1))
	b.Connect(ids[0], ids[2], 1e300)
	b.Connect(ids[1], ids[2], 0)
	b.Connect(ids[2], ids[4], 2.5e-8)
	b.SetEndToEnd(ids[4], 1e22)
	b.SetEndToEnd(ids[3], 7)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	checkCanonical(t, g)

	solo := taskgraph.NewBuilder()
	solo.AddSubtask("only", 3)
	g, err = solo.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	checkCanonical(t, g)

	for _, data := range append(dlgenSeeds(t), []byte(threeStage)) {
		g, err := taskgraph.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		checkCanonical(t, g)
	}
}

// TestMarshalJSONRejectsNonFinite: JSON cannot carry NaN or ±Inf, so the
// encoder refuses them as encoding/json does rather than writing bytes
// no decoder accepts.
func TestMarshalJSONRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := taskgraph.NewBuilder()
		b.SetRelease(b.AddSubtask("a", 1), f)
		g, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.MarshalJSON(); err == nil {
			t.Errorf("MarshalJSON accepted release %v", f)
		}
		if _, err := referenceMarshal(g); err == nil {
			t.Errorf("reference encoder accepted release %v", f)
		}
	}
}

// FuzzAppendCanonical: for every graph Decode accepts, AppendCanonical
// equals the reference struct encoder's json.Marshal output byte for
// byte.
func FuzzAppendCanonical(f *testing.F) {
	f.Add([]byte(threeStage))
	f.Add([]byte(`{"subtasks":[{"name":"<&> ","cost":1e-7,"pinned":0,"release":3}],"arcs":[]}`))
	for _, data := range dlgenSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := taskgraph.Decode(data)
		if err != nil {
			return
		}
		checkCanonical(t, g)
	})
}

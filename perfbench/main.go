// Command perfbench is the repository's benchmark: one command that runs a
// workload against the real dlexp and dlserve binaries, checks every
// answer, and prints the end-to-end metrics; or, with -trace 1, replays
// the same workload in process and reports per-layer metrics from spans
// recorded around each module's public calls. See README.md beside this
// file for the workloads, the metric→layer table and the traced run.
//
// Usage (from the repository root, through run.sh, which builds first):
//
//	bash perfbench/run.sh --workload sweep-all --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare a.json b.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The full self-describing record
// (host, seed, sample counts, phases, checks) is the line before it, and
// is also written under -out.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Metric is one reported figure with its unit and, for timings, the
// sample count and percentile behind it.
type Metric struct {
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	N        int     `json:"n,omitempty"`
	Quantile float64 `json:"quantile,omitempty"`
}

// Host describes where a result was measured; compare refuses to put
// results from different hosts side by side.
type Host struct {
	Nproc      int    `json:"nproc"`
	Gomaxprocs int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	CPUModel   string `json:"cpuModel"`
	Commit     string `json:"commit"`
}

// Result is the self-describing record of one run.
type Result struct {
	Workload     string            `json:"workload"`
	Seed         uint64            `json:"seed"`
	Seconds      int               `json:"seconds"`
	Trace        bool              `json:"trace"`
	Host         Host              `json:"host"`
	Correct      bool              `json:"correct"`
	Attempted    int64             `json:"attempted"`
	Failed       int64             `json:"failed"`
	FailFrac     float64           `json:"failFrac"`
	WrongAnswers int64             `json:"wrongAnswers"`
	Metrics      map[string]Metric `json:"metrics"`
	// Extra holds the figures that are not contract metrics: per-phase
	// latencies, server-vs-client checks, split-of-work checks.
	Extra map[string]any `json:"extra,omitempty"`
}

func (r *Result) set(name string, v float64, unit string) {
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// setLatency records p50_ms from a latency sample in ms, and its tail in
// the record as p99_ms: the sample's own supported percentile, or, for
// serve-hit, the windowed p99 (median of per-window p99s), with the
// sample's overall p99 beside it. The tail is not a contract metric: on
// a shared host the p99 of a millisecond request is set by how often the
// hypervisor preempts a vCPU, and ten runs of serve-hit spread it by
// more than its median.
func (r *Result) setLatency(s Summary, windowed float64) {
	r.Metrics["p50_ms"] = Metric{Value: s.P50, Unit: "ms", N: s.N, Quantile: 0.5}
	tail := Metric{Value: s.Tail, Unit: "ms", N: s.N, Quantile: s.TailQ}
	if windowed > 0 {
		r.extra("p99_ms_overall", s.Tail)
		tail.Value, tail.Quantile = windowed, 0.99
	}
	r.extra("p99_ms", tail)
}

func (r *Result) extra(k string, v any) {
	if r.Extra == nil {
		r.Extra = map[string]any{}
	}
	r.Extra[k] = v
}

// opts is one run's configuration.
type opts struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	bin      string // directory holding dlexp and dlserve
	out      string // directory for result records and span files
	root     string // repository checkout
}

// Where run.sh puts the binaries, and where runs leave their records and
// span files; both under the checkout's build directory.
const (
	binDir    = ".bench_build/bin"
	resultDir = ".bench_build/results"
)

var workloads = map[string]func(o opts, r *Result) error{
	"sweep-all":   runSweep,
	"serve-hit":   runServeHit,
	"serve-mixed": runServeMixed,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fset.String("workload", "", "sweep-all, serve-hit or serve-mixed")
		seed     = fset.Uint64("seed", 1, "workload seed")
		seconds  = fset.Int("seconds", 20, "measured seconds per run")
		trace    = fset.Int("trace", 0, "1 = traced in-process run reporting per-layer metrics")
	)
	if err := fset.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want sweep-all, serve-hit or serve-mixed)", *workload)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	o := opts{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, bin: binDir, out: resultDir, root: root}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	r := &Result{Workload: o.workload, Seed: o.seed, Seconds: *seconds, Trace: o.trace,
		Host: hostInfo(root), Metrics: map[string]Metric{}}
	if err := fn(o, r); err != nil {
		return err
	}
	if r.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	r.FailFrac = float64(r.Failed) / float64(r.Attempted)
	r.Correct = r.WrongAnswers == 0
	return emit(o, r)
}

// emit writes the record file and prints the record line followed by the
// contract line (correct, attempted, failed, metrics) as the last line.
func emit(o opts, r *Result) error {
	rec, err := json.Marshal(r)
	if err != nil {
		return err
	}
	mode := 0
	if r.Trace {
		mode = 1
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, mode))
	if err := os.WriteFile(path, append(rec, '\n'), 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		fmt.Fprintf(os.Stderr, "%-36s %14.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "correct=%v attempted=%d failed=%d (fail_frac %.4g) wrong_answers=%d record=%s\n",
		r.Correct, r.Attempted, r.Failed, r.FailFrac, r.WrongAnswers, path)
	type short struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]short, len(r.Metrics))
	for k, m := range r.Metrics {
		ms[k] = short{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]short `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		return err
	}
	fmt.Printf("record %s\n%s\n", rec, line)
	return nil
}

// hostInfo records the hardware and source identity of a run.
func hostInfo(root string) Host {
	return Host{Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Commit: commit(root)}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the source under test: the git commit when the checkout is
// a repository, otherwise a digest of every Go source and module file, so
// two results of the same tree carry the same identity either way.
func commit(root string) string {
	// Only the checkout's own repository counts, not one enclosing it.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(p); err == nil {
				rel, _ := filepath.Rel(root, p)
				fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// compare prints two result records side by side. It refuses records
// measured on different hardware (nproc, GOMAXPROCS or CPU model), or of
// different workloads or modes: such numbers are not comparable.
func compare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare BASE.json HEAD.json")
	}
	var rs [2]Result
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := rs[0], rs[1]
	if err := comparable(a, b); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s (trace=%v): %s -> %s\n", a.Workload, a.Trace, a.Host.Commit, b.Host.Commit)
	names := make([]string, 0, len(a.Metrics))
	for k := range a.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		ma, mb := a.Metrics[k], b.Metrics[k]
		change := "n/a"
		if ma.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(mb.Value-ma.Value)/ma.Value)
		}
		fmt.Fprintf(w, "%-36s %14.6g %14.6g %8s %s\n", k, ma.Value, mb.Value, change, ma.Unit)
	}
	return nil
}

func comparable(a, b Result) error {
	switch {
	case a.Host.Nproc != b.Host.Nproc || a.Host.Gomaxprocs != b.Host.Gomaxprocs:
		return fmt.Errorf("cpus differ (nproc %d/%d, gomaxprocs %d/%d): results are not comparable",
			a.Host.Nproc, b.Host.Nproc, a.Host.Gomaxprocs, b.Host.Gomaxprocs)
	case a.Host.CPUModel != b.Host.CPUModel:
		return fmt.Errorf("cpu models differ (%q vs %q): results are not comparable", a.Host.CPUModel, b.Host.CPUModel)
	case a.Workload != b.Workload || a.Trace != b.Trace:
		return fmt.Errorf("different workloads or modes (%s/%v vs %s/%v)", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	return nil
}

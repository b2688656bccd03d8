package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"deadlinedist/internal/core"
	"deadlinedist/internal/experiment"
	"deadlinedist/internal/obs"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/scheduler"
	"deadlinedist/internal/strategy"
	"deadlinedist/internal/taskgraph"
)

// Request is the wire form of one assignment request: a task graph in the
// repository's JSON interchange format, the platform size, and optional
// knobs. Tenant and budget may instead (or additionally) arrive as the
// X-Tenant and X-Budget-Ms headers; headers win.
type Request struct {
	// Graph is the task graph (taskgraph interchange: subtasks + arcs).
	Graph json.RawMessage `json:"graph"`
	// Procs is the processor count to distribute for (default 4).
	Procs int `json:"procs,omitempty"`
	// Assigner pins a deadline-assignment strategy: PURE, NORM, THRES,
	// ADAPT (slicing metrics, CCNE estimation) or UD, ED, EQS, EQF
	// (one-pass baselines). Empty selects the tier default (ADAPT at
	// full fidelity, PURE when degraded).
	Assigner string `json:"assigner,omitempty"`
	// Policy is the dispatch rule of the schedulability check: EDF
	// (default), LLF, FIFO or HLF.
	Policy string `json:"policy,omitempty"`
	// BudgetMs is the request's end-to-end computation budget in
	// milliseconds; it becomes a context deadline threaded through the
	// whole pipeline. 0 means the server default; values above the
	// server maximum — or the latency class's own clamp — are clamped.
	BudgetMs int `json:"budgetMs,omitempty"`
	// Tenant names the quota bucket ("" = the anonymous tenant).
	Tenant string `json:"tenant,omitempty"`
	// Class is the request's latency class: "interactive", "standard" or
	// "batch" (empty = the server's default class). May instead (or
	// additionally) arrive as the X-Latency-Class header; the header
	// wins. The class selects the latency objective the request is
	// scored against (slo.go) and clamps its budget; it does not change
	// the answer, so it is excluded from the content address.
	Class string `json:"class,omitempty"`
}

// Response is the wire form of one successful answer. Every field is a
// deterministic function of the request key, so repeated identical
// requests marshal to byte-identical bodies — computed or cached.
type Response struct {
	// Key is the request's content address (sha256); retries carrying
	// the same key are free.
	Key string `json:"key"`
	// Assigner is the strategy that actually computed the answer (a
	// degraded request reports the cheaper label it was served with).
	Assigner string `json:"assigner"`
	// Procs echoes the platform size.
	Procs int `json:"procs"`
	// Verdict is the schedulability check's outcome.
	Verdict Verdict `json:"verdict"`
	// Subtasks carries the distribution: one window per ordinary
	// subtask, in graph order.
	Subtasks []SubtaskWindow `json:"subtasks"`
}

// Verdict reports whether the distributed deadlines are schedulable under
// the requested dispatch policy, and how tightly.
type Verdict struct {
	Schedulable     bool    `json:"schedulable"`
	MaxLateness     float64 `json:"maxLateness"`
	Makespan        float64 `json:"makespan"`
	MissedDeadlines int     `json:"missedDeadlines"`
}

// SubtaskWindow is one subtask's assigned execution window and placement.
type SubtaskWindow struct {
	Name     string  `json:"name"`
	Release  float64 `json:"release"`
	Deadline float64 `json:"deadline"`
	Proc     int     `json:"proc"`
}

// Limits that make a malformed or adversarial request cheap to refuse.
const (
	maxProcs      = 512
	maxSubtasks   = 20000
	maxBodyBytes  = 8 << 20
	maxPooledBuf  = 1 << 20 // larger body and key buffers are not recycled
	serveFaultTag = "serve" // trace table / retry-seed namespace
)

// parsedRequest is a validated request, resolved against the server
// config and the active degrade tier. A byte-identical resubmit resolves
// from its alias without parsing (server.go), so graph, sys and assigner
// stay nil until prepare builds them: only the request that computes
// needs them.
type parsedRequest struct {
	raw      []byte // the request body, valid until the handler returns
	graph    *taskgraph.Graph
	sys      *platform.System
	assigner experiment.Assigner
	procs    int
	label    string // registry name (PURE, ADAPT, ...), not Label()
	policy   scheduler.Policy
	key      string // sha256 content address
	tenant   string
	class    LatencyClass
	budget   time.Duration
}

// envelope is a request's scalar fields. The alias of a body remembers
// them as the body states them; header overrides are applied to a copy on
// every request and never stored.
type envelope struct {
	procs    int
	assigner string
	policy   string
	budgetMs int
	tenant   string
	class    string
}

func (req *Request) envelope() envelope {
	return envelope{
		procs:    req.Procs,
		assigner: req.Assigner,
		policy:   req.Policy,
		budgetMs: req.BudgetMs,
		tenant:   req.Tenant,
		class:    req.Class,
	}
}

// assigners is the registry of servable strategies. It is deliberately
// the paper's stock set: slicing metrics run with CCNE estimation (the
// paper's best) and defaultDelta/threshold parameters matching dlexp.
var assigners = map[string]func() experiment.Assigner{
	"PURE":  func() experiment.Assigner { return experiment.Slicing(core.PURE(), core.CCNE()) },
	"NORM":  func() experiment.Assigner { return experiment.Slicing(core.NORM(), core.CCNE()) },
	"THRES": func() experiment.Assigner { return experiment.Slicing(core.THRES(1.0, 1.25), core.CCNE()) },
	"ADAPT": func() experiment.Assigner { return experiment.Slicing(core.ADAPT(1.25), core.CCNE()) },
	"UD":    func() experiment.Assigner { return experiment.Baseline(strategy.UD()) },
	"ED":    func() experiment.Assigner { return experiment.Baseline(strategy.ED()) },
	"EQS":   func() experiment.Assigner { return experiment.Baseline(strategy.EQS()) },
	"EQF":   func() experiment.Assigner { return experiment.Baseline(strategy.EQF()) },
}

func policyFor(name string) (scheduler.Policy, error) {
	switch name {
	case "", "EDF":
		return scheduler.PolicyEDF, nil
	case "LLF":
		return scheduler.PolicyLLF, nil
	case "FIFO":
		return scheduler.PolicyFIFO, nil
	case "HLF":
		return scheduler.PolicyHLF, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want EDF, LLF, FIFO or HLF)", name)
}

// policyName is the canonical spelling keyed into the content address, so
// an omitted policy and an explicit "EDF" address the same answer.
func policyName(p scheduler.Policy) string {
	switch p {
	case scheduler.PolicyLLF:
		return "LLF"
	case scheduler.PolicyFIFO:
		return "FIFO"
	case scheduler.PolicyHLF:
		return "HLF"
	default:
		return "EDF"
	}
}

// defaultLabel is the assigner an unpinned request resolves to at tier:
// full fidelity normally, the cheapest stock metric under degradation.
func defaultLabel(tier Tier) string {
	if tier >= TierCheap {
		return "PURE"
	}
	return "ADAPT"
}

// decodeEnvelope decodes the first JSON value of a request body; bytes
// after it are ignored.
func decodeEnvelope(raw []byte) (*Request, *Error) {
	var req Request
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&req); err != nil {
		return nil, Errorf(ClassInvalid, "decode request: "+err.Error())
	}
	return &req, nil
}

// decodeGraph decodes and bounds a request's task graph.
func decodeGraph(data json.RawMessage) (*taskgraph.Graph, *Error) {
	if len(data) == 0 {
		return nil, Errorf(ClassInvalid, "missing graph")
	}
	g, err := taskgraph.Decode(data)
	if err != nil {
		return nil, Errorf(ClassInvalid, err.Error())
	}
	subtasks := g.NumSubtasks()
	if subtasks == 0 {
		return nil, Errorf(ClassInvalid, "graph has no subtasks")
	}
	if subtasks > maxSubtasks {
		return nil, Errorf(ClassInvalid, fmt.Sprintf("graph has %d subtasks (limit %d)", subtasks, maxSubtasks))
	}
	return g, nil
}

// parse is the full parse of a body no alias knows: graph checks first,
// then the scalars (env, header overrides applied), then the content key
// from the canonical graph bytes.
func (s *Server) parse(req *Request, env *envelope, tier Tier) (*parsedRequest, *Error) {
	g, perr := decodeGraph(req.Graph)
	if perr != nil {
		return nil, perr
	}
	pr, perr := s.resolve(env, tier)
	if perr != nil {
		return nil, perr
	}
	pr.graph = g
	pr.key = contentKey(g, pr.procs, pr.label, pr.policy)
	return pr, nil
}

// resolve validates a request's scalars against the server's limits and
// the active tier: processor count, dispatch policy, effective assigner,
// latency class and budget. It runs on every request, aliased or not.
func (s *Server) resolve(env *envelope, tier Tier) (*parsedRequest, *Error) {
	procs := env.procs
	if procs == 0 {
		procs = 4
	}
	if procs < 1 || procs > maxProcs {
		return nil, Errorf(ClassInvalid, fmt.Sprintf("procs %d out of range [1, %d]", procs, maxProcs))
	}
	policy, err := policyFor(env.policy)
	if err != nil {
		return nil, Errorf(ClassInvalid, err.Error())
	}

	// Resolve the effective assigner: a pinned request is honored at
	// every computing tier (the client asked for exactly this answer); an
	// unpinned one gets the tier default.
	label := env.assigner
	if label == "" {
		label = defaultLabel(tier)
	}
	if _, ok := assigners[label]; !ok {
		return nil, Errorf(ClassInvalid,
			fmt.Sprintf("unknown assigner %q (want PURE, NORM, THRES, ADAPT, UD, ED, EQS or EQF)", label))
	}

	// The latency class shapes scoring and budget, never the answer.
	class := s.slo.cfg.DefaultClass
	if env.class != "" {
		var ok bool
		if class, ok = parseLatencyClass(env.class); !ok {
			return nil, Errorf(ClassInvalid,
				fmt.Sprintf("unknown latency class %q (want interactive, standard or batch)", env.class))
		}
	}

	budget := s.cfg.DefaultBudget
	if env.budgetMs > 0 {
		budget = time.Duration(env.budgetMs) * time.Millisecond
	}
	if budget > s.cfg.MaxBudget {
		budget = s.cfg.MaxBudget
	}
	// The class clamp binds last: an interactive request may not reserve a
	// batch-sized budget (the class is a promise in both directions).
	if cb := s.slo.maxBudget(class); cb > 0 && budget > cb {
		budget = cb
	}

	return &parsedRequest{
		procs:  procs,
		label:  label,
		policy: policy,
		tenant: env.tenant,
		class:  class,
		budget: budget,
	}, nil
}

// canonBufs recycles the buffers content keys are hashed from.
var canonBufs = sync.Pool{New: func() any { return new([]byte) }}

// contentKey is the content address: it covers exactly the answer's
// inputs — canonical graph bytes (so formatting differences collapse),
// platform size, assigner, policy. Budget, tenant and class are excluded:
// they shape how long we try, not what the answer is.
func contentKey(g *taskgraph.Graph, procs int, label string, policy scheduler.Policy) string {
	bp := canonBufs.Get().(*[]byte)
	buf := g.AppendCanonical((*bp)[:0])
	buf = append(buf, "|procs="...)
	buf = strconv.AppendInt(buf, int64(procs), 10)
	buf = append(buf, "|assigner="...)
	buf = append(buf, label...)
	buf = append(buf, "|policy="...)
	buf = append(buf, policyName(policy)...)
	sum := sha256.Sum256(buf)
	if cap(buf) <= maxPooledBuf {
		*bp = buf
		canonBufs.Put(bp)
	}
	return hex.EncodeToString(sum[:])
}

// prepare builds what computing needs and an alias hit skipped: the graph,
// decoded from the raw body, plus the platform and the assigner. Only the
// singleflight owner calls it.
func (pr *parsedRequest) prepare() *Error {
	if pr.graph == nil {
		req, perr := decodeEnvelope(pr.raw)
		if perr != nil {
			return perr
		}
		if pr.graph, perr = decodeGraph(req.Graph); perr != nil {
			return perr
		}
	}
	sys, err := platform.New(pr.procs)
	if err != nil {
		return Errorf(ClassInvalid, err.Error())
	}
	pr.sys = sys
	pr.assigner = assigners[pr.label]()
	return nil
}

// faultIndex derives the chaos harness's graph index from the request key,
// so injection is a pure function of request content (identical requests
// roll identical faults — and identical recoveries).
func faultIndex(key string) int {
	raw, err := hex.DecodeString(key[:8])
	if err != nil {
		return 0
	}
	return int(binary.BigEndian.Uint32(raw) & 0x7fffffff)
}

// compute runs the full pipeline for one parsed request on the shared
// pool, under the engine's retry policy, and returns the marshalled
// response body. It mirrors the sweep engine's unit runner: each attempt
// gets a watchdog deadline (the tighter of the request budget and the
// per-attempt timeout), injected faults and panics become typed errors,
// and retryable failures re-run with deterministic jittered backoff.
func (s *Server) compute(ctx context.Context, pr *parsedRequest, rs *reqState) ([]byte, *Error) {
	gi := faultIndex(pr.key)
	attempts := s.cfg.Retry.MaxAttempts
	if attempts <= 0 {
		attempts = 3
	}
	seed := experiment.RetrySeed(serveFaultTag, gi)
	var lastErr error
	for k := 1; k <= attempts; k++ {
		if k > 1 {
			s.retries.Add(1)
			rs.retries++
			bt := rs.stageStart()
			err := sleepCtx(ctx, s.cfg.Retry.Delay(k-1, seed))
			rs.span(s.cfg.Trace, "backoff", bt, k, 0, obs.OutcomeRetry, "", errDetail(lastErr))
			if err != nil {
				return nil, Classify(err)
			}
		}
		body, err := s.attempt(ctx, pr, gi, k, rs)
		if err == nil {
			return body, nil
		}
		lastErr = err
		if ctx.Err() != nil || !retryableAttempt(err) {
			break
		}
	}
	return nil, Classify(lastErr)
}

// errDetail compresses an attempt error for span tags.
func errDetail(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// retryableAttempt mirrors the engine's retry predicate: panics, attempt
// timeouts (with a live request) and transient errors are worth re-running.
func retryableAttempt(err error) bool {
	if experiment.IsTransient(err) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var pe *experiment.PanicError
	return errors.As(err, &pe)
}

// attempt is one try: one pool job computing assignment + schedulability
// on a worker's pooled scratch. Fault injection runs inside the job so the
// pool's recover boundary owns injected panics, and the attempt context
// (budget ∧ per-attempt watchdog) governs both the DP's cooperative
// cancellation and the pool's abandonment of a hung attempt.
func (s *Server) attempt(ctx context.Context, pr *parsedRequest, gi, k int, rs *reqState) ([]byte, error) {
	actx := ctx
	if s.cfg.UnitTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, s.cfg.UnitTimeout)
		defer cancel()
	}
	at := rs.stageStart()
	var body []byte
	// The worker id is stored atomically because an abandoned (hung or
	// panicked) attempt's goroutine may still be running when Do returns;
	// whichever write lands, the span names a worker that really carried
	// this attempt.
	var workerID atomic.Int64
	err := s.orc.Do(actx, s.cfg.Metrics, func(wb *experiment.Workbench) error {
		if rs.obsOn {
			workerID.Store(int64(wb.Worker()))
		}
		if err := s.cfg.Faults.Inject(actx, serveFaultTag, gi, k, s.cfg.Metrics, s.cfg.Trace); err != nil {
			return err
		}
		res, err := experiment.AssignContext(actx, pr.assigner, pr.graph, pr.sys, wb.Distributor())
		if err != nil {
			return err
		}
		sched, err := wb.Scheduler().Run(pr.graph, pr.sys, res,
			scheduler.Config{RespectRelease: true, Policy: pr.policy})
		if err != nil {
			return err
		}
		body, err = renderResponse(pr, res, sched)
		return err
	})
	rs.span(s.cfg.Trace, "attempt", at, k, int(workerID.Load()),
		attemptOutcome(err), "", errDetail(err))
	return body, err
}

// attemptOutcome maps an attempt error to its span outcome, mirroring the
// engine's unit-span taxonomy.
func attemptOutcome(err error) obs.Outcome {
	switch {
	case err == nil:
		return obs.OutcomeOK
	case errors.Is(err, context.DeadlineExceeded):
		return obs.OutcomeTimeout
	case errors.Is(err, context.Canceled):
		return obs.OutcomeCancelled
	default:
		var pe *experiment.PanicError
		if errors.As(err, &pe) {
			return obs.OutcomePanic
		}
		return obs.OutcomeError
	}
}

// renderResponse marshals the deterministic response body: subtasks in
// name order (stable under any future builder reordering), floats in Go's
// shortest-round-trip form.
func renderResponse(pr *parsedRequest, res *core.Result, sched *scheduler.Schedule) ([]byte, error) {
	resp := Response{
		Key:      pr.key,
		Assigner: pr.assigner.Label(),
		Procs:    pr.sys.NumProcs(),
		Verdict: Verdict{
			MaxLateness:     sched.MaxLateness(pr.graph, res),
			Makespan:        sched.Makespan,
			MissedDeadlines: sched.MissedDeadlines(pr.graph, res),
		},
	}
	resp.Verdict.Schedulable = resp.Verdict.MissedDeadlines == 0
	for _, n := range pr.graph.NodesView() {
		if n.Kind != taskgraph.KindSubtask {
			continue
		}
		resp.Subtasks = append(resp.Subtasks, SubtaskWindow{
			Name:     n.Name,
			Release:  res.Release[n.ID],
			Deadline: res.Absolute[n.ID],
			Proc:     sched.Proc[n.ID],
		})
	}
	sort.Slice(resp.Subtasks, func(i, j int) bool { return resp.Subtasks[i].Name < resp.Subtasks[j].Name })
	return json.Marshal(&resp)
}

// sleepCtx sleeps for d or until ctx settles.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

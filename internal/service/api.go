package service

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"mpcgraph"
	"mpcgraph/internal/graphio"
	"mpcgraph/internal/model"
	"mpcgraph/internal/registry"
)

// JobRequest is the POST /v1/jobs body. Exactly one of Scenario and
// Graph supplies the instance; Problem is required, Model defaults to
// "mpc". See docs/service.md for the full wire contract.
type JobRequest struct {
	// Problem is the kebab-case problem name (see GET /v1/catalog).
	Problem string `json:"problem"`
	// Model is "mpc" (default) or "congested-clique".
	Model string `json:"model,omitempty"`
	// Scenario generates the instance from the workload catalog.
	Scenario *ScenarioRequest `json:"scenario,omitempty"`
	// Graph uploads the instance in any supported graphio format.
	Graph *GraphRequest `json:"graph,omitempty"`
	// Options are the solve options; zero values select the documented
	// defaults.
	Options OptionsRequest `json:"options,omitempty"`
	// TimeoutMs is a per-job deadline in milliseconds from submission
	// (0 = none), bounding queue wait plus execution. A job exceeding
	// it is canceled between metered rounds.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// NoCache forces a cold run: the deterministic result cache is
	// neither consulted nor trusted for this job, but the fresh result
	// still refreshes it.
	NoCache bool `json:"noCache,omitempty"`
}

// ScenarioRequest names a catalog scenario, mirroring `mpcgraph gen`.
type ScenarioRequest struct {
	Name   string             `json:"name"`
	N      int                `json:"n,omitempty"`
	Seed   uint64             `json:"seed,omitempty"`
	Params map[string]float64 `json:"params,omitempty"`
}

// GraphRequest uploads an instance. Content carries the file bytes in
// the named format (any graphio format name; gzip payloads are detected
// from their magic bytes); Base64 marks Content as base64-encoded, the
// transport for compressed uploads.
type GraphRequest struct {
	Format  string `json:"format"`
	Content string `json:"content"`
	Base64  bool   `json:"base64,omitempty"`
}

// OptionsRequest mirrors the Workers-invariant mpcgraph.Options plus
// the scheduling-only Workers knob.
type OptionsRequest struct {
	Seed         uint64  `json:"seed,omitempty"`
	Eps          float64 `json:"eps,omitempty"`
	MemoryFactor float64 `json:"memoryFactor,omitempty"`
	Strict       bool    `json:"strict,omitempty"`
	// Workers bounds the job's in-process fan-out (0 = the server's
	// default). It never changes results, costs or the cache key.
	Workers int `json:"workers,omitempty"`
}

// resolvePair validates the problem/model names and that the pair is
// registered — the cheap half of resolve, shared by batch expansion so
// a malformed sweep cell rejects the whole batch before any job record
// exists.
func (req *JobRequest) resolvePair() (mpcgraph.Problem, mpcgraph.Model, error) {
	var (
		problem mpcgraph.Problem
		mod     mpcgraph.Model
	)
	if req.Problem == "" {
		return problem, mod, fmt.Errorf("service: request needs a problem (see GET /v1/catalog)")
	}
	problem, err := registry.ParseProblem(req.Problem)
	if err != nil {
		return problem, mod, err
	}
	modelName := req.Model
	if modelName == "" {
		modelName = mpcgraph.ModelMPC.String()
	}
	mod, err = model.ParseModel(modelName)
	if err != nil {
		return problem, mod, err
	}
	if _, registered := registry.Lookup(problem, mod); !registered {
		return problem, mod, fmt.Errorf("%w: %s/%s", mpcgraph.ErrUnsupported, problem, mod)
	}
	return problem, mod, nil
}

// resolve validates the request and materializes the instance. The
// returned source string describes the instance origin for job views.
func (req *JobRequest) resolve(cfg Config) (mpcgraph.Problem, mpcgraph.Model, mpcgraph.Options, mpcgraph.Instance, string, error) {
	var (
		opts     mpcgraph.Options
		instance mpcgraph.Instance
		source   string
	)
	problem, mod, err := req.resolvePair()
	if err != nil {
		return problem, mod, opts, nil, "", err
	}

	switch {
	case req.Scenario != nil && req.Graph != nil:
		return problem, mod, opts, nil, "", fmt.Errorf("service: scenario and graph are mutually exclusive")
	case req.Scenario != nil:
		if req.Scenario.Name == "" {
			return problem, mod, opts, nil, "", fmt.Errorf("service: scenario needs a name (see GET /v1/catalog)")
		}
		instance, err = mpcgraph.GenerateScenario(req.Scenario.Name, req.Scenario.N, req.Scenario.Seed, req.Scenario.Params)
		if err != nil {
			return problem, mod, opts, nil, "", err
		}
		source = fmt.Sprintf("scenario %s (n=%d seed=%d)", req.Scenario.Name, instance.NumVertices(), req.Scenario.Seed)
	case req.Graph != nil:
		instance, err = req.Graph.parse()
		if err != nil {
			return problem, mod, opts, nil, "", err
		}
		source = fmt.Sprintf("upload (%s, n=%d m=%d)", req.Graph.Format, instance.NumVertices(), instance.NumEdges())
	default:
		return problem, mod, opts, nil, "", fmt.Errorf("service: request needs an instance: scenario or graph")
	}

	if _, weighted := instance.(*mpcgraph.WeightedGraph); !weighted && problem == mpcgraph.ProblemWeightedMatching {
		return problem, mod, opts, nil, "", fmt.Errorf("%w: %s", mpcgraph.ErrNeedWeightedGraph, problem)
	}

	opts = mpcgraph.Options{
		Seed:         req.Options.Seed,
		Eps:          req.Options.Eps,
		MemoryFactor: req.Options.MemoryFactor,
		Strict:       req.Options.Strict,
		Workers:      req.Options.Workers,
		Model:        mod,
	}
	if opts.Workers == 0 {
		opts.Workers = cfg.DefaultJobWorkers
	}
	return problem, mod, opts, instance, source, nil
}

// parse materializes an uploaded graph through the graphio layer.
func (g *GraphRequest) parse() (mpcgraph.Instance, error) {
	if g.Format == "" {
		return nil, fmt.Errorf("service: graph upload needs a format (one of the graphio format names)")
	}
	f, err := graphio.ParseFormat(g.Format)
	if err != nil {
		return nil, err
	}
	raw := []byte(g.Content)
	if g.Base64 {
		raw, err = base64.StdEncoding.DecodeString(g.Content)
		if err != nil {
			return nil, fmt.Errorf("service: graph content is not valid base64: %v", err)
		}
	}
	r, err := graphio.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	d, err := graphio.Read(r, f)
	if err != nil {
		return nil, err
	}
	if d.WG != nil {
		return d.WG, nil
	}
	return d.G, nil
}

// requestErrorStatus maps resolution failures onto HTTP statuses,
// mirroring the CLI's sentinel-to-exit-code table: unknown names are
// client errors (400), structurally valid but unservable requests are
// 422.
func requestErrorStatus(err error) int {
	switch {
	case errors.Is(err, mpcgraph.ErrUnknownProblem), errors.Is(err, mpcgraph.ErrUnknownModel):
		return 400
	case errors.Is(err, mpcgraph.ErrUnsupported), errors.Is(err, mpcgraph.ErrNeedWeightedGraph):
		return 422
	}
	return 400
}

// JobView is the wire rendering of a job (GET /v1/jobs/{id} and the
// elements of GET /v1/jobs). Timestamps are RFC 3339; they and
// report.wallMs are the only fields that vary between identical runs.
type JobView struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	Problem  string   `json:"problem"`
	Model    string   `json:"model"`
	Source   string   `json:"source"`
	CacheKey string   `json:"cacheKey"`
	CacheHit bool     `json:"cacheHit"`
	// CacheTier is where a cacheHit was served from: "memory" (L1 LRU)
	// or "disk" (the persistent tier, i.e. a restart survivor or an L1
	// eviction); "none" for computed results.
	CacheTier CacheTier `json:"cacheTier"`
	// Coalesced marks a job that rode another job's identical in-flight
	// computation instead of occupying a queue slot itself. Like cache
	// hits, coalesced jobs carry no trace of their own.
	Coalesced bool `json:"coalesced,omitempty"`
	// Batch is the id of the batch this job was expanded from, when it
	// was admitted through POST /v1/batches.
	Batch      string `json:"batch,omitempty"`
	Error      string `json:"error,omitempty"`
	CreatedAt  string `json:"createdAt"`
	StartedAt  string `json:"startedAt,omitempty"`
	FinishedAt string `json:"finishedAt,omitempty"`
	TraceLen   int    `json:"traceLen"`
	// Timings is the per-phase lifecycle timing block: monotonic
	// millisecond offsets from submission for each phase the job went
	// through, ordered, plus cache-probe durations. Like the
	// timestamps, it varies between identical runs and is operational
	// metadata only.
	Timings *TimingsView `json:"timings,omitempty"`
	Report  *ReportView  `json:"report,omitempty"`
}

// Canonical returns a copy of the view with the volatile fields zeroed;
// what is left is a pure function of the request, so a cold run and
// every replay of it (cache hit, coalesced rider) agree byte for byte.
func (v *JobView) Canonical() *JobView {
	c := *v
	c.ID = ""
	c.CacheHit = false
	c.CacheTier = TierNone // which tier served the replay is operational
	c.Coalesced = false
	c.Source = "" // scenario vs upload origin; not part of the result
	c.CreatedAt, c.StartedAt, c.FinishedAt = "", "", ""
	c.Timings = nil // lifecycle stamps are operational, never deterministic
	c.TraceLen = 0  // a cache hit replays the Report, not the trace
	if c.Report != nil {
		r := *c.Report
		r.WallMs = 0
		c.Report = &r
	}
	return &c
}

// ReportView is the wire rendering of a Report: the audited costs, the
// solution summary, and an FNV-1a fingerprint of the full solution
// payload (the same hash the golden suite pins), so bit-identity of a
// cache hit is checkable from the wire alone. The full solution is
// served by GET /v1/jobs/{id}/solution.
type ReportView struct {
	Problem          string      `json:"problem"`
	Model            string      `json:"model"`
	N                int         `json:"n"`
	M                int         `json:"m"`
	MISSize          *int        `json:"misSize,omitempty"`
	MatchingSize     *int        `json:"matchingSize,omitempty"`
	CoverSize        *int        `json:"coverSize,omitempty"`
	FractionalWeight *float64    `json:"dualLowerBound,omitempty"`
	Value            *float64    `json:"value,omitempty"`
	SolutionHash     string      `json:"solutionHash"`
	Rounds           int         `json:"rounds"`
	Phases           int         `json:"phases"`
	MaxMachineWords  int64       `json:"maxMachineWords"`
	TotalWords       int64       `json:"totalWords"`
	Violations       int         `json:"violations"`
	WallMs           float64     `json:"wallMs"`
	Stages           []StageView `json:"stages"`
}

// StageView mirrors model.StageCost on the wire.
type StageView struct {
	Name   string `json:"name"`
	Rounds int    `json:"rounds"`
	Words  int64  `json:"words"`
}

// solutionHash fingerprints the Report payload exactly like the golden
// suite (golden_test.go): FNV-1a over the member vertex ids or the
// matched pairs in deterministic order.
func solutionHash(rep *mpcgraph.Report) uint64 {
	h := fnv.New64a()
	write := func(vals ...int64) {
		var buf [8]byte
		for _, v := range vals {
			for i := 0; i < 8; i++ {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	switch {
	case rep.InMIS != nil:
		for v, in := range rep.InMIS {
			if in {
				write(int64(v))
			}
		}
	case rep.InCover != nil:
		for v, in := range rep.InCover {
			if in {
				write(int64(v))
			}
		}
	default:
		for _, e := range rep.M.Edges() {
			write(int64(e[0]), int64(e[1]))
		}
	}
	return h.Sum64()
}

func countTrue(set []bool) int {
	n := 0
	for _, in := range set {
		if in {
			n++
		}
	}
	return n
}

// reportView renders rep for the wire.
func reportView(rep *mpcgraph.Report, in mpcgraph.Instance) *ReportView {
	out := &ReportView{
		Problem:         rep.Problem.String(),
		Model:           rep.Model.String(),
		N:               in.NumVertices(),
		M:               in.NumEdges(),
		SolutionHash:    fmt.Sprintf("%016x", solutionHash(rep)),
		Rounds:          rep.Rounds,
		Phases:          rep.Phases,
		MaxMachineWords: rep.MaxMachineWords,
		TotalWords:      rep.TotalWords,
		Violations:      rep.Violations,
		WallMs:          float64(rep.Wall.Microseconds()) / 1000,
		Stages:          make([]StageView, 0, len(rep.Stages)),
	}
	for _, st := range rep.Stages {
		out.Stages = append(out.Stages, StageView{Name: st.Name, Rounds: st.Rounds, Words: st.Words})
	}
	switch rep.Problem {
	case mpcgraph.ProblemMIS:
		size := countTrue(rep.InMIS)
		out.MISSize = &size
	case mpcgraph.ProblemVertexCover:
		size := countTrue(rep.InCover)
		out.CoverSize = &size
		fw := rep.FractionalWeight
		out.FractionalWeight = &fw
	case mpcgraph.ProblemWeightedMatching:
		size := rep.M.Size()
		out.MatchingSize = &size
		v := rep.Value
		out.Value = &v
	default:
		size := rep.M.Size()
		out.MatchingSize = &size
	}
	return out
}

// view snapshots the job for the wire.
func (j *Job) view() *JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := &JobView{
		ID:        j.ID,
		State:     j.state,
		Problem:   j.problem.String(),
		Model:     j.model.String(),
		Source:    j.source,
		CacheKey:  j.cacheKey,
		CacheHit:  j.cacheHit,
		CacheTier: j.cacheTier,
		Coalesced: j.coalesced,
		Batch:     j.batchID,
		Error:     j.err,
		CreatedAt: j.created.UTC().Format("2006-01-02T15:04:05.000Z"),
		TraceLen:  len(j.trace),
		Timings:   j.timings.view(),
	}
	if !j.started.IsZero() {
		v.StartedAt = j.started.UTC().Format("2006-01-02T15:04:05.000Z")
	}
	if !j.finished.IsZero() {
		v.FinishedAt = j.finished.UTC().Format("2006-01-02T15:04:05.000Z")
	}
	if j.report != nil {
		v.Report = reportView(j.report, j.instance)
	}
	return v
}

// renderSolution writes the full solution payload: one vertex id per
// line for vertex sets, one "u v" pair per line for matchings —
// identical to `mpcgraph solve -solution`.
func renderSolution(rep *mpcgraph.Report) string {
	var b strings.Builder
	switch rep.Problem {
	case mpcgraph.ProblemMIS, mpcgraph.ProblemVertexCover:
		set := rep.InMIS
		if rep.Problem == mpcgraph.ProblemVertexCover {
			set = rep.InCover
		}
		for v, in := range set {
			if in {
				fmt.Fprintln(&b, v)
			}
		}
	default:
		for _, e := range rep.M.Edges() {
			fmt.Fprintf(&b, "%d %d\n", e[0], e[1])
		}
	}
	return b.String()
}

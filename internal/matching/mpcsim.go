package matching

import (
	"context"
	"fmt"
	"math"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/machine/meter"
	"mpcgraph/internal/model"
	"mpcgraph/internal/par"
	"mpcgraph/internal/rng"
)

// SimOptions configures the MPC simulation of Central-Rand (the
// MPC-Simulation box in Section 4.3 of the paper).
type SimOptions struct {
	// Seed drives the thresholds and the vertex partitioning.
	Seed uint64
	// Eps is the paper's ε; values are clamped into [0.001, 0.25]. The
	// analysis assumes ε < 1/50; measured guarantees remain within the
	// claimed envelopes for the larger values the experiments sweep.
	Eps float64
	// MemoryFactor sets per-machine memory S = MemoryFactor·n words;
	// default 16.
	MemoryFactor float64
	// DCut is the degree bound at which the simulation switches to
	// direct iteration — the paper's log^20 n, which exceeds n at any
	// feasible scale; default max(16, log2(n)^2).
	DCut func(n int) float64
	// PhaseIterBeta controls iterations per phase:
	// I = max(1, β·log m / log(1/(1-ε))), so d drops to d^(1-β/2) per
	// phase; the default β = 0.2 realizes the d → d^0.9 schedule of the
	// paper's Section 4.2 sketch.
	PhaseIterBeta float64
	// PaperConstants uses the literal I = log m/(10 log 5) from the
	// pseudocode (floored at 1), which at feasible scale degenerates to
	// one iteration per phase; exposed for the ablation test.
	PaperConstants bool
	// FixedThreshold disables random thresholds (every T_{v,t} = 1-2ε),
	// the ablation of Section 4.2's "issue with the direct simulation".
	FixedThreshold bool
	// Strict makes memory violations fail the run.
	Strict bool
	// Probe, when non-nil, records the |y - ỹ| deviation and bad-vertex
	// statistics of Section 4.4.3 (experiment E12).
	Probe *DeviationProbe
	// Workers bounds the goroutines used for the per-machine round
	// bodies (0 = all cores, 1 = the exact sequential path). Results are
	// bit-identical for every setting: every floating-point sum is
	// computed entirely inside one vertex's loop body.
	Workers int
	// Model selects the metered backend: model.MPC (default) or
	// model.CongestedClique. The algorithm trajectory — and therefore the
	// output — is bit-identical across models; only the audited costs
	// differ.
	Model model.Model
	// Ctx, when non-nil, cancels the simulation between rounds.
	Ctx context.Context
	// Trace, when non-nil, observes every metered round.
	Trace model.TraceFunc
}

func (o SimOptions) withDefaults() SimOptions {
	if o.Eps == 0 {
		o.Eps = 0.1
	}
	if o.Eps < 0.001 {
		o.Eps = 0.001
	}
	if o.Eps > 0.25 {
		o.Eps = 0.25
	}
	o.MemoryFactor = meter.ResolveMemoryFactor(o.MemoryFactor)
	if o.DCut == nil {
		o.DCut = DefaultDCut
	}
	if o.PhaseIterBeta == 0 {
		o.PhaseIterBeta = 0.2
	}
	return o
}

// DefaultDCut is the default switch-to-direct threshold max(16, log2²n),
// the simulation-scale stand-in for the paper's log^20 n.
func DefaultDCut(n int) float64 {
	if n < 2 {
		return 16
	}
	l := math.Log2(float64(n))
	return math.Max(16, l*l)
}

// PhaseStat records per-phase instrumentation.
type PhaseStat struct {
	// D is the degree bound d at the phase start.
	D float64
	// Machines is m = ⌊√d⌋ for the phase.
	Machines int
	// Iterations is I, the iterations simulated locally in this phase.
	Iterations int
	// MaxInducedWords is the largest per-machine induced subgraph (in
	// words: |V_i| + 2|E(G'[V_i])|) — the Lemma 4.7 quantity (E7).
	MaxInducedWords int64
	// MaxActiveDegree is the largest active degree in G' at the phase
	// start; Lemma 4.6 asserts it never exceeds D.
	MaxActiveDegree int
	// Frozen counts vertices frozen during the phase (including the
	// end-of-phase Line (j) freezes).
	Frozen int
	// RemovedHeavy counts vertices removed at Line (i) for y > 1.
	RemovedHeavy int
}

// SimResult is the output of Simulate.
type SimResult struct {
	// Frac carries the fractional matching, vertex weights and cover.
	Frac *FracResult
	// Phases is the number of while-loop phases executed.
	Phases int
	// TotalIterations counts Central-Rand iterations simulated in phases.
	TotalIterations int
	// DirectIterations counts the Line (4) direct iterations.
	DirectIterations int
	// Rounds is the number of MPC rounds charged.
	Rounds int
	// MaxMachineWords is the largest per-round per-machine load.
	MaxMachineWords int64
	// TotalWords is the total communication volume.
	TotalWords int64
	// Violations counts capacity violations (non-strict mode).
	Violations int
	// PhaseStats carries per-phase instrumentation.
	PhaseStats []PhaseStat
	// Stages is the audited per-stage cost breakdown (one entry per
	// while-loop phase plus the direct stage). Rounds and Words sum to
	// the run totals.
	Stages []model.StageCost
}

// DeviationProbe accumulates the Section 4.4.3 coupling statistics: per
// phase, the maximum |y_v - ỹ_v| over compared vertices and iterations,
// and the number of "bad" vertices (frozen in exactly one of the two
// coupled processes). The hypothetical Central-Rand is restarted from the
// simulation state at each phase begin, exactly as the analysis assumes.
type DeviationProbe struct {
	// PhaseMaxDev[i] is the max |y - ỹ| observed in phase i.
	PhaseMaxDev []float64
	// PhaseBad[i] counts bad vertices in phase i.
	PhaseBad []int
	// PhaseMaxDiff[i] is the max over vertices of diff(v, t) at the end
	// of phase i — the Definition 4.12 weight-difference
	// Σ_{e∋v} |x_{e} - x^MPC_{e}| between the coupled processes.
	PhaseMaxDiff []float64
	// Compared is the total number of (vertex, iteration) comparisons.
	Compared int
}

// Simulate runs the paper's MPC-Simulation on g and returns the
// fractional matching, vertex cover, and audited model costs, metered on
// the backend selected by opts.Model.
func Simulate(g *graph.Graph, opts SimOptions) (*SimResult, error) {
	opts = opts.withDefaults()
	mt, err := meter.New(opts.Model, meter.Config{
		N:            g.NumVertices(),
		MemoryFactor: opts.MemoryFactor,
		Strict:       opts.Strict,
		Workers:      opts.Workers,
		Ctx:          opts.Ctx,
		Trace:        opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	// simulateOn snapshots the meter's costs before returning, so the
	// backend scratch can go back to the pool here.
	defer mt.Close()
	return simulateOn(g, opts, mt)
}

// simulateOn runs the simulation against an existing meter, so callers
// (the integral pipeline) can accumulate the costs of several
// invocations on one backend. Rounds, TotalWords and Violations in the
// result are deltas relative to the meter state at entry;
// MaxMachineWords is the meter's cumulative per-round maximum.
func simulateOn(g *graph.Graph, opts SimOptions, mt meter.Meter) (*SimResult, error) {
	opts = opts.withDefaults()
	n := g.NumVertices()
	eps := opts.Eps

	lo, hi := 1-4*eps, 1-2*eps
	if opts.FixedThreshold {
		lo = hi
	}
	oracle := rng.NewThresholdOracle(rng.Hash(opts.Seed, 0x7472), lo, hi)
	partSrc := rng.New(opts.Seed).SplitString("partition")

	st := newSimState(g, eps, opts.Workers)
	res := &SimResult{}
	base := mt.Costs()

	machines := meter.SimMachines(n)
	dCut := opts.DCut(n)
	d := float64(n)
	for d > dCut && res.Phases < 64 {
		m := int(math.Sqrt(d))
		if m < 2 {
			break
		}
		if m > machines {
			m = machines
		}
		iters := phaseIterations(m, eps, opts)
		before := mt.Costs()
		stat, err := st.runPhase(mt, oracle, partSrc, m, iters, opts.Probe)
		if err != nil {
			return nil, fmt.Errorf("phase %d: %w", res.Phases, err)
		}
		stat.D = d
		after := mt.Costs()
		res.Stages = append(res.Stages, model.StageCost{
			Name:   fmt.Sprintf("phase-%d", res.Phases),
			Rounds: after.Rounds - before.Rounds,
			Words:  after.TotalWords - before.TotalWords,
		})
		res.Phases++
		res.TotalIterations += iters
		res.PhaseStats = append(res.PhaseStats, stat)
		d *= math.Pow(1-eps, float64(iters))
	}

	// Line (4): direct simulation of Central-Rand until every edge is
	// frozen, one MPC round per iteration.
	beforeDirect := mt.Costs()
	direct, err := st.runDirect(mt, oracle)
	if err != nil {
		return nil, err
	}
	res.DirectIterations = direct
	res.TotalIterations += direct
	if afterDirect := mt.Costs(); afterDirect.Rounds > beforeDirect.Rounds {
		res.Stages = append(res.Stages, model.StageCost{
			Name:   "direct",
			Rounds: afterDirect.Rounds - beforeDirect.Rounds,
			Words:  afterDirect.TotalWords - beforeDirect.TotalWords,
		})
	}

	res.Frac = st.finalize()
	c := mt.Costs()
	res.Rounds = c.Rounds - base.Rounds
	res.MaxMachineWords = c.MaxMachineWords
	res.TotalWords = c.TotalWords - base.TotalWords
	res.Violations = c.Violations - base.Violations
	return res, nil
}

// phaseIterations returns I for a phase with m machines.
func phaseIterations(m int, eps float64, opts SimOptions) int {
	var iters int
	if opts.PaperConstants {
		iters = int(math.Log(float64(m)) / (10 * math.Log(5)))
	} else {
		iters = int(opts.PhaseIterBeta * math.Log(float64(m)) / (-math.Log1p(-eps)))
	}
	if iters < 1 {
		iters = 1
	}
	return iters
}

// simState is the global algorithm state shared by phases.
type simState struct {
	g       *graph.Graph
	eps     float64
	w0      float64
	t       int // global iteration counter
	workers int

	inV        []bool  // v ∈ V'
	freezeIter []int32 // iteration at which v froze; -1 while active
	cover      []bool  // frozen ∪ removed

	pow []float64 // pow[t] = (1-eps)^(-t), grown on demand

	// Per-phase scratch, allocated once and re-zeroed each phase so the
	// phase loop stays allocation-free in steady state.
	yold      []float64
	part      []int32
	localDeg  []int32
	globalDeg []int32

	// Freeze-scan scratch shared by the phases and the direct stage: the
	// ascending worklist of vertices that can still freeze, and one
	// output buffer per scan shard.
	work     []int32
	shardOut [][]int32
}

func newSimState(g *graph.Graph, eps float64, workers int) *simState {
	n := g.NumVertices()
	st := &simState{
		g:          g,
		eps:        eps,
		w0:         (1 - 2*eps) / math.Max(float64(n), 1),
		workers:    workers,
		inV:        make([]bool, n),
		freezeIter: make([]int32, n),
		cover:      make([]bool, n),
		pow:        []float64{1},
		yold:       make([]float64, n),
		part:       make([]int32, n),
		localDeg:   make([]int32, n),
		globalDeg:  make([]int32, n),
	}
	for i := range st.inV {
		st.inV[i] = true
		st.freezeIter[i] = -1
	}
	return st
}

// wAt returns the weight of an edge frozen at iteration t (or active at
// current iteration t): w0/(1-eps)^t.
func (st *simState) wAt(t int) float64 {
	for len(st.pow) <= t {
		st.pow = append(st.pow, st.pow[len(st.pow)-1]/(1-st.eps))
	}
	return st.w0 * st.pow[t]
}

// edgeWeightAt returns the current weight of edge {u,v} (both in V'),
// using the last iteration both endpoints were active, capped at now.
func (st *simState) edgeWeightAt(u, v int32, now int) float64 {
	tu, tv := st.freezeIter[u], st.freezeIter[v]
	te := now
	if tu >= 0 && int(tu) < te {
		te = int(tu)
	}
	if tv >= 0 && int(tv) < te {
		te = int(tv)
	}
	return st.wAt(te)
}

// frozen reports whether v froze already.
func (st *simState) frozen(v int32) bool { return st.freezeIter[v] >= 0 }

// runPhase executes one while-loop phase: partition, local simulation of
// I iterations, end-of-phase weight reconciliation, heavy removal and
// late freezing (Lines (a)-(j) of the pseudocode).
func (st *simState) runPhase(
	mt meter.Meter,
	oracle rng.ThresholdOracle,
	partSrc *rng.Source,
	m, iters int,
	probe *DeviationProbe,
) (PhaseStat, error) {
	g := st.g
	n := int32(g.NumVertices())
	stat := PhaseStat{Machines: m, Iterations: iters}

	// Line (b): y_old — weight of already-frozen edges at each active
	// vertex. Line (d): partition active vertices onto m machines. The
	// partition draw consumes a sequential RNG stream, so it stays on
	// one goroutine; everything after it is a read-only scan.
	yold, part := st.yold, st.part
	localDeg, globalDeg := st.localDeg, st.globalDeg // globalDeg feeds the probe's exact process
	activeCount := 0
	for v := int32(0); v < n; v++ {
		part[v] = -1
		if st.inV[v] && !st.frozen(v) {
			part[v] = int32(partSrc.Intn(m))
			activeCount++
		}
	}
	mt.SetActive(activeCount)
	// wAt grows its memo lazily; pre-grow it to the deepest iteration the
	// phase can reference so the parallel scan only reads it.
	st.wAt(st.t + iters)
	shards := par.ShardCount(st.workers, int(n))
	shardWords := make([][]int64, shards)
	for w := range shardWords {
		shardWords[w] = make([]int64, m)
	}
	par.For(st.workers, int(n), func(lo, hi, w int) {
		words := shardWords[w]
		for v := int32(lo); v < int32(hi); v++ {
			yold[v] = 0
			localDeg[v] = 0
			globalDeg[v] = 0
			if !st.inV[v] || st.frozen(v) {
				continue
			}
			words[part[v]]++
			for _, u := range g.Neighbors(v) {
				if !st.inV[u] {
					continue
				}
				if st.frozen(u) {
					yold[v] += st.wAt(int(st.freezeIter[u]))
					continue
				}
				globalDeg[v]++
				if part[u] == part[v] {
					localDeg[v]++
					if v < u {
						words[part[v]] += 2
					}
				}
			}
		}
	})
	inducedWords := make([]int64, m)
	for _, words := range shardWords {
		for j, w := range words {
			inducedWords[j] += w
		}
	}
	for _, w := range inducedWords {
		if w > stat.MaxInducedWords {
			stat.MaxInducedWords = w
		}
	}
	// yold is fixed for the phase, so a settled vertex stays settled
	// until the next phase rebuilds the worklist.
	ft := &freezeTest{oracle: oracle, deg: localDeg, base: yold}
	work := st.work[:0]
	for v := int32(0); v < n; v++ {
		if int(globalDeg[v]) > stat.MaxActiveDegree {
			stat.MaxActiveDegree = int(globalDeg[v])
		}
		if part[v] >= 0 && !ft.settled(v) {
			work = append(work, v)
		}
	}

	// Charge the shuffle round: edges travel from their hash-home to the
	// owner machine of their partition class; the inbox of machine i is
	// exactly its induced subgraph (the Lemma 4.7 audit).
	if err := mt.Shuffle(m, inducedWords); err != nil {
		return stat, err
	}

	// Probe state: hypothetical Central-Rand restarted from the current
	// global state, per Section 4.4's coupling. hypoFreeze records the
	// iteration at which the hypothetical process froze each vertex
	// (-1 while active), so the Definition 4.12 weight difference is
	// computable at phase end.
	var hypoFreeze []int32
	if probe != nil {
		hypoFreeze = make([]int32, n)
		for i := range hypoFreeze {
			hypoFreeze[i] = -1
		}
		probe.PhaseMaxDev = append(probe.PhaseMaxDev, 0)
		probe.PhaseBad = append(probe.PhaseBad, 0)
		probe.PhaseMaxDiff = append(probe.PhaseMaxDiff, 0)
	}

	// Line (e): simulate I iterations on every machine in parallel. All
	// active edges carry weight w_t, so the local estimate reduces to
	// ỹ_{v,t} = m·w_t·localDeg(v) + y_old(v).
	frozenBefore := countFrozen(st)
	toFreeze := make([]int32, 0, 64)
	hypoToFreeze := make([]int32, 0, 64)
	for k := 0; k < iters; k++ {
		wt := st.wAt(st.t)
		toFreeze = toFreeze[:0]
		hypoToFreeze = hypoToFreeze[:0]
		if probe == nil {
			ft.a, ft.t = float64(m)*wt, st.t
			toFreeze = st.freezeScan(toFreeze, work, ft)
		} else {
			// The probe couples the simulated and hypothetical processes
			// with shared running statistics; it runs at conformance
			// scale, so the combined scan stays sequential.
			for v := int32(0); v < n; v++ {
				if !st.inV[v] || st.frozen(v) {
					continue
				}
				yTilde := float64(m)*wt*float64(localDeg[v]) + yold[v]
				th := oracle.At(v, st.t)
				if yTilde >= th {
					toFreeze = append(toFreeze, v)
				}
				if hypoFreeze[v] < 0 {
					yExact := wt*float64(globalDeg[v]) + yold[v]
					probe.Compared++
					dev := math.Abs(yExact - yTilde)
					if dev > probe.PhaseMaxDev[len(probe.PhaseMaxDev)-1] {
						probe.PhaseMaxDev[len(probe.PhaseMaxDev)-1] = dev
					}
					if yExact >= th {
						hypoToFreeze = append(hypoToFreeze, v)
					}
					if (yExact >= th) != (yTilde >= th) {
						probe.PhaseBad[len(probe.PhaseBad)-1]++
					}
				}
			}
		}
		for _, v := range toFreeze {
			st.freezeIter[v] = int32(st.t)
			st.cover[v] = true
		}
		for _, v := range toFreeze {
			for _, u := range g.Neighbors(v) {
				if st.inV[u] && part[u] == part[v] && localDeg[u] > 0 {
					localDeg[u]--
				}
			}
		}
		work = st.compact(work, ft)
		if probe != nil {
			for _, v := range hypoToFreeze {
				hypoFreeze[v] = int32(st.t)
			}
			for _, v := range hypoToFreeze {
				for _, u := range g.Neighbors(v) {
					if st.inV[u] && hypoFreeze[u] < 0 && globalDeg[u] > 0 {
						globalDeg[u]--
					}
				}
			}
		}
		st.t++
	}
	st.work = work

	// Definition 4.12: diff(v) = Σ_{e∋v} |x_e - x^MPC_e| over the edges
	// that were active at phase start, comparing the freeze schedules of
	// the two coupled processes.
	if probe != nil {
		diff := make([]float64, n)
		capIter := func(f int32) int {
			if f >= 0 && int(f) < st.t {
				return int(f)
			}
			return st.t
		}
		for v := int32(0); v < n; v++ {
			if part[v] < 0 {
				continue
			}
			for _, u := range g.Neighbors(v) {
				if u <= v || part[u] < 0 {
					continue
				}
				simTe := capIter(st.freezeIter[v])
				if s2 := capIter(st.freezeIter[u]); s2 < simTe {
					simTe = s2
				}
				hypTe := capIter(hypoFreeze[v])
				if h2 := capIter(hypoFreeze[u]); h2 < hypTe {
					hypTe = h2
				}
				d := math.Abs(st.wAt(simTe) - st.wAt(hypTe))
				diff[v] += d
				diff[u] += d
			}
		}
		idx := len(probe.PhaseMaxDiff) - 1
		for v := int32(0); v < n; v++ {
			if diff[v] > probe.PhaseMaxDiff[idx] {
				probe.PhaseMaxDiff[idx] = diff[v]
			}
		}
	}

	// Charge the result exchange: frozen (v, iteration) pairs are
	// gathered and redistributed (1 gather + broadcast).
	frozenNow := countFrozen(st)
	frozenWords := int64(2 * (frozenNow - frozenBefore))
	if err := mt.ResultSync(m, frozenWords); err != nil {
		return stat, err
	}

	// Lines (g)-(h): reconcile edge weights from freeze iterations and
	// compute y^MPC over G[V'].
	y := st.computeY()
	// Line (i): remove heavy vertices (y > 1) from V'; they join the
	// reported cover.
	const heavyTol = 1e-12
	for v := int32(0); v < n; v++ {
		if st.inV[v] && y[v] > 1+heavyTol {
			st.inV[v] = false
			st.cover[v] = true
			stat.RemovedHeavy++
		}
	}
	// Line (j): freeze vertices with y > 1-2ε.
	for v := int32(0); v < n; v++ {
		if st.inV[v] && !st.frozen(v) && y[v] > 1-2*st.eps {
			st.freezeIter[v] = int32(st.t)
			st.cover[v] = true
		}
	}
	stat.Frozen = countFrozen(st) - frozenBefore
	return stat, nil
}

// runDirect executes Central-Rand directly from the current state until
// no active edge remains, one MPC round per iteration. Returns the number
// of iterations.
func (st *simState) runDirect(mt meter.Meter, oracle rng.ThresholdOracle) (int, error) {
	g := st.g
	n := int32(g.NumVertices())
	// Initialize exact incremental state. Each vertex gathers its own
	// frozen-weight sum and active degree (both endpoints see each edge),
	// so the scan fans out with per-vertex float sums kept whole.
	yFrozen := make([]float64, n)
	activeDeg := make([]int32, n)
	st.wAt(st.t) // pre-grow the weight memo
	acc := par.Reduce(st.workers, int(n), func(lo, hi, _ int) [2]int64 {
		var active, verts int64
		for v := int32(lo); v < int32(hi); v++ {
			if !st.inV[v] {
				continue
			}
			if !st.frozen(v) {
				verts++
			}
			s := 0.0
			for _, u := range g.Neighbors(v) {
				if !st.inV[u] {
					continue
				}
				if st.frozen(v) || st.frozen(u) {
					s += st.edgeWeightAt(v, u, st.t)
				} else {
					activeDeg[v]++
					active++
				}
			}
			yFrozen[v] = s
		}
		return [2]int64{active, verts}
	}, func(a, b [2]int64) [2]int64 { return [2]int64{a[0] + b[0], a[1] + b[1]} })
	activeEdges := int(acc[0] / 2)
	activeVerts := int(acc[1])
	// yFrozen moves only when an active edge freezes, so a settled vertex
	// leaves the worklist for good.
	ft := &freezeTest{oracle: oracle, deg: activeDeg, base: yFrozen}
	work := st.work[:0]
	for v := int32(0); v < n; v++ {
		if st.inV[v] && !st.frozen(v) && !ft.settled(v) {
			work = append(work, v)
		}
	}
	maxIter := maxCentralIterations(int(n), st.eps) + st.t
	iters := 0
	toFreeze := make([]int32, 0, 64)
	for activeEdges > 0 && st.t < maxIter {
		mt.SetActive(activeVerts)
		if err := mt.DirectRound(int64(activeEdges)); err != nil {
			return iters, fmt.Errorf("direct iteration %d: %w", iters, err)
		}
		wt := st.wAt(st.t)
		ft.a, ft.t = wt, st.t
		toFreeze = st.freezeScan(toFreeze[:0], work, ft)
		for _, v := range toFreeze {
			st.freezeIter[v] = int32(st.t)
			st.cover[v] = true
		}
		activeVerts -= len(toFreeze)
		// Deactivate edges whose first endpoint froze this iteration.
		for _, v := range toFreeze {
			for _, u := range g.Neighbors(v) {
				if !st.inV[u] {
					continue
				}
				// The edge {v,u} was active before this iteration iff u
				// was unfrozen or froze this very iteration after v —
				// guard with activeDeg bookkeeping: it was active iff
				// u's freezeIter is -1 or == t, and the edge not yet
				// deactivated. Using freezeIter == t for both endpoints
				// would double-deactivate; let the smaller id act.
				uf := st.freezeIter[u]
				if uf >= 0 && int(uf) < st.t {
					continue // already frozen earlier; edge was frozen
				}
				if uf == int32(st.t) && u < v {
					continue // peer freeze, edge handled by u's loop
				}
				w := wt
				yFrozen[v] += w
				yFrozen[u] += w
				activeDeg[v]--
				activeDeg[u]--
				activeEdges--
			}
		}
		work = st.compact(work, ft)
		st.t++
		iters++
	}
	// Defensive: if the cap fired, freeze remaining active endpoints so
	// the cover property holds (cannot happen for sane ε; tested). Every
	// unfrozen vertex with an active edge is still on the worklist.
	if activeEdges > 0 {
		for _, v := range work {
			if activeDeg[v] > 0 {
				st.freezeIter[v] = int32(st.t)
				st.cover[v] = true
			}
		}
	}
	return iters, nil
}

// freezeTest is one loop's freeze predicate. Both loops estimate y_v as
// a·deg[v] + base[v]: a phase with a = m·w_t, deg the local degree and
// base y_old (the ỹ of Line (e)); the direct stage with a = w_t, deg the
// active degree and base the weight of v's frozen edges.
type freezeTest struct {
	oracle rng.ThresholdOracle
	t      int
	a      float64
	deg    []int32
	base   []float64
}

// reaches reports whether v's estimate reaches T_{v,t}.
func (ft *freezeTest) reaches(v int32) bool {
	return ft.oracle.Reaches(ft.a*float64(ft.deg[v])+ft.base[v], v, ft.t)
}

// settled reports that v can no longer freeze in this loop: deg only
// falls and base only moves along with it, so with deg[v] == 0 the
// estimate stays base[v], and below Lo() it reaches no threshold.
func (ft *freezeTest) settled(v int32) bool {
	return ft.deg[v] == 0 && ft.base[v] < ft.oracle.Lo()
}

// freezeScan appends to dst the vertices of the ascending worklist work
// whose estimate reaches their threshold. The predicate reads only
// pre-iteration state (thresholds come from a stateless oracle), so the
// scan fans out; each shard filters into its reused buffer and the
// buffers are concatenated in shard order, which reproduces the
// sequential ascending order at every worker count.
func (st *simState) freezeScan(dst, work []int32, ft *freezeTest) []int32 {
	shards := par.ShardCount(st.workers, len(work))
	if shards == 1 {
		return appendReached(dst, work, ft)
	}
	for len(st.shardOut) < shards {
		st.shardOut = append(st.shardOut, nil)
	}
	par.For(st.workers, len(work), func(lo, hi, w int) {
		st.shardOut[w] = appendReached(st.shardOut[w][:0], work[lo:hi], ft)
	})
	for _, out := range st.shardOut[:shards] {
		dst = append(dst, out...)
	}
	return dst
}

func appendReached(dst, work []int32, ft *freezeTest) []int32 {
	for _, v := range work {
		if ft.reaches(v) {
			dst = append(dst, v)
		}
	}
	return dst
}

// compact drops the vertices that froze or settled from the worklist,
// in place and in order.
func (st *simState) compact(work []int32, ft *freezeTest) []int32 {
	k := 0
	for _, v := range work {
		if !st.frozen(v) && !ft.settled(v) {
			work[k] = v
			k++
		}
	}
	return work[:k]
}

// computeY returns y^MPC over G[V'] at the current iteration. Each
// vertex gathers its own incident weights (every edge weight is
// recomputed on both sides), so the per-vertex float sums are formed
// entirely inside one loop body and the result is bit-identical for
// every worker count.
func (st *simState) computeY() []float64 {
	g := st.g
	n := g.NumVertices()
	y := make([]float64, n)
	st.wAt(st.t) // pre-grow the weight memo so the scan only reads it
	par.For(st.workers, n, func(lo, hi, _ int) {
		for v := int32(lo); v < int32(hi); v++ {
			if !st.inV[v] {
				continue
			}
			s := 0.0
			for _, u := range g.Neighbors(v) {
				if st.inV[u] {
					s += st.edgeWeightAt(v, u, st.t)
				}
			}
			y[v] = s
		}
	})
	return y
}

// finalize assembles the fractional matching output: edges inside the
// final V' carry their reconciled weights; edges touching removed
// vertices carry zero (they are covered by the removed endpoints).
// X entries are disjoint per edge and each Y entry is gathered inside
// one vertex's body, so both fills fan out deterministically.
func (st *simState) finalize() *FracResult {
	g := st.g
	n := g.NumVertices()
	ix := graph.NewEdgeIndexWorkers(g, st.workers)
	res := &FracResult{
		Ix:         ix,
		X:          make([]float64, ix.NumEdges()),
		Y:          make([]float64, n),
		Cover:      st.cover,
		Iterations: st.t,
	}
	st.wAt(st.t) // pre-grow the weight memo
	par.For(st.workers, n, func(lo, hi, _ int) {
		for v := int32(lo); v < int32(hi); v++ {
			if !st.inV[v] {
				continue
			}
			s := 0.0
			id := ix.FirstID(v) // id of {v, u} for the next neighbor u > v
			for _, u := range g.Neighbors(v) {
				var w float64
				if st.inV[u] {
					w = st.edgeWeightAt(v, u, st.t)
					s += w
				}
				if v < u {
					res.X[id] = w
					id++
				}
			}
			res.Y[v] = s
		}
	})
	return res
}

func countFrozen(st *simState) int {
	c := 0
	for v := range st.freezeIter {
		if st.freezeIter[v] >= 0 {
			c++
		}
	}
	return c
}

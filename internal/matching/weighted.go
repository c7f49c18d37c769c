package matching

import (
	"context"
	"fmt"
	"math"
	"sort"

	"mpcgraph/internal/baseline"
	"mpcgraph/internal/graph"
	"mpcgraph/internal/machine/meter"
	"mpcgraph/internal/model"
	"mpcgraph/internal/mpc"
	"mpcgraph/internal/rng"
)

// WeightedResult is the output of ApproxMaxWeightedMatching.
type WeightedResult struct {
	// M is the computed matching.
	M graph.Matching
	// Value is its total weight.
	Value float64
	// Improvements counts the improvement iterations executed (each one
	// maximal-matching invocation, realized in O(log log n) MPC rounds by
	// Theorem 1.2 per Corollary 1.4).
	Improvements int
}

// ApproxMaxWeightedMatching computes a (2+eps)-approximate maximum weight
// matching following the reduction of Lotker, Patt-Shamir and Rosén
// [LPSR09] that Corollary 1.4 invokes: starting from the empty matching,
// repeat O(log(1/eps)/eps) times — collect the "profitable" edges, those
// whose weight beats (1+eps) times the weight of the incident matched
// edges, compute a maximal matching among them, and swap it in. Each
// improvement round is one unweighted matching invocation, so the MPC
// cost is O(log log n · 1/eps) rounds.
func ApproxMaxWeightedMatching(wg *graph.Weighted, eps float64, seed uint64) *WeightedResult {
	if eps <= 0 {
		eps = 0.1
	}
	n := wg.NumVertices()
	res := &WeightedResult{M: graph.NewMatching(n)}
	iters := int(math.Ceil(math.Log(1/eps)/eps)) + 1
	if iters < 2 {
		iters = 2
	}
	edges := wg.EdgeList()
	for k := 0; k < iters; k++ {
		// Profitable edges under the current matching.
		gain := func(e [2]int32) float64 {
			conflict := 0.0
			if mu := res.M[e[0]]; mu != -1 {
				conflict += wg.EdgeWeight(e[0], mu)
			}
			if mv := res.M[e[1]]; mv != -1 {
				conflict += wg.EdgeWeight(e[1], mv)
			}
			return wg.EdgeWeight(e[0], e[1]) - (1+eps)*conflict
		}
		profitable := make([][2]int32, 0, 64)
		for _, e := range edges {
			if gain(e) > 0 {
				profitable = append(profitable, e)
			}
		}
		if len(profitable) == 0 {
			break
		}
		// Maximal matching among profitable edges, heavy edges first (the
		// order that drives the [LPSR09] convergence), with a seeded
		// deterministic tie-break.
		type pedge struct {
			e   [2]int32
			w   float64
			tie uint64
		}
		list := make([]pedge, len(profitable))
		for i, e := range profitable {
			list[i] = pedge{
				e:   e,
				w:   wg.EdgeWeight(e[0], e[1]),
				tie: rng.Hash(seed, uint64(k), uint64(uint32(e[0])), uint64(uint32(e[1]))),
			}
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].w != list[j].w {
				return list[i].w > list[j].w
			}
			return list[i].tie < list[j].tie
		})
		inAug := graph.NewMatching(n)
		for _, pe := range list {
			if inAug[pe.e[0]] == -1 && inAug[pe.e[1]] == -1 {
				inAug.Match(pe.e[0], pe.e[1])
			}
		}
		// Swap in: remove conflicting matched edges, add the new ones.
		for _, e := range inAug.Edges() {
			res.M.Unmatch(e[0])
			res.M.Unmatch(e[1])
		}
		for _, e := range inAug.Edges() {
			res.M.Match(e[0], e[1])
		}
		res.Improvements++
	}
	res.Value = wg.MatchingWeight(res.M)
	return res
}

// WeightedMPCOptions configures ApproxMaxWeightedMatchingMPC.
type WeightedMPCOptions struct {
	// Seed drives all randomness.
	Seed uint64
	// Eps is the approximation slack (default 0.1).
	Eps float64
	// MemoryFactor sets per-machine memory to MemoryFactor·n words
	// (default 16).
	MemoryFactor float64
	// Strict makes capacity violations fail the run.
	Strict bool
	// Workers bounds goroutine fan-out in the metered cluster.
	Workers int
	// Ctx, when non-nil, cancels the run between rounds.
	Ctx context.Context
	// Trace, when non-nil, observes every metered round.
	Trace model.TraceFunc
}

// WeightedMPCResult augments the weighted matching with audited MPC
// costs: Corollary 1.4 claims O(log log n · 1/eps) rounds, realized as
// O(log(1/eps)/eps) maximal-matching invocations, each O(log n) rounds
// with Israeli–Itai here (the corollary's O(log log n) per invocation
// follows from substituting Theorem 1.2; the invocation count is the
// measured quantity either way).
type WeightedMPCResult struct {
	WeightedResult

	// Rounds is the audited MPC round total.
	Rounds int
	// MaxMachineWords is the largest per-round machine load.
	MaxMachineWords int64
	// TotalWords is the total communication volume.
	TotalWords int64
	// Violations counts capacity violations (non-strict mode).
	Violations int
	// Stages is the audited per-improvement cost breakdown.
	Stages []model.StageCost
}

// ApproxMaxWeightedMatchingMPC is ApproxMaxWeightedMatching with every
// improvement iteration's maximal matching executed on a metered MPC
// cluster (propose/accept, two rounds per iteration) instead of the
// heavy-first greedy. Quality remains (2+eps) by the same [LPSR09]
// argument — any maximal matching of the profitable subgraph suffices.
func ApproxMaxWeightedMatchingMPC(wg *graph.Weighted, opts WeightedMPCOptions) (*WeightedMPCResult, error) {
	eps := opts.Eps
	if eps <= 0 {
		eps = 0.1
	}
	opts.MemoryFactor = meter.ResolveMemoryFactor(opts.MemoryFactor)
	n := wg.NumVertices()
	cluster, err := mpc.NewCluster(mpc.Config{
		Machines:      int(math.Sqrt(float64(n))) + 1,
		CapacityWords: int64(opts.MemoryFactor * float64(n)),
		Strict:        opts.Strict,
		Workers:       opts.Workers,
		Ctx:           opts.Ctx,
		Trace:         opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	cluster.SetActive(n)
	res := &WeightedMPCResult{WeightedResult: WeightedResult{M: graph.NewMatching(n)}}
	iters := int(math.Ceil(math.Log(1/eps)/eps)) + 1
	if iters < 2 {
		iters = 2
	}
	// EdgeList is in edge-id order, so edges[i] weighs W[i]. matchedW[v]
	// is the weight of v's matched edge, 0 while v is free; weights are
	// positive, so adding the 0 of a free endpoint is exact.
	edges := wg.EdgeList()
	matchedW := make([]float64, n)
	profitable := func(i int) bool {
		e := edges[i]
		return wg.W[i] > (1+eps)*(matchedW[e[0]]+matchedW[e[1]])
	}
	for k := 0; k < iters; k++ {
		// Count first, so the builder allocates its key slice once.
		profitableCount := 0
		for i := range edges {
			if profitable(i) {
				profitableCount++
			}
		}
		if profitableCount == 0 {
			break
		}
		b := graph.NewBuilderCap(n, profitableCount)
		for i, e := range edges {
			if profitable(i) {
				b.AddEdge(e[0], e[1])
			}
		}
		sub := b.MustBuild()
		cluster.SetActive(n - 2*res.M.Size())
		before := cluster.Metrics()
		ii, err := baseline.IsraeliItaiOnCluster(sub, rng.New(rng.Hash(opts.Seed, uint64(k))), cluster)
		if err != nil {
			return nil, fmt.Errorf("improvement %d: %w", k, err)
		}
		after := cluster.Metrics()
		res.Stages = append(res.Stages, model.StageCost{
			Name:   fmt.Sprintf("improvement-%d", k),
			Rounds: after.Rounds - before.Rounds,
			Words:  after.TotalWords - before.TotalWords,
		})
		added := ii.M.Edges()
		for _, e := range added {
			for _, x := range e {
				if mate := res.M[x]; mate != -1 {
					matchedW[x], matchedW[mate] = 0, 0
					res.M.Unmatch(x)
				}
			}
		}
		for _, e := range added {
			res.M.Match(e[0], e[1])
			w := wg.EdgeWeight(e[0], e[1])
			matchedW[e[0]], matchedW[e[1]] = w, w
		}
		res.Improvements++
	}
	res.Value = wg.MatchingWeight(res.M)
	met := cluster.Metrics()
	res.Rounds = met.Rounds
	res.MaxMachineWords = met.MaxInWords
	if met.MaxOutWords > res.MaxMachineWords {
		res.MaxMachineWords = met.MaxOutWords
	}
	res.TotalWords = met.TotalWords
	res.Violations = met.Violations
	return res, nil
}

// GreedyWeightedMatching is the classical heavy-first greedy, a
// 2-approximation used as the weighted baseline in experiment E10.
func GreedyWeightedMatching(wg *graph.Weighted) *WeightedResult {
	edges := wg.EdgeList()
	sort.Slice(edges, func(i, j int) bool {
		return wg.EdgeWeight(edges[i][0], edges[i][1]) > wg.EdgeWeight(edges[j][0], edges[j][1])
	})
	m := graph.NewMatching(wg.NumVertices())
	for _, e := range edges {
		if m[e[0]] == -1 && m[e[1]] == -1 {
			m.Match(e[0], e[1])
		}
	}
	return &WeightedResult{M: m, Value: wg.MatchingWeight(m)}
}

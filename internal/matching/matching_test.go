package matching

import (
	"context"
	"math"
	"testing"

	"mpcgraph/internal/baseline"
	"mpcgraph/internal/graph"
	"mpcgraph/internal/rng"
)

const eps = 0.1

func coverIsValid(t *testing.T, g *graph.Graph, cover []bool) {
	t.Helper()
	if !graph.IsVertexCover(g, cover) {
		t.Fatal("output cover does not cover all edges")
	}
}

func fracIsFeasible(t *testing.T, frac *FracResult) {
	t.Helper()
	for v, y := range frac.Y {
		if y > 1+1e-9 {
			t.Fatalf("vertex %d has weight %v > 1", v, y)
		}
	}
	for e, x := range frac.X {
		if x < 0 || x > 1+1e-9 {
			t.Fatalf("edge %d has weight %v outside [0,1]", e, x)
		}
	}
}

func TestCentralTerminatesAndCovers(t *testing.T) {
	g := graph.GNP(400, 0.03, rng.New(1))
	res := Central(g, eps)
	coverIsValid(t, g, res.Cover)
	fracIsFeasible(t, res)
	bound := maxCentralIterations(400, eps)
	if res.Iterations >= bound {
		t.Errorf("iterations = %d, expected < %d", res.Iterations, bound)
	}
}

func TestCentralIterationScaling(t *testing.T) {
	// Lemma 4.1: O(log n / eps) iterations.
	for _, n := range []int{256, 1024, 4096} {
		g := graph.GNP(n, 8/float64(n), rng.New(2))
		res := Central(g, eps)
		want := math.Log(float64(n)) / (-math.Log1p(-eps))
		if float64(res.Iterations) > 1.5*want+5 {
			t.Errorf("n=%d: iterations %d far above log-scale %f", n, res.Iterations, want)
		}
	}
}

func TestCentralLemma41Ratios(t *testing.T) {
	// (A) |C| <= 2(1+5eps) W_M; (B) W_M >= |M*|/(2+5eps).
	for seed := uint64(0); seed < 5; seed++ {
		g := graph.GNP(200, 0.05, rng.New(seed))
		res := Central(g, eps)
		w := res.Weight()
		c := float64(res.CoverSize())
		if c > 2*(1+5*eps)*w+1e-9 {
			t.Errorf("seed %d: |C|=%v > 2(1+5eps)W=%v", seed, c, 2*(1+5*eps)*w)
		}
		opt := float64(baseline.MaxMatchingGeneral(g).Size())
		if w < opt/(2+5*eps)-1e-9 {
			t.Errorf("seed %d: W=%v < |M*|/(2+5eps)=%v", seed, w, opt/(2+5*eps))
		}
		// Duality sandwich: W_M <= |C*| <= |C|.
		if w > c+1e-9 {
			t.Errorf("seed %d: fractional weight %v exceeds cover size %v", seed, w, c)
		}
	}
}

func TestCentralRandMatchesStructure(t *testing.T) {
	g := graph.GNP(300, 0.04, rng.New(3))
	oracle := rng.NewThresholdOracle(7, 1-4*eps, 1-2*eps)
	res := CentralRand(g, eps, oracle)
	coverIsValid(t, g, res.Cover)
	fracIsFeasible(t, res)
}

func TestCentralOnDegenerateGraphs(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"empty":  graph.Empty(10),
		"single": graph.Path(2),
		"star":   graph.Star(50),
		"k4":     graph.Complete(4),
	} {
		t.Run(name, func(t *testing.T) {
			res := Central(g, eps)
			coverIsValid(t, g, res.Cover)
			fracIsFeasible(t, res)
		})
	}
}

func TestSimulateFeasibleAndCovers(t *testing.T) {
	families := map[string]*graph.Graph{
		"gnp-sparse": graph.GNP(1000, 0.004, rng.New(4)),
		"gnp-dense":  graph.GNP(300, 0.1, rng.New(5)),
		"bipartite":  graph.RandomBipartite(300, 300, 0.01, rng.New(6)).Graph,
		"ring":       graph.Ring(500),
		"star":       graph.Star(500),
		"powerlaw":   graph.PreferentialAttachment(500, 3, rng.New(7)),
		"empty":      graph.Empty(50),
		"single":     graph.Path(2),
	}
	for name, g := range families {
		t.Run(name, func(t *testing.T) {
			res, err := Simulate(g, SimOptions{Seed: 11, Eps: eps})
			if err != nil {
				t.Fatal(err)
			}
			coverIsValid(t, g, res.Frac.Cover)
			fracIsFeasible(t, res.Frac)
		})
	}
}

func TestSimulateDeterministic(t *testing.T) {
	g := graph.GNP(500, 0.02, rng.New(8))
	a, err := Simulate(g, SimOptions{Seed: 5, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(g, SimOptions{Seed: 5, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Phases != b.Phases {
		t.Fatal("same seed produced different metrics")
	}
	for e := range a.Frac.X {
		if a.Frac.X[e] != b.Frac.X[e] {
			t.Fatalf("edge %d weight differs across identical runs", e)
		}
	}
}

func TestSimulatePhaseScaling(t *testing.T) {
	// Lemma 4.8: O(log log n) phases.
	for _, n := range []int{1 << 10, 1 << 13} {
		g := graph.GNP(n, 10/float64(n)*math.Sqrt(float64(n))/2, rng.New(9))
		res, err := Simulate(g, SimOptions{Seed: 13, Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		if res.Phases > 14 {
			t.Errorf("n=%d: %d phases, want O(log log n)", n, res.Phases)
		}
		if res.Rounds > 250 {
			t.Errorf("n=%d: %d rounds", n, res.Rounds)
		}
	}
}

func TestSimulateInducedSubgraphsBounded(t *testing.T) {
	// Lemma 4.7: per-machine induced subgraphs have O(n) words.
	n := 1 << 12
	g := graph.GNP(n, 0.008, rng.New(10))
	res, err := Simulate(g, SimOptions{Seed: 17, Eps: eps, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Errorf("capacity violations: %d", res.Violations)
	}
	for i, ps := range res.PhaseStats {
		if ps.MaxInducedWords > int64(16*n) {
			t.Errorf("phase %d: induced subgraph %d words > 16n", i, ps.MaxInducedWords)
		}
	}
}

func TestSimulateCoverQuality(t *testing.T) {
	// Lemma 4.2 quality on bipartite instances where Kőnig gives the
	// exact optimum.
	for seed := uint64(0); seed < 4; seed++ {
		bg := graph.RandomBipartite(150, 150, 0.03, rng.New(seed))
		res, err := Simulate(bg.Graph, SimOptions{Seed: seed, Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		coverIsValid(t, bg.Graph, res.Frac.Cover)
		opt := baseline.HopcroftKarp(bg).Size() // = |C*| by Kőnig
		if opt == 0 {
			continue
		}
		ratio := float64(res.Frac.CoverSize()) / float64(opt)
		if ratio > 2+50*eps {
			t.Errorf("seed %d: cover ratio %.3f > 2+50eps", seed, ratio)
		}
	}
}

func TestSimulateMatchingWeightQuality(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := graph.GNP(200, 0.05, rng.New(seed+40))
		res, err := Simulate(g, SimOptions{Seed: seed, Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		opt := float64(baseline.MaxMatchingGeneral(g).Size())
		if opt == 0 {
			continue
		}
		if w := res.Frac.Weight(); w < opt/(2+50*eps) {
			t.Errorf("seed %d: fractional weight %v below |M*|/(2+50eps) = %v", seed, w, opt/(2+50*eps))
		}
	}
}

func TestSimulatePaperConstantsMode(t *testing.T) {
	g := graph.GNP(400, 0.05, rng.New(12))
	res, err := Simulate(g, SimOptions{Seed: 3, Eps: eps, PaperConstants: true})
	if err != nil {
		t.Fatal(err)
	}
	coverIsValid(t, g, res.Frac.Cover)
	fracIsFeasible(t, res.Frac)
	// With the literal constants, I floors at 1 iteration per phase.
	for _, ps := range res.PhaseStats {
		if ps.Iterations != 1 {
			t.Errorf("paper-constants phase ran %d iterations, want 1", ps.Iterations)
		}
	}
}

func TestSimulateFixedThresholdAblation(t *testing.T) {
	g := graph.GNP(400, 0.05, rng.New(13))
	res, err := Simulate(g, SimOptions{Seed: 3, Eps: eps, FixedThreshold: true})
	if err != nil {
		t.Fatal(err)
	}
	coverIsValid(t, g, res.Frac.Cover)
	fracIsFeasible(t, res.Frac)
}

func TestSimulateDeviationProbe(t *testing.T) {
	probe := &DeviationProbe{}
	g := graph.GNP(1<<11, 0.01, rng.New(14))
	res, err := Simulate(g, SimOptions{Seed: 23, Eps: eps, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases == 0 {
		t.Skip("instance too small for phases")
	}
	if len(probe.PhaseMaxDev) != res.Phases || len(probe.PhaseMaxDiff) != res.Phases {
		t.Fatalf("probe recorded %d/%d phases, simulation ran %d",
			len(probe.PhaseMaxDev), len(probe.PhaseMaxDiff), res.Phases)
	}
	if probe.Compared == 0 {
		t.Fatal("probe compared nothing")
	}
	for i, d := range probe.PhaseMaxDiff {
		if d < 0 || math.IsNaN(d) {
			t.Errorf("phase %d: invalid diff %v", i, d)
		}
	}
	// Lemma 4.15: |y - ỹ| stays below m^{-0.1} ≈ small; allow a lenient
	// envelope since constants differ at simulation scale.
	for i, dev := range probe.PhaseMaxDev {
		if dev > 0.5 {
			t.Errorf("phase %d: max deviation %v is implausibly large", i, dev)
		}
	}
	// Bad vertices must be a small fraction of comparisons.
	totalBad := 0
	for _, b := range probe.PhaseBad {
		totalBad += b
	}
	if float64(totalBad) > 0.05*float64(probe.Compared) {
		t.Errorf("bad fraction %v too large", float64(totalBad)/float64(probe.Compared))
	}
}

func TestRoundFractionalValidAndSized(t *testing.T) {
	g := graph.GNP(2000, 0.005, rng.New(15))
	res, err := Simulate(g, SimOptions{Seed: 9, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	candidate := CandidateSet(res.Frac, 5*eps)
	cSize := graph.CountMarked(candidate)
	if cSize == 0 {
		t.Skip("no heavy cover vertices on this instance")
	}
	m := RoundFractional(g, res.Frac, candidate, rng.New(16))
	if !graph.IsMatching(g, m) {
		t.Fatal("rounding produced an invalid matching")
	}
	if m.Size() < cSize/50 {
		t.Errorf("rounded matching %d below |C̃|/50 = %d", m.Size(), cSize/50)
	}
}

func TestRoundFractionalEmptyCandidates(t *testing.T) {
	g := graph.Path(5)
	res := Central(g, eps)
	m := RoundFractional(g, res, make([]bool, 5), rng.New(1))
	if m.Size() != 0 {
		t.Error("rounding with no candidates produced edges")
	}
}

func TestCandidateSet(t *testing.T) {
	frac := &FracResult{
		Y:     []float64{0.99, 0.5, 0.97, 0.99},
		Cover: []bool{true, true, false, true},
	}
	got := CandidateSet(frac, 0.05)
	want := []bool{true, false, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("candidate[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestApproxMaxMatchingQuality(t *testing.T) {
	families := map[string]*graph.Graph{
		"gnp":       graph.GNP(300, 0.03, rng.New(17)),
		"bipartite": graph.RandomBipartite(150, 150, 0.03, rng.New(18)).Graph,
		"ring":      graph.Ring(301),
	}
	for name, g := range families {
		t.Run(name, func(t *testing.T) {
			res, err := ApproxMaxMatching(g, PipelineOptions{Seed: 21, Eps: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			if !graph.IsMatching(g, res.M) {
				t.Fatal("invalid matching")
			}
			if !graph.IsMaximalMatching(g, res.M) {
				t.Fatal("pipeline with finish must be maximal")
			}
			opt := baseline.MaxMatchingGeneral(g).Size()
			if opt == 0 {
				return
			}
			ratio := float64(opt) / float64(res.M.Size())
			if ratio > 2.1 {
				t.Errorf("matching ratio %.3f > 2+eps", ratio)
			}
		})
	}
}

func TestApproxMaxMatchingSkipFinish(t *testing.T) {
	g := graph.GNP(400, 0.02, rng.New(19))
	res, err := ApproxMaxMatching(g, PipelineOptions{Seed: 22, Eps: 0.1, SkipFinish: true})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsMatching(g, res.M) {
		t.Fatal("invalid matching")
	}
	if res.CoreSize != res.M.Size() {
		t.Errorf("CoreSize %d != size %d with SkipFinish", res.CoreSize, res.M.Size())
	}
}

func TestApproxMaxMatchingEmpty(t *testing.T) {
	res, err := ApproxMaxMatching(graph.Empty(10), PipelineOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Size() != 0 || res.Invocations != 0 {
		t.Errorf("empty graph: size=%d invocations=%d", res.M.Size(), res.Invocations)
	}
}

func TestApproxMinVertexCoverQuality(t *testing.T) {
	bg := graph.RandomBipartite(200, 200, 0.02, rng.New(23))
	res, err := ApproxMinVertexCover(bg.Graph, PipelineOptions{Seed: 24, Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	coverIsValid(t, bg.Graph, res.Frac.Cover)
	opt := baseline.HopcroftKarp(bg).Size()
	if opt > 0 {
		ratio := float64(res.Frac.CoverSize()) / float64(opt)
		// eps=0.1 runs the simulation at eps'=0.02: Lemma 4.2's bound is
		// 2+50eps' = 3; measured ratios are typically near 2.2.
		if ratio > 3.0 {
			t.Errorf("cover ratio %.3f > 3.0", ratio)
		}
	}
}

func TestFilteringMaximalMatching(t *testing.T) {
	g := graph.GNP(800, 0.02, rng.New(25))
	res := FilteringMaximalMatching(g, int64(4*800), rng.New(26))
	if !graph.IsMaximalMatching(g, res.M) {
		t.Fatal("filtering output not maximal")
	}
	if res.MaxSampleWords > 4*800 {
		t.Errorf("sample %d words exceeded memory", res.MaxSampleWords)
	}
	if res.Rounds > 40 {
		t.Errorf("filtering took %d rounds", res.Rounds)
	}
}

func TestFilteringTinyMemory(t *testing.T) {
	g := graph.GNP(200, 0.1, rng.New(27))
	res := FilteringMaximalMatching(g, 64, rng.New(28))
	if !graph.IsMaximalMatching(g, res.M) {
		t.Fatal("filtering with tiny memory not maximal")
	}
}

func TestFilteringRoundsLogarithmic(t *testing.T) {
	// At S = Θ(n), rounds should grow like log(m/n): the E13 contrast.
	r1 := FilteringMaximalMatching(graph.GNP(500, 0.05, rng.New(29)), 2*500, rng.New(1)).Rounds
	r2 := FilteringMaximalMatching(graph.GNP(4000, 0.05, rng.New(30)), 2*4000, rng.New(1)).Rounds
	if r2 < r1 {
		t.Logf("rounds did not grow: %d -> %d (acceptable, probabilistic)", r1, r2)
	}
	if r2 > 60 {
		t.Errorf("filtering rounds %d implausibly many", r2)
	}
}

func TestBoostBipartiteReachesOnePlusEps(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		bg := graph.RandomBipartite(120, 120, 0.04, rng.New(seed+60))
		start := baseline.GreedyMaximalMatching(bg.Graph, bg.EdgeList())
		res, _ := BoostToOnePlusEps(context.Background(), bg.Graph, start, 0.1)
		if !graph.IsMatching(bg.Graph, res.M) {
			t.Fatal("boost produced invalid matching")
		}
		opt := baseline.HopcroftKarp(bg).Size()
		if opt == 0 {
			continue
		}
		if float64(res.M.Size()) < float64(opt)/1.12 {
			t.Errorf("seed %d: boosted %d vs opt %d not within 1+eps", seed, res.M.Size(), opt)
		}
		if res.M.Size() < start.Size() {
			t.Error("boost shrank the matching")
		}
	}
}

func TestBoostGeneralImproves(t *testing.T) {
	g := graph.GNP(200, 0.04, rng.New(31))
	start := baseline.GreedyMaximalMatching(g, g.EdgeList())
	res, _ := BoostToOnePlusEps(context.Background(), g, start, 0.2)
	if !graph.IsMatching(g, res.M) {
		t.Fatal("invalid matching")
	}
	if res.M.Size() < start.Size() {
		t.Error("boost shrank the matching")
	}
}

func TestBoostPathCap(t *testing.T) {
	res, _ := BoostToOnePlusEps(context.Background(), graph.Path(2), graph.NewMatching(2), 0.25)
	if res.PathCap != 2*4+1 {
		t.Errorf("path cap = %d, want 9", res.PathCap)
	}
	if res.M.Size() != 1 {
		t.Errorf("single edge not matched by boost")
	}
}

func TestWeightedMatchingQualitySmall(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		src := rng.New(seed + 80)
		g := graph.GNP(12, 0.4, src)
		if g.NumEdges() == 0 {
			continue
		}
		wg := graph.RandomWeights(g, 1, 10, src)
		res := ApproxMaxWeightedMatching(wg, 0.1, seed)
		if !graph.IsMatching(g, res.M) {
			t.Fatal("invalid weighted matching")
		}
		opt := baseline.BruteForceMaxWeightMatching(wg)
		if res.Value < opt/(2+0.5)-1e-9 {
			t.Errorf("seed %d: weight %v below opt/2.5 = %v", seed, res.Value, opt/2.5)
		}
	}
}

func TestWeightedMatchingBeatsOrMatchesGreedyOften(t *testing.T) {
	src := rng.New(90)
	g := graph.GNP(300, 0.03, src)
	wg := graph.RandomWeights(g, 1, 100, src)
	ours := ApproxMaxWeightedMatching(wg, 0.05, 1)
	greedy := GreedyWeightedMatching(wg)
	if ours.Value < 0.8*greedy.Value {
		t.Errorf("weighted matching %v far below greedy %v", ours.Value, greedy.Value)
	}
}

func TestWeightedMatchingValueConsistency(t *testing.T) {
	src := rng.New(91)
	g := graph.GNP(100, 0.05, src)
	wg := graph.RandomWeights(g, 1, 10, src)
	res := ApproxMaxWeightedMatching(wg, 0.1, 2)
	if math.Abs(res.Value-wg.MatchingWeight(res.M)) > 1e-9 {
		t.Error("reported value inconsistent with matching")
	}
}

func TestDefaultDCut(t *testing.T) {
	if DefaultDCut(1) != 16 {
		t.Error("DCut floor wrong")
	}
	if got := DefaultDCut(1 << 16); got != 256 {
		t.Errorf("DCut(2^16) = %v, want 256", got)
	}
}

func BenchmarkApproxMaxMatching(b *testing.B) {
	g := graph.GNP(1<<11, 0.005, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ApproxMaxMatching(g, PipelineOptions{Seed: uint64(i), Eps: 0.1}); err != nil {
			b.Fatal(err)
		}
	}
}

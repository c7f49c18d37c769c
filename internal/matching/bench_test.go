package matching

import (
	"testing"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/rng"
)

// The graduated benchmarks time the matching hot paths on R-MAT graphs
// of 2¹⁰, 2¹² and 2¹⁴ vertices (the rmat scenario's edge factor 8 and
// quadrant skew), one shared body per path, on the exact sequential
// path (Workers 1). Results land in package-level sinks so the calls
// cannot be optimized away.
var (
	simSink      *SimResult
	boostSink    *BoostResult
	weightedSink *WeightedMPCResult
)

func benchRMAT(logN int) *graph.Graph {
	n := 1 << logN
	return graph.RMAT(n, 8*n, 0.57, 0.19, 0.19, rng.New(1))
}

func BenchmarkSimulate10(b *testing.B) { benchmarkSimulate(b, 10) }
func BenchmarkSimulate12(b *testing.B) { benchmarkSimulate(b, 12) }
func BenchmarkSimulate14(b *testing.B) { benchmarkSimulate(b, 14) }

// benchmarkSimulate runs the fractional simulation at ε/5, the slack
// vertex-cover and every approx-matching invocation use.
func benchmarkSimulate(b *testing.B, logN int) {
	g := benchRMAT(logN)
	b.ReportAllocs()
	b.ResetTimer()
	var r *SimResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = Simulate(g, SimOptions{Seed: 1, Eps: eps / 5, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	simSink = r
}

func BenchmarkBoost10(b *testing.B) { benchmarkBoost(b, 10) }
func BenchmarkBoost12(b *testing.B) { benchmarkBoost(b, 12) }
func BenchmarkBoost14(b *testing.B) { benchmarkBoost(b, 14) }

// benchmarkBoost boosts the (2+ε)-approximate matching, as the
// one-plus-eps-matching runner does; the base matching is built once.
func benchmarkBoost(b *testing.B, logN int) {
	g := benchRMAT(logN)
	base, err := ApproxMaxMatching(g, PipelineOptions{Seed: 1, Eps: eps, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var r *BoostResult
	for i := 0; i < b.N; i++ {
		if r, err = BoostToOnePlusEps(nil, g, base.M, eps); err != nil {
			b.Fatal(err)
		}
	}
	boostSink = r
}

func BenchmarkWeightedMPC10(b *testing.B) { benchmarkWeightedMPC(b, 10) }
func BenchmarkWeightedMPC12(b *testing.B) { benchmarkWeightedMPC(b, 12) }
func BenchmarkWeightedMPC14(b *testing.B) { benchmarkWeightedMPC(b, 14) }

func benchmarkWeightedMPC(b *testing.B, logN int) {
	wg := graph.RandomWeights(benchRMAT(logN), 1, 100, rng.New(2))
	b.ReportAllocs()
	b.ResetTimer()
	var r *WeightedMPCResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = ApproxMaxWeightedMatchingMPC(wg, WeightedMPCOptions{Seed: 1, Eps: eps, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	weightedSink = r
}

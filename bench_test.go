package mpcgraph_test

// One benchmark per experiment in the E1–E18 index. Each
// iteration regenerates the experiment's full table, so
//
//	go test -bench=E5 -benchmem
//
// reproduces the corresponding rows. `go run ./cmd/mpcgraph bench` renders
// the same tables human-readably.

import (
	"io"
	"testing"

	"mpcgraph/internal/bench"
)

// benchConfig keeps per-iteration cost bounded while exercising the
// non-quick instance sizes.
func benchConfig() bench.Config {
	return bench.Config{Seed: 2018, Trials: 1}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	if testing.Short() {
		cfg.Quick = true
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := bench.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
		tab.Render(io.Discard)
	}
}

func BenchmarkE1MISRounds(b *testing.B)        { runExperiment(b, "E1") }
func BenchmarkE2MISMemory(b *testing.B)        { runExperiment(b, "E2") }
func BenchmarkE3ResidualDegree(b *testing.B)   { runExperiment(b, "E3") }
func BenchmarkE4Central(b *testing.B)          { runExperiment(b, "E4") }
func BenchmarkE5PhaseCount(b *testing.B)       { runExperiment(b, "E5") }
func BenchmarkE6Approximation(b *testing.B)    { runExperiment(b, "E6") }
func BenchmarkE7InducedSize(b *testing.B)      { runExperiment(b, "E7") }
func BenchmarkE8Rounding(b *testing.B)         { runExperiment(b, "E8") }
func BenchmarkE9OnePlusEps(b *testing.B)       { runExperiment(b, "E9") }
func BenchmarkE10Weighted(b *testing.B)        { runExperiment(b, "E10") }
func BenchmarkE11CongestedClique(b *testing.B) { runExperiment(b, "E11") }
func BenchmarkE12Deviation(b *testing.B)       { runExperiment(b, "E12") }
func BenchmarkE13BaselineRounds(b *testing.B)  { runExperiment(b, "E13") }
func BenchmarkE14GreedyDepth(b *testing.B)     { runExperiment(b, "E14") }
func BenchmarkE15AlphaAblation(b *testing.B)   { runExperiment(b, "E15") }
func BenchmarkE16BetaAblation(b *testing.B)    { runExperiment(b, "E16") }
func BenchmarkE17FilteringMemory(b *testing.B) { runExperiment(b, "E17") }

package mpcgraph_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mpcgraph"
	"mpcgraph/internal/graph"
	"mpcgraph/internal/rng"
)

// The parallel execution engine's contract is that Workers only trades
// wall-clock time: for a fixed seed, every Workers setting must produce
// bit-identical results. Running these tests under -race also exercises
// the engine's shard disjointness.

// detGraphs returns named deterministic instances spanning the
// generators (random, heavy-tailed, bipartite, structured).
func detGraphs(seed uint64) map[string]*mpcgraph.Graph {
	src := rng.New(seed)
	return map[string]*mpcgraph.Graph{
		"gnp-sparse":   mpcgraph.RandomGraph(3000, 4.0/3000, seed),
		"gnp-dense":    mpcgraph.RandomGraph(600, 0.2, seed+1),
		"powerlaw":     graph.PreferentialAttachment(2000, 3, src.SplitString("pa")),
		"bipartite":    graph.RandomBipartite(800, 800, 0.01, src.SplitString("bip")).Graph,
		"ring":         graph.Ring(2048),
		"complete-256": graph.Complete(256),
	}
}

// workerSweep is the set of Workers values compared against Workers: 1.
var workerSweep = []int{0, 2, 5}

// TestSolveDeterministicAcrossWorkers compares whole Reports — payload,
// every audited cost and the per-stage breakdown — against the
// Workers: 1 run; only the host wall time is excluded.
func TestSolveDeterministicAcrossWorkers(t *testing.T) {
	oneGraph := func(uint64) map[string]*mpcgraph.Graph {
		return map[string]*mpcgraph.Graph{"gnp-1500": mpcgraph.RandomGraph(1500, 8.0/1500, 5)}
	}
	cases := []struct {
		name    string
		problem mpcgraph.Problem
		model   mpcgraph.Model
		seeds   []uint64
		graphs  func(seed uint64) map[string]*mpcgraph.Graph
	}{
		{"mis", mpcgraph.ProblemMIS, mpcgraph.ModelMPC, []uint64{3, 2018}, detGraphs},
		{"mis-clique", mpcgraph.ProblemMIS, mpcgraph.ModelCongestedClique, []uint64{7}, detGraphs},
		{"approx-matching", mpcgraph.ProblemApproxMatching, mpcgraph.ModelMPC, []uint64{11, 99}, detGraphs},
		{"vertex-cover", mpcgraph.ProblemVertexCover, mpcgraph.ModelMPC, []uint64{23}, detGraphs},
		{"one-plus-eps", mpcgraph.ProblemOnePlusEpsMatching, mpcgraph.ModelMPC, []uint64{5}, oneGraph},
	}
	solve := func(t *testing.T, g *mpcgraph.Graph, p mpcgraph.Problem, opts mpcgraph.Options) *mpcgraph.Report {
		t.Helper()
		rep, err := mpcgraph.Solve(context.Background(), g, p, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", opts.Workers, err)
		}
		rep.Wall = 0
		return rep
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range tc.seeds {
				for name, g := range tc.graphs(seed) {
					opts := mpcgraph.Options{Seed: seed, Model: tc.model, Workers: 1}
					want := solve(t, g, tc.problem, opts)
					for _, w := range workerSweep {
						opts.Workers = w
						if got := solve(t, g, tc.problem, opts); !reflect.DeepEqual(got, want) {
							t.Errorf("%s seed=%d: Workers=%d diverged from Workers=1", name, seed, w)
						}
					}
				}
			}
		})
	}
}

// TestGraphConstructorsDeterministicAcrossWorkers pins the graph-layer
// parallel count-then-fill paths to their sequential outputs.
func TestGraphConstructorsDeterministicAcrossWorkers(t *testing.T) {
	g := mpcgraph.RandomGraph(4000, 10.0/4000, 77)
	keep := make([]bool, g.NumVertices())
	var vertices []int32
	src := rng.New(8)
	for i := range keep {
		keep[i] = src.Bool(0.6)
		if i%3 != 0 {
			vertices = append(vertices, int32(i))
		}
	}
	subSeq := g.SubgraphWorkers(keep, 1)
	compSeq, origSeq := g.CompactInducedWorkers(vertices, 1)
	lineSeq, _ := g.LineGraphWorkers(1)
	for _, w := range workerSweep {
		if got := g.SubgraphWorkers(keep, w); !graphEqual(got, subSeq) {
			t.Errorf("Subgraph with workers=%d diverged", w)
		}
		gotComp, gotOrig := g.CompactInducedWorkers(vertices, w)
		if !graphEqual(gotComp, compSeq) || !reflect.DeepEqual(gotOrig, origSeq) {
			t.Errorf("CompactInduced with workers=%d diverged", w)
		}
		if gotLine, _ := g.LineGraphWorkers(w); !graphEqual(gotLine, lineSeq) {
			t.Errorf("LineGraph with workers=%d diverged", w)
		}
	}
}

// graphEqual compares two graphs structurally (vertices, edges, and the
// full sorted adjacency of every vertex).
func graphEqual(a, b *mpcgraph.Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := int32(0); v < int32(a.NumVertices()); v++ {
		if !reflect.DeepEqual(a.Neighbors(v), b.Neighbors(v)) {
			return false
		}
	}
	return true
}

func ExampleOptions_workers() {
	g := mpcgraph.RandomGraph(512, 0.05, 1)
	seq, _ := mpcgraph.Solve(context.Background(), g, mpcgraph.ProblemMIS, mpcgraph.Options{Seed: 9, Workers: 1})
	all, _ := mpcgraph.Solve(context.Background(), g, mpcgraph.ProblemMIS, mpcgraph.Options{Seed: 9, Workers: 0})
	seq.Wall, all.Wall = 0, 0 // host time is the one field Workers may change
	fmt.Println(reflect.DeepEqual(seq, all))
	// Output: true
}

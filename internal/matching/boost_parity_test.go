package matching

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mpcgraph/internal/baseline"
	"mpcgraph/internal/graph"
	"mpcgraph/internal/rng"
)

// referenceBoost is the straightforward form of BoostToOnePlusEps that
// the production boost must reproduce exactly: every pass rescans all n
// vertices, starts a search from every free one, and keeps the visited
// and used-in-pass marks in separate arrays.
func referenceBoost(g *graph.Graph, m graph.Matching, eps float64) (graph.Matching, int) {
	k := int(math.Ceil(1 / eps))
	pathCap := 2*k + 1
	n := g.NumVertices()
	match := m.Clone()
	visited := make([]int32, n)
	var epoch int32
	var usedInPass []bool
	var tryAugment func(v int32, budget int) bool
	tryAugment = func(v int32, budget int) bool {
		if budget <= 0 {
			return false
		}
		for _, u := range g.Neighbors(v) {
			if visited[u] == epoch || usedInPass[u] {
				continue
			}
			visited[u] = epoch
			w := match[u]
			if w == -1 {
				match[v], match[u] = u, v
				return true
			}
			if visited[w] == epoch || usedInPass[w] {
				continue
			}
			visited[w] = epoch
			if tryAugment(w, budget-1) {
				match[v], match[u] = u, v
				return true
			}
		}
		return false
	}
	passes := 0
	for L := 1; L <= pathCap; L += 2 {
		budget := (L + 1) / 2
		for {
			passes++
			usedInPass = make([]bool, n)
			progress := 0
			for v := int32(0); v < int32(n); v++ {
				if match[v] != -1 || usedInPass[v] || g.Degree(v) == 0 {
					continue
				}
				epoch++
				visited[v] = epoch
				if tryAugment(v, budget) {
					progress++
					usedInPass[v] = true
					usedInPass[match[v]] = true
				}
			}
			if progress == 0 {
				break
			}
		}
	}
	return match, passes
}

// TestBoostMatchesReference pins the worklist boost — with its folded
// stamps and its dropping of starts that no alternating walk connects
// to a free vertex — to the reference on graphs with odd cycles,
// bipartite graphs, skewed graphs with many isolated vertices, and from
// empty, greedy and (2+ε)-approximate starting matchings.
func TestBoostMatchesReference(t *testing.T) {
	type instance struct {
		name string
		g    *graph.Graph
	}
	var graphs []instance
	for seed := uint64(1); seed <= 4; seed++ {
		src := rng.New(seed)
		graphs = append(graphs,
			instance{fmt.Sprintf("gnp-sparse-%d", seed), graph.GNP(300, 2.0/300, src)},
			instance{fmt.Sprintf("gnp-dense-%d", seed), graph.GNP(200, 0.05, src)},
			instance{fmt.Sprintf("bipartite-%d", seed), graph.RandomBipartite(150, 150, 0.02, src).Graph},
			instance{fmt.Sprintf("rmat-%d", seed), graph.RMAT(1<<10, 8<<10, 0.57, 0.19, 0.19, src)},
		)
	}
	graphs = append(graphs,
		instance{"ring-of-cliques", graph.RingOfCliques(40, 5)},
		instance{"grid", graph.Grid(20, 21)},
	)
	for _, inst := range graphs {
		g := inst.g
		approx, err := ApproxMaxMatching(g, PipelineOptions{Seed: 3, Eps: 0.1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		starts := map[string]graph.Matching{
			"empty":  graph.NewMatching(g.NumVertices()),
			"greedy": baseline.GreedyMaximalMatching(g, g.EdgeList()),
			"approx": approx.M,
		}
		for _, start := range []string{"empty", "greedy", "approx"} {
			for _, e := range []float64{0.05, 0.1, 0.25} {
				wantM, wantPasses := referenceBoost(g, starts[start], e)
				got, err := BoostToOnePlusEps(nil, g, starts[start], e)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.M, wantM) || got.Passes != wantPasses {
					t.Errorf("%s from %s, eps=%v: size %d in %d passes, reference %d in %d",
						inst.name, start, e, got.M.Size(), got.Passes, wantM.Size(), wantPasses)
				}
			}
		}
	}
}

package matching

import (
	"mpcgraph/internal/graph"
	"mpcgraph/internal/rng"
)

// RoundFractional implements the randomized rounding of Lemma 5.1: every
// candidate vertex v (the paper's C̃, vertices with fractional weight at
// least 1-β) draws X_v — neighbor u with probability x_{uv}/10, the
// symbol ⋆ with the remaining mass. H is the set of chosen edges; an edge
// is good when no other chosen edge touches it, and the good edges form
// the output matching. The lemma guarantees at least |C̃|/50 good edges
// with probability 1 - 2exp(-|C̃|/5000); experiment E8 measures the
// realized constant.
//
// Every decision is local to a vertex and its incident edges, so the
// procedure costs O(1) rounds in the MPC model, as Section 5 observes.
func RoundFractional(g *graph.Graph, frac *FracResult, candidate []bool, src *rng.Source) graph.Matching {
	n := g.NumVertices()
	chosen := make([]int32, n)
	for v := range chosen {
		chosen[v] = -1
	}
	for v := int32(0); v < int32(n); v++ {
		if !candidate[v] {
			continue
		}
		r := src.Float64()
		acc := 0.0
		next := frac.Ix.FirstID(v) // id of {v, u} for the next neighbor u > v
		for _, u := range g.Neighbors(v) {
			id := next
			if u < v {
				id = frac.Ix.ID(u, v)
			} else {
				next++
			}
			x := frac.X[id]
			if x <= 0 {
				continue
			}
			acc += x / 10
			if r < acc {
				chosen[v] = u
				break
			}
		}
	}
	// H as a set of edges; degH counts incidences.
	degH := make([]int32, n)
	type edge struct{ u, v int32 }
	seen := make(map[edge]bool)
	var h []edge
	for v := int32(0); v < int32(n); v++ {
		u := chosen[v]
		if u == -1 {
			continue
		}
		a, b := v, u
		if a > b {
			a, b = b, a
		}
		e := edge{a, b}
		if seen[e] {
			continue // both endpoints picked the same edge: one copy in H
		}
		seen[e] = true
		h = append(h, e)
		degH[a]++
		degH[b]++
	}
	m := graph.NewMatching(n)
	for _, e := range h {
		if degH[e.u] == 1 && degH[e.v] == 1 {
			m.Match(e.u, e.v)
		}
	}
	return m
}

// CandidateSet returns the paper's C̃ for rounding: cover vertices whose
// fractional weight reaches 1-beta. Lemma 4.2 guarantees at least a third
// of the cover qualifies with beta = 5ε.
func CandidateSet(frac *FracResult, beta float64) []bool {
	out := make([]bool, len(frac.Y))
	for v := range out {
		out[v] = frac.Cover[v] && frac.Y[v] >= 1-beta
	}
	return out
}

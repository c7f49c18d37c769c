package matching

import (
	"context"
	"math"

	"mpcgraph/internal/graph"
)

// BoostResult is the output of BoostToOnePlusEps.
type BoostResult struct {
	// M is the improved matching.
	M graph.Matching
	// Passes counts augmentation passes (each O(path length) rounds in
	// the distributed realization).
	Passes int
	// PathCap is the longest augmenting path length considered.
	PathCap int
}

// BoostToOnePlusEps improves a matching to a (1+eps)-approximate maximum
// matching by eliminating short augmenting paths, the [McG05]-style
// technique behind Corollary 1.3: for odd lengths L = 1, 3, ...,
// 2⌈1/eps⌉+1, repeatedly find and apply maximal sets of vertex-disjoint
// augmenting paths of length at most L until none remains. By the
// Hopcroft–Karp bound, a matching with no augmenting path shorter than
// 2k+1 has size at least k/(k+1) of the optimum.
//
// The path search is exact on bipartite graphs; on general graphs odd
// cycles can hide short augmenting paths from the alternating DFS
// (handling them exactly needs blossom contraction), so the boost is a
// measured heuristic there — experiment E9 reports both cases against
// exact optima.
//
// ctx is checked once per augmentation pass (the distributed-round
// granularity); a nil ctx disables cancellation.
func BoostToOnePlusEps(ctx context.Context, g *graph.Graph, m graph.Matching, eps float64) (*BoostResult, error) {
	if eps <= 0 {
		eps = 0.1
	}
	k := int(math.Ceil(1 / eps))
	res := &BoostResult{M: m.Clone(), PathCap: 2*k + 1}
	n := g.NumVertices()
	match := res.M

	// One stamp per vertex folds the two marks a scanned neighbor is
	// tested against — visited by the current search, or used by an
	// augmentation earlier in this pass — into one compare, stamp >=
	// epoch. Each search takes a fresh epoch; a pass reserves one epoch
	// per path start plus a final one, used, that marks its
	// augmentations. Stamps of earlier searches and passes sit below the
	// current epoch, so they block nothing.
	stamp := make([]int32, n)
	var epoch, used int32

	// scans bounds the neighbor scans since dist was last computed.
	var scans int

	// tryAugment searches an alternating path from free vertex v using at
	// most budget unmatched edges (path length ≤ 2·budget-1), avoiding
	// vertices already used this pass.
	var tryAugment func(v int32, budget int) bool
	tryAugment = func(v int32, budget int) bool {
		if budget <= 0 {
			return false
		}
		nb := g.Neighbors(v)
		scans += len(nb)
		for _, u := range nb {
			if stamp[u] >= epoch {
				continue
			}
			stamp[u] = epoch
			w := match[u]
			if w == -1 {
				// Augmenting path found: match the final edge.
				match[v] = u
				match[u] = v
				return true
			}
			if stamp[w] >= epoch {
				continue
			}
			stamp[w] = epoch
			if tryAugment(w, budget-1) {
				match[v] = u
				match[u] = v
				return true
			}
		}
		return false
	}

	// A search that fails leaves nothing behind but stamps of its own
	// epoch, so skipping one that must fail keeps the output
	// bit-identical. dist (see alternatingDist) proves failure two ways:
	// a start with dist 0 cannot reach a free vertex under this matching
	// or any later one, and a start with dist > budget cannot within the
	// budget — but only while dist is fresh, since augmenting may
	// shorten walks. A stale dist is recomputed when a start could be
	// skipped and the searches since the last computation have scanned
	// at least as many neighbors as the computation costs.
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	fresh := false
	refresh := func() {
		alternatingDist(g, match, dist, queue)
		fresh, scans = true, 0
	}
	distCost := n + 2*g.NumEdges()

	// Path starts come from an ascending worklist of free vertices that
	// only shrinks: augmentation never unmatches a vertex, and dist 0 is
	// permanent. It is compacted at the start of every pass that follows
	// an augmentation, which also drops isolated vertices.
	free := make([]int32, 0, n)
	for v := int32(0); v < int32(n); v++ {
		if match[v] == -1 {
			free = append(free, v)
		}
	}
	for L := 1; L <= res.PathCap; L += 2 {
		budget := (L + 1) / 2
		for {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			res.Passes++
			if !fresh {
				refresh()
				k := 0
				for _, v := range free {
					if match[v] == -1 && dist[v] > 0 {
						free[k] = v
						k++
					}
				}
				free = free[:k]
			}
			if int64(used)+int64(len(free))+1 > math.MaxInt32 {
				// Stamps only matter within a pass: renumber from zero.
				clear(stamp)
				used = 0
			}
			epoch = used
			used += int32(len(free)) + 1
			progress := 0
			for _, v := range free {
				if match[v] != -1 || stamp[v] == used {
					continue
				}
				d := int(dist[v])
				if d > budget && !fresh && scans >= distCost {
					refresh()
					d = int(dist[v])
				}
				if d == 0 || (d > budget && fresh) {
					continue // the search must fail
				}
				epoch++
				stamp[v] = epoch
				if tryAugment(v, budget) {
					progress++
					fresh = false
					// Freeze the path's two (new) endpoints for the rest
					// of the pass; interior vertices stay matched, so
					// they cannot start another path.
					stamp[v] = used
					stamp[match[v]] = used
				}
			}
			if progress == 0 {
				break
			}
		}
	}
	return res, nil
}

// alternatingDist sets dist[x] to the fewest unmatched edges on an
// alternating walk from x to a free vertex — 1 when x has a free
// neighbor, else one more than the least dist of a neighbor's mate —
// and 0 when no such walk exists. A search from x that succeeds within
// budget b walks such a path, so it needs 0 < dist[x] <= b.
//
// Augmenting along a path P cannot give a start with dist 0 a walk: a
// walk in the new matching either misses P, or first meets it over an
// unmatched edge at a vertex from which P itself runs on, alternating
// under the old matching, to one of its ends, both free before the
// flip. That splice can be longer than the new walk, so it bounds dist
// 0 for good but not a finite dist. queue is scratch of capacity n.
func alternatingDist(g *graph.Graph, match graph.Matching, dist []int32, queue []int32) {
	clear(dist)
	queue = queue[:0]
	for x := int32(0); x < int32(len(dist)); x++ {
		for _, u := range g.Neighbors(x) {
			if match[u] == -1 {
				dist[x] = 1
				queue = append(queue, x)
				break
			}
		}
	}
	// Breadth-first from the free vertices' neighbors: a neighbor y of
	// x's mate reaches x over one more unmatched edge.
	for i := 0; i < len(queue); i++ {
		x := queue[i]
		mate := match[x]
		if mate == -1 {
			continue
		}
		for _, y := range g.Neighbors(mate) {
			if dist[y] == 0 {
				dist[y] = dist[x] + 1
				queue = append(queue, y)
			}
		}
	}
}

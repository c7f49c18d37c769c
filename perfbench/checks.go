package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"mpcgraph"
	"mpcgraph/internal/service"
)

// ledger counts attempted and failed ops and keeps, per comparison key,
// the first audited-cost fingerprint so later ops can be held to it.
type ledger struct {
	attempted, failed int
	reasons           []string
	ref               map[string]string
}

func newLedger() ledger { return ledger{ref: map[string]string{}} }

// maxReasons bounds the failure reasons kept for stderr.
const maxReasons = 20

// settle records one op. A nil error is a success.
func (l *ledger) settle(what string, err error) {
	l.attempted++
	if err == nil {
		return
	}
	l.failed++
	if len(l.reasons) < maxReasons {
		l.reasons = append(l.reasons, fmt.Sprintf("%s: %v", what, err))
	}
}

// same checks fp against the first fingerprint recorded under key and
// records fp when it is the first.
func (l *ledger) same(key, fp string) error {
	ref, ok := l.ref[key]
	if !ok {
		l.ref[key] = fp
		return nil
	}
	if ref != fp {
		return fmt.Errorf("audited result differs from the first %s op:\n  first %s\n  this  %s", key, ref, fp)
	}
	return nil
}

// fault marks the run itself as failed (a cross-check that is not
// about any single op) without adding an op.
func (l *ledger) fault(err error) {
	l.failed++
	if len(l.reasons) < maxReasons {
		l.reasons = append(l.reasons, err.Error())
	}
}

// opResult is what one solve produced, in the form every check reads.
// Daemon payloads and library Reports both land here.
type opResult struct {
	problem mpcgraph.Problem
	inSet   []bool       // MIS or vertex cover
	mate    []int32      // matchings
	value   float64      // weighted-matching value
	costs   auditedCosts // everything deterministic but the payload
}

// auditedCosts are the Workers- and trace-invariant costs of a solve.
type auditedCosts struct {
	Rounds          int
	Phases          int
	MaxMachineWords int64
	TotalWords      int64
	Violations      int
	Stages          []mpcgraph.StageCost
}

func costsOf(rep *mpcgraph.Report) auditedCosts {
	return auditedCosts{rep.Rounds, rep.Phases, rep.MaxMachineWords, rep.TotalWords, rep.Violations, rep.Stages}
}

func resultOf(rep *mpcgraph.Report) *opResult {
	r := &opResult{problem: rep.Problem, value: rep.Value, costs: costsOf(rep)}
	switch {
	case rep.InMIS != nil:
		r.inSet = rep.InMIS
	case rep.InCover != nil:
		r.inSet = rep.InCover
	default:
		r.mate = rep.M
	}
	return r
}

// fingerprint is the comparison string for the same-result checks: the
// audited costs and a hash of the full payload.
func (r *opResult) fingerprint() string {
	return fmt.Sprintf("%s costs=%+v payload=%016x value=%v",
		r.problem, r.costs, payloadHash(r), r.value)
}

// payloadHash is FNV-1a over the solution in the daemon's solutionHash
// layout: member vertex ids, or matched pairs (u < v) in vertex order,
// each as a little-endian int64.
func payloadHash(r *opResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	if r.mate == nil {
		for v, in := range r.inSet {
			if in {
				put(int64(v))
			}
		}
	} else {
		for v, u := range r.mate {
			if u >= 0 && int32(v) < u {
				put(int64(v))
				put(int64(u))
			}
		}
	}
	return h.Sum64()
}

// validate checks the payload against the instance with checkers that
// share no code with the solvers or with graph's own validators.
func validate(in mpcgraph.Instance, r *opResult) error {
	g, weights := graphOf(in)
	switch r.problem {
	case mpcgraph.ProblemMIS:
		return checkMIS(g, r.inSet)
	case mpcgraph.ProblemVertexCover:
		return checkCover(g, r.inSet)
	case mpcgraph.ProblemWeightedMatching:
		if err := checkMatching(g, r.mate); err != nil {
			return err
		}
		if weights == nil {
			return fmt.Errorf("weighted matching on an unweighted instance")
		}
		got := 0.0
		for v, u := range r.mate {
			if u > int32(v) {
				got += weights.EdgeWeight(int32(v), u)
			}
		}
		if math.Abs(got-r.value) > 1e-9*math.Max(1, math.Abs(got)) {
			return fmt.Errorf("reported value %v, matched edges weigh %v", r.value, got)
		}
		return nil
	default:
		return checkMatching(g, r.mate)
	}
}

func graphOf(in mpcgraph.Instance) (*mpcgraph.Graph, *mpcgraph.WeightedGraph) {
	switch g := in.(type) {
	case *mpcgraph.WeightedGraph:
		return g.Graph, g
	case *mpcgraph.Graph:
		return g, nil
	}
	panic(fmt.Sprintf("perfbench: instance type %T", in))
}

// adjacent reports whether {u, v} is an edge; neighbor lists are sorted.
func adjacent(g *mpcgraph.Graph, u, v int32) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}

// checkMIS: no edge inside the set, and every vertex outside it has a
// neighbor inside (maximality).
func checkMIS(g *mpcgraph.Graph, in []bool) error {
	n := g.NumVertices()
	if len(in) != n {
		return fmt.Errorf("MIS over %d vertices, graph has %d", len(in), n)
	}
	for v := int32(0); int(v) < n; v++ {
		covered := in[v]
		for _, u := range g.Neighbors(v) {
			if in[u] {
				if in[v] {
					return fmt.Errorf("MIS not independent: edge {%d,%d} inside", v, u)
				}
				covered = true
			}
		}
		if !covered {
			return fmt.Errorf("MIS not maximal: vertex %d has no neighbor in the set", v)
		}
	}
	return nil
}

// checkMatching: mate is a symmetric involution over real edges.
func checkMatching(g *mpcgraph.Graph, mate []int32) error {
	n := g.NumVertices()
	if len(mate) != n {
		return fmt.Errorf("mate array over %d vertices, graph has %d", len(mate), n)
	}
	for v, u := range mate {
		if u == -1 {
			continue
		}
		if u < 0 || int(u) >= n || int(u) == v {
			return fmt.Errorf("vertex %d has mate %d", v, u)
		}
		if mate[u] != int32(v) {
			return fmt.Errorf("mate not symmetric: %d->%d but %d->%d", v, u, u, mate[u])
		}
		if !adjacent(g, int32(v), u) {
			return fmt.Errorf("matched pair {%d,%d} is not an edge", v, u)
		}
	}
	return nil
}

// checkCover: every edge has an endpoint in the cover.
func checkCover(g *mpcgraph.Graph, in []bool) error {
	n := g.NumVertices()
	if len(in) != n {
		return fmt.Errorf("cover over %d vertices, graph has %d", len(in), n)
	}
	for v := int32(0); int(v) < n; v++ {
		if in[v] {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if !in[u] {
				return fmt.Errorf("edge {%d,%d} uncovered", v, u)
			}
		}
	}
	return nil
}

// injection corrupts the result of op number op: its payload (one
// member added or removed) or its audited costs (one extra round).
type injection struct {
	op      int
	payload bool
	costs   bool
}

func (j injection) result(r *opResult) {
	if j.costs {
		r.costs.Rounds++
	}
	if !j.payload {
		return
	}
	if r.mate != nil {
		for v, u := range r.mate {
			if u >= 0 {
				r.mate[v], r.mate[u] = -1, -1
				return
			}
		}
	}
	r.inSet[0] = !r.inSet[0]
}

func (j injection) view(rep *service.ReportView) {
	if j.costs {
		rep.Rounds++
	}
	if j.payload {
		rep.SolutionHash = fmt.Sprintf("%016x", ^uint64(0))
	}
}

package cli

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"strconv"
	"strings"
	"time"

	"mpcgraph/internal/client"
	"mpcgraph/internal/graph"
	"mpcgraph/internal/graphio"
	"mpcgraph/internal/model"
	reg "mpcgraph/internal/registry"
	"mpcgraph/internal/service"
)

// remoteSolver adapts a running mpcgraphd into a registry.SolveFunc:
// the instance is uploaded as a (weighted) edge list, the job is
// submitted and polled to completion under the documented retry
// convention, and the Report is reconstructed from the job view plus
// the solution endpoint. Because Solve is deterministic and the wire
// round-trips every Report field the bench tables read (costs,
// violations, solution payloads — floats via shortest-round-trip JSON),
// a remote solve is bit-identical to the in-process call it replaces;
// `mpcgraph bench -remote` leans on exactly that. Wall is left zero:
// wall time is the one field the wire cannot promise to reproduce, and
// no table reads it.
func remoteSolver(server string, retries int, retryBudget time.Duration) reg.SolveFunc {
	return func(ctx context.Context, in reg.Input, p reg.Problem, m model.Model, opts reg.Options) (*reg.Report, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		req, err := uploadRequest(in, p, m, opts)
		if err != nil {
			return nil, err
		}
		// The jitter stream is seeded by the job seed, so one scripted
		// sweep plans one reproducible delay sequence per cell.
		c := client.New(server)
		view, err := c.SubmitJob(ctx, req, client.Retry{
			Seed: opts.Seed, Purpose: "remote-solve", Op: "remote solve",
			Max: retries, Budget: retryBudget,
		})
		if err != nil {
			return nil, err
		}
		if view, err = c.WaitJob(ctx, view.ID, opts.Seed); err != nil {
			return nil, err
		}
		if view.State != service.StateDone {
			return nil, fmt.Errorf("remote solve: job %s %s: %s", view.ID, view.State, view.Error)
		}
		if view.Report == nil {
			return nil, fmt.Errorf("remote solve: job %s done without a report", view.ID)
		}
		solution, err := c.Get(ctx, "/v1/jobs/"+view.ID+"/solution")
		if err != nil {
			return nil, err
		}
		return remoteReport(in, p, m, view.Report, string(solution))
	}
}

// uploadRequest serializes the in-process instance as a graph upload.
// Edge lists carry the exact edge set (and, for wel, weights in
// shortest-round-trip float form), so the daemon reconstructs the
// bit-identical instance — and therefore the identical cache key — that
// an in-process run would use.
func uploadRequest(in reg.Input, p reg.Problem, m model.Model, opts reg.Options) (*service.JobRequest, error) {
	var (
		buf    bytes.Buffer
		format graphio.Format
		data   *graphio.Data
	)
	if in.WG != nil {
		format, data = graphio.FormatWeightedEdgeList, graphio.FromWeighted(in.WG)
	} else {
		format, data = graphio.FormatEdgeList, graphio.Unweighted(in.G)
	}
	if err := graphio.Write(&buf, data, format); err != nil {
		return nil, err
	}
	return &service.JobRequest{
		Problem: p.String(),
		Model:   m.String(),
		Graph: &service.GraphRequest{
			Format:  format.String(),
			Content: base64.StdEncoding.EncodeToString(buf.Bytes()),
			Base64:  true,
		},
		Options: service.OptionsRequest{
			Seed:         opts.Seed,
			Eps:          opts.Eps,
			MemoryFactor: opts.MemoryFactor,
			Strict:       opts.Strict,
			Workers:      opts.Workers,
		},
	}, nil
}

// remoteReport reassembles a registry Report from the wire view and the
// rendered solution payload.
func remoteReport(in reg.Input, p reg.Problem, m model.Model, rv *service.ReportView, solution string) (*reg.Report, error) {
	rep := &reg.Report{
		Problem:         p,
		Model:           m,
		Rounds:          rv.Rounds,
		Phases:          rv.Phases,
		MaxMachineWords: rv.MaxMachineWords,
		TotalWords:      rv.TotalWords,
		Violations:      rv.Violations,
	}
	for _, st := range rv.Stages {
		rep.Stages = append(rep.Stages, model.StageCost{Name: st.Name, Rounds: st.Rounds, Words: st.Words})
	}
	n := in.G.NumVertices()
	var err error
	switch p {
	case reg.MIS:
		rep.InMIS, err = parseVertexSet(solution, n)
	case reg.VertexCover:
		rep.InCover, err = parseVertexSet(solution, n)
		if rv.FractionalWeight != nil {
			rep.FractionalWeight = *rv.FractionalWeight
		}
	case reg.WeightedMatching:
		rep.M, err = parseMatching(solution, n)
		if rv.Value != nil {
			rep.Value = *rv.Value
		}
	default:
		rep.M, err = parseMatching(solution, n)
	}
	if err != nil {
		return nil, fmt.Errorf("remote solve: bad solution payload: %w", err)
	}
	return rep, nil
}

// parseVertexSet reads the one-id-per-line solution form.
func parseVertexSet(text string, n int) ([]bool, error) {
	set := make([]bool, n)
	for _, tok := range strings.Fields(text) {
		v, err := strconv.Atoi(tok)
		if err != nil || v < 0 || v >= n {
			return nil, fmt.Errorf("vertex %q out of range [0,%d)", tok, n)
		}
		set[v] = true
	}
	return set, nil
}

// parseMatching reads the "u v" pair-per-line solution form.
func parseMatching(text string, n int) (graph.Matching, error) {
	toks := strings.Fields(text)
	if len(toks)%2 != 0 {
		return nil, fmt.Errorf("odd token count %d in matching payload", len(toks))
	}
	match := graph.NewMatching(n)
	for i := 0; i < len(toks); i += 2 {
		u, err1 := strconv.Atoi(toks[i])
		v, err2 := strconv.Atoi(toks[i+1])
		if err1 != nil || err2 != nil || u < 0 || v < 0 || u >= n || v >= n {
			return nil, fmt.Errorf("edge %q %q out of range [0,%d)", toks[i], toks[i+1], n)
		}
		match.Match(int32(u), int32(v))
	}
	return match, nil
}

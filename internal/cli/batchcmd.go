package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"mpcgraph"
	"mpcgraph/internal/client"
	"mpcgraph/internal/service"
)

// runBatch drives the POST /v1/batches API: it submits many jobs as
// one unit — an explicit spec file, or a sweep assembled from flags
// (scenarios × a seed range × problems) mirroring the bench harness's
// registry sweep — then optionally follows the batch to completion.
//
//	mpcgraph batch -scenarios gnp,ring -seeds 1:50 -problems mis -wait
//	mpcgraph batch -spec sweep.json -stream
//	mpcgraph batch -cancel b000003
//
// The daemon dedups batch members against its result cache and
// in-flight jobs before enqueueing, so resubmitting a sweep whose
// cells are cached performs zero new solves; the final view's dedup
// block reports exactly what was served from where.
func runBatch(args []string, env Env) error {
	fs := flag.NewFlagSet("mpcgraph batch", flag.ContinueOnError)
	fs.SetOutput(env.Stderr)
	var (
		server      = fs.String("server", "http://127.0.0.1:8080", "base URL of the mpcgraphd daemon")
		specPath    = fs.String("spec", "", "submit a raw BatchRequest JSON file ('-' reads stdin); exclusive with the sweep flags")
		scenarios   = fs.String("scenarios", "", "comma-separated catalog scenarios to sweep")
		n           = fs.Int("n", 0, "scenario vertex count (0 = each scenario's default)")
		seeds       = fs.String("seeds", "1:1", "inclusive seed range from:to (a single value means one seed)")
		problems    = fs.String("problems", "", "comma-separated problems to sweep (empty = every registered pair)")
		modelName   = fs.String("model", "", "restrict the sweep to one model (empty = both where registered)")
		eps         = fs.Float64("eps", 0.1, "approximation slack where applicable")
		memFactor   = fs.Float64("memory-factor", 0, "per-machine memory = factor*n words (0 = default 16)")
		strict      = fs.Bool("strict", false, "fail member jobs on any simulated memory/bandwidth violation")
		workers     = fs.Int("workers", 0, "per-job parallel workers (0 = the server's default)")
		timeout     = fs.Duration("timeout", 0, "server-side deadline per member job (0 = none)")
		noCache     = fs.Bool("no-cache", false, "force cold runs past the deterministic result cache")
		wait        = fs.Bool("wait", false, "poll the batch until every member settles, print the final view")
		stream      = fs.Bool("stream", false, "follow per-job completions as NDJSON until the batch settles")
		cancelID    = fs.String("cancel", "", "cancel the remainder of this batch id and exit")
		statusID    = fs.String("status", "", "print the view of this batch id and exit")
		retries     = fs.Int("retries", 8, "submission retries on 503 before giving up (exit code 6)")
		retryBudget = fs.Duration("retry-budget", 2*time.Minute, "total planned retry sleep before giving up (exit code 6)")
		params      = paramFlag{}
	)
	fs.Var(params, "param", "scenario parameter key=value, applied to every swept scenario (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	c := client.New(*server)
	ctx := context.Background()
	switch {
	case *cancelID != "":
		view, err := c.CancelBatch(ctx, *cancelID)
		if err != nil {
			return err
		}
		return printJSON(env, view)
	case *statusID != "" && !*stream:
		body, err := c.Get(ctx, "/v1/batches/"+*statusID)
		if err != nil {
			return err
		}
		_, err = env.Stdout.Write(body)
		return err
	case *statusID != "": // -status ID -stream: follow an existing batch
		return streamBatch(ctx, env, c, *statusID)
	}

	req, seedFrom, err := buildBatchRequest(env, fs, *specPath, *scenarios, *n, *seeds, *problems, *modelName,
		params, *eps, *memFactor, *strict, *workers, *timeout, *noCache)
	if err != nil {
		return err
	}

	// Batches are admitted whole or rejected whole: the feeder applies
	// queue backpressure server-side, so the only retryable rejection
	// is 503 (draining behind a balancer).
	view, err := c.SubmitBatch(ctx, req, client.Retry{
		Seed: seedFrom, Purpose: "batch-submit", Op: "batch",
		Max: *retries, Budget: *retryBudget, Log: env.Stderr,
	})
	if err != nil {
		return err
	}

	switch {
	case *stream:
		return streamBatch(ctx, env, c, view.ID)
	case *wait:
		if view, err = c.WaitBatch(ctx, view.ID, seedFrom); err != nil {
			return err
		}
	}
	if err := printJSON(env, view); err != nil {
		return err
	}
	return failedMembers(view)
}

// buildBatchRequest assembles the wire request from -spec or the sweep
// flags, and picks the backoff seed (the low end of the seed range, so
// a scripted sweep plans one reproducible delay sequence).
func buildBatchRequest(env Env, fs *flag.FlagSet, specPath, scenarios string, n int, seeds, problems, modelName string,
	params paramFlag, eps, memFactor float64, strict bool, workers int, timeout time.Duration, noCache bool,
) (*service.BatchRequest, uint64, error) {
	if specPath != "" {
		if scenarios != "" {
			return nil, 0, fmt.Errorf("-spec and -scenarios are mutually exclusive")
		}
		raw, err := readAll(env, specPath)
		if err != nil {
			return nil, 0, err
		}
		var req service.BatchRequest
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, 0, fmt.Errorf("bad batch spec %s: %v", specPath, err)
		}
		var seedFrom uint64
		if req.Sweep != nil && req.Sweep.Seeds != nil {
			seedFrom = req.Sweep.Seeds.From
		}
		return &req, seedFrom, nil
	}
	if scenarios == "" {
		fmt.Fprintln(env.Stderr, "need a sweep: -scenarios <names> (plus -seeds, -problems) or -spec <file>")
		fs.Usage()
		return nil, 0, fmt.Errorf("batch requires -scenarios or -spec")
	}
	from, to, err := parseSeedRange(seeds)
	if err != nil {
		return nil, 0, err
	}
	sweep := &service.SweepRequest{
		Seeds: &service.SeedRange{From: from, To: to},
		Options: service.OptionsRequest{
			Eps:          eps,
			MemoryFactor: memFactor,
			Strict:       strict,
			Workers:      workers,
		},
	}
	for _, name := range strings.Split(scenarios, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		sweep.Scenarios = append(sweep.Scenarios, service.ScenarioRequest{Name: name, N: n, Params: params})
	}
	if problems != "" {
		model := modelName
		if model == "" {
			model = mpcgraph.ModelMPC.String()
		}
		for _, p := range strings.Split(problems, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			sweep.Pairs = append(sweep.Pairs, service.PairRequest{Problem: p, Model: model})
		}
	} else if modelName != "" {
		return nil, 0, fmt.Errorf("-model needs -problems (an empty problem list sweeps every registered pair)")
	}
	return &service.BatchRequest{
		Sweep:     sweep,
		TimeoutMs: timeout.Milliseconds(),
		NoCache:   noCache,
	}, from, nil
}

// parseSeedRange reads "from:to" (inclusive) or a single seed.
func parseSeedRange(s string) (from, to uint64, err error) {
	lo, hi, ranged := strings.Cut(s, ":")
	from, err = strconv.ParseUint(strings.TrimSpace(lo), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad -seeds %q: %v", s, err)
	}
	if !ranged {
		return from, from, nil
	}
	to, err = strconv.ParseUint(strings.TrimSpace(hi), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad -seeds %q: %v", s, err)
	}
	if to < from {
		return 0, 0, fmt.Errorf("bad -seeds %q: to < from", s)
	}
	return from, to, nil
}

// streamBatch relays the batch's NDJSON stream (one line per member
// completion, then the done marker carrying the aggregate view) to
// stdout; a batch with failed members exits non-zero after the full
// stream has been relayed.
func streamBatch(ctx context.Context, env Env, c *client.Client, id string) error {
	final, err := c.StreamBatch(ctx, id, env.Stdout)
	if err != nil {
		return err
	}
	return failedMembers(final)
}

// failedMembers fails a settled batch with failed members.
func failedMembers(view *service.BatchView) error {
	if view != nil && view.Counts.Failed > 0 {
		return fmt.Errorf("batch %s: %d member job(s) failed", view.ID, view.Counts.Failed)
	}
	return nil
}

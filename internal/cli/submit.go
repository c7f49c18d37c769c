package cli

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mpcgraph"
	"mpcgraph/internal/client"
	"mpcgraph/internal/service"
)

// The daemon client subcommands: `mpcgraph submit` posts one job to a
// running mpcgraphd and (with -wait) polls it to completion; `mpcgraph
// status` inspects the daemon's job table. Both are flag parsing and
// printing over internal/client, which owns the wire and the retry
// convention (see docs/service.md).

// runSubmit posts one job to a running daemon.
func runSubmit(args []string, env Env) error {
	fs := flag.NewFlagSet("mpcgraph submit", flag.ContinueOnError)
	fs.SetOutput(env.Stderr)
	var (
		server       = fs.String("server", "http://127.0.0.1:8080", "base URL of the mpcgraphd daemon")
		problemName  = fs.String("problem", "", "problem to solve (see mpcgraph list)")
		modelName    = fs.String("model", mpcgraph.ModelMPC.String(), "computation model: mpc or congested-clique")
		inPath       = fs.String("in", "", "instance file to upload ('-' reads stdin); any supported format")
		formatName   = fs.String("format", "", "upload format (el, wel, dimacs, metis, mm); required with -in")
		scenarioName = fs.String("scenario", "", "generate the instance server-side from this catalog scenario")
		n            = fs.Int("n", 0, "scenario vertex count (0 = the scenario's default)")
		seed         = fs.Uint64("seed", 1, "seed for scenario generation and the algorithm's random choices")
		eps          = fs.Float64("eps", 0.1, "approximation slack where applicable")
		memFactor    = fs.Float64("memory-factor", 0, "per-machine memory = factor*n words (0 = default 16)")
		strict       = fs.Bool("strict", false, "fail on any simulated memory/bandwidth violation")
		workers      = fs.Int("workers", 0, "per-job parallel workers (0 = the server's default); results identical for every value")
		timeout      = fs.Duration("timeout", 0, "server-side deadline for the job (0 = none)")
		noCache      = fs.Bool("no-cache", false, "force a cold run past the deterministic result cache")
		wait         = fs.Bool("wait", false, "poll the job until it reaches a terminal state")
		retries      = fs.Int("retries", 8, "submission retries on 429/503 before giving up (exit code 6)")
		retryBudget  = fs.Duration("retry-budget", 2*time.Minute, "total planned retry sleep before giving up (exit code 6)")
		params       = paramFlag{}
	)
	fs.Var(params, "param", "scenario parameter key=value (repeatable, comma-separable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *problemName == "" {
		return fmt.Errorf("submit requires -problem (see mpcgraph list)")
	}

	req := service.JobRequest{
		Problem: *problemName,
		Model:   *modelName,
		Options: service.OptionsRequest{
			Seed:         *seed,
			Eps:          *eps,
			MemoryFactor: *memFactor,
			Strict:       *strict,
			Workers:      *workers,
		},
		TimeoutMs: timeout.Milliseconds(),
		NoCache:   *noCache,
	}
	switch {
	case *scenarioName != "" && *inPath != "":
		return fmt.Errorf("-scenario and -in are mutually exclusive")
	case *scenarioName != "":
		req.Scenario = &service.ScenarioRequest{Name: *scenarioName, N: *n, Seed: *seed, Params: params}
	case *inPath != "":
		if *formatName == "" {
			return fmt.Errorf("-in requires -format (the upload does not have a file extension server-side)")
		}
		raw, err := readAll(env, *inPath)
		if err != nil {
			return err
		}
		req.Graph = &service.GraphRequest{
			Format:  *formatName,
			Content: base64.StdEncoding.EncodeToString(raw),
			Base64:  true,
		}
	default:
		return fmt.Errorf("need an instance: -in <file> or -scenario <name> (see mpcgraph list)")
	}

	// The jitter stream is seeded by the job seed, so one scripted
	// invocation plans one reproducible delay sequence.
	c := client.New(*server)
	ctx := context.Background()
	view, err := c.SubmitJob(ctx, &req, client.Retry{
		Seed: *seed, Purpose: "submit", Op: "submit",
		Max: *retries, Budget: *retryBudget, Log: env.Stderr,
	})
	if err != nil {
		return err
	}
	if *wait {
		if view, err = c.WaitJob(ctx, view.ID, *seed); err != nil {
			return err
		}
	}
	if err := printJSON(env, view); err != nil {
		return err
	}
	if view.State == service.StateFailed || view.State == service.StateCanceled {
		return fmt.Errorf("job %s %s: %s", view.ID, view.State, view.Error)
	}
	return nil
}

// runStatus inspects a running daemon: one job with -job, the newest
// page of the job table otherwise.
func runStatus(args []string, env Env) error {
	fs := flag.NewFlagSet("mpcgraph status", flag.ContinueOnError)
	fs.SetOutput(env.Stderr)
	var (
		server = fs.String("server", "http://127.0.0.1:8080", "base URL of the mpcgraphd daemon")
		jobID  = fs.String("job", "", "job id to fetch (default: list jobs)")
		state  = fs.String("state", "", "filter the listing by lifecycle state")
		limit  = fs.Int("limit", 100, "page size of the listing")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	path := fmt.Sprintf("/v1/jobs?limit=%d", *limit)
	if *state != "" {
		path += "&state=" + *state
	}
	if *jobID != "" {
		path = "/v1/jobs/" + *jobID
	}
	body, err := client.New(*server).Get(context.Background(), path)
	if err != nil {
		return err
	}
	_, err = env.Stdout.Write(body)
	return err
}

// readAll reads a file or stdin ("-").
func readAll(env Env, path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(env.Stdin)
	}
	return os.ReadFile(path)
}

// printJSON writes a daemon view to stdout, indented like the daemon's
// own responses.
func printJSON(env Env, v any) error {
	enc := json.NewEncoder(env.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Command mpcgraph is the unified CLI over the paper reproduction: it
// materializes catalog scenarios to portable graph files, solves any
// registered (problem, model) pair on instances from disk or from the
// catalog, regenerates the experiment tables, lists every registry it
// dispatches on, and drives a running mpcgraphd — submitting jobs and
// batches, streaming traces, and rendering a live `top` dashboard of
// queue depth, cache hit rates, and latency percentiles.
//
// Usage:
//
//	mpcgraph gen -scenario rmat -n 65536 -seed 1 -out web.mtx.gz
//	mpcgraph solve -problem mis -model mpc -in web.mtx.gz -json
//	mpcgraph solve -problem weighted-matching -scenario weighted-gnp -seed 7
//	mpcgraph bench -experiment E5 -quick
//	mpcgraph batch -scenarios gnp,ring -seeds 1:50 -problems mis -wait
//	mpcgraph bench -experiment E18 -remote http://127.0.0.1:8080
//	mpcgraph top -interval 2s
//	mpcgraph list
//
// Run "mpcgraph <command> -h" for per-command flags.
//
// # Exit codes
//
// Dispatch failures are sentinel errors (errors.Is-able through the
// public mpcgraph package), each mapped to its own exit code so scripts
// can distinguish "you typo'd the problem" from "that pair has no
// algorithm":
//
//	0  success
//	1  generic failure (I/O, malformed input, flag errors, strict-mode
//	   capacity/budget violations)
//	2  unknown problem or model name (mpcgraph.ErrUnknownProblem,
//	   mpcgraph.ErrUnknownModel)
//	3  no algorithm registered for the requested (problem, model) pair
//	   (mpcgraph.ErrUnsupported — e.g. weighted-matching on
//	   congested-clique, which Corollary 1.4 does not state)
//	4  the problem requires a weighted instance
//	   (mpcgraph.ErrNeedWeightedGraph)
//	5  the solve exceeded its deadline (`solve -timeout`,
//	   context.DeadlineExceeded — the run was aborted between
//	   simulated rounds)
//	6  a retryable daemon rejection (HTTP 429 queue-full / 503
//	   draining) outlasted `submit -retries`/`-retry-budget`
//	   (client.ErrRetriesExhausted — the daemon is saturated, retry
//	   later with coarser pacing)
package main

import (
	"context"
	"errors"
	"fmt"
	"os"

	"mpcgraph"
	"mpcgraph/internal/cli"
	"mpcgraph/internal/client"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mpcgraph:", err)
		os.Exit(exitCode(err))
	}
}

func run(args []string) error {
	return cli.Run(args, cli.Env{Stdin: os.Stdin, Stdout: os.Stdout, Stderr: os.Stderr})
}

// exitCode maps the dispatch sentinels onto the documented exit codes.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, mpcgraph.ErrUnknownProblem), errors.Is(err, mpcgraph.ErrUnknownModel):
		return 2
	case errors.Is(err, mpcgraph.ErrUnsupported):
		return 3
	case errors.Is(err, mpcgraph.ErrNeedWeightedGraph):
		return 4
	case errors.Is(err, context.DeadlineExceeded):
		return 5
	case errors.Is(err, client.ErrRetriesExhausted):
		return 6
	}
	return 1
}

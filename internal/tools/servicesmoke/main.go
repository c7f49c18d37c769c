// Command servicesmoke is the `make service-smoke` harness: it boots a
// real mpcgraphd binary on an ephemeral port (with a persistent cache
// directory), submits one job per registered problem over HTTP,
// re-submits each and verifies the deterministic result cache returned
// a hit whose job view is bit-identical to the cold run (volatile
// fields aside), checks the /metrics counters and the disk-tier health
// report, round-trips the same jobs once more as one POST /v1/batches
// (server-side dedup must serve every member from the memory cache
// tier with zero new solves, and the NDJSON stream must replay every
// completion), then sends SIGTERM and requires a clean graceful exit.
// Finally it boots a second, deliberately saturated daemon (one
// stalled worker, queue depth 1) and verifies the backpressure
// convention: overload produces HTTP 429 with a Retry-After header.
// It exercises exactly the production path: the shipped binary, a real
// TCP port, real signals. Crash-recovery of the disk tier has its own,
// deeper harness — see internal/tools/chaossmoke (`make chaos-smoke`).
//
// Usage: servicesmoke -bin <path-to-mpcgraphd>
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"mpcgraph/internal/client"
	"mpcgraph/internal/obs"
	"mpcgraph/internal/service"
	"mpcgraph/internal/tools/harness"
)

func main() {
	bin := flag.String("bin", "", "path to the mpcgraphd binary")
	flag.Parse()
	if *bin == "" {
		fmt.Fprintln(os.Stderr, "servicesmoke: -bin is required")
		os.Exit(2)
	}
	if err := run(*bin); err != nil {
		fmt.Fprintln(os.Stderr, "servicesmoke:", err)
		os.Exit(1)
	}
	fmt.Println("service-smoke OK")
}

// specs are the cold-run/cache-hit probes: every problem, both models
// where registered, and the weighted path.
var specs = []service.JobRequest{
	job("mis", "mpc", "gnp"),
	job("mis", "congested-clique", "gnp"),
	job("maximal-matching", "mpc", "rmat"),
	job("approx-matching", "congested-clique", "chung-lu"),
	job("one-plus-eps-matching", "mpc", "ring-of-cliques"),
	job("vertex-cover", "congested-clique", "high-girth"),
	job("weighted-matching", "mpc", "weighted-gnp"),
}

func job(problem, model, scenario string) service.JobRequest {
	return service.JobRequest{
		Problem:  problem,
		Model:    model,
		Scenario: &service.ScenarioRequest{Name: scenario, N: 500, Seed: 7},
		Options:  service.OptionsRequest{Seed: 7},
	}
}

func run(bin string) error {
	cacheDir, err := os.MkdirTemp("", "servicesmoke-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)

	d, err := harness.Start(bin, nil, "-workers", "2", "-cache-dir", cacheDir)
	if err != nil {
		return err
	}
	defer d.Reap()

	for _, spec := range specs {
		cold, err := d.Solve(&spec, 120*time.Second)
		if err != nil {
			return fmt.Errorf("%s/%s cold: %w", spec.Problem, spec.Model, err)
		}
		if cold.CacheHit {
			return fmt.Errorf("%s/%s: cold run claimed a cache hit", spec.Problem, spec.Model)
		}
		hit, err := d.Solve(&spec, 120*time.Second)
		if err != nil {
			return fmt.Errorf("%s/%s hit: %w", spec.Problem, spec.Model, err)
		}
		if !hit.CacheHit {
			return fmt.Errorf("%s/%s: re-submit missed the cache", spec.Problem, spec.Model)
		}
		a, _ := json.Marshal(cold.Canonical())
		b, _ := json.Marshal(hit.Canonical())
		if !bytes.Equal(a, b) {
			return fmt.Errorf("%s/%s: cache hit not bit-identical to cold run:\n cold: %s\n hit:  %s",
				spec.Problem, spec.Model, a, b)
		}
		// Every terminal view must carry an ordered lifecycle timings
		// block; the cold run's must show the full leader path.
		if err := checkTimings(cold, "received", "queued", "dequeued", "solving", "persisted", "settled"); err != nil {
			return fmt.Errorf("%s/%s cold timings: %w", spec.Problem, spec.Model, err)
		}
		if err := checkTimings(hit, "received", "settled"); err != nil {
			return fmt.Errorf("%s/%s hit timings: %w", spec.Problem, spec.Model, err)
		}
		fmt.Printf("  %-22s %-17s cold+hit bit-identical (rounds=%d)\n",
			spec.Problem, spec.Model, cold.Report.Rounds)
	}

	exp, err := d.Metrics(context.Background())
	if err != nil {
		return err
	}
	// Exposition-format invariants over the whole scrape: every series
	// under a HELP/TYPE header, histogram buckets cumulative-monotone,
	// le="+Inf" present and equal to _count.
	if err := errors.Join(obs.ValidateExposition(exp)...); err != nil {
		return fmt.Errorf("/metrics violates exposition invariants:\n%w", err)
	}
	for _, family := range []string{
		"mpcgraphd_http_request_seconds", "mpcgraphd_queue_wait_seconds",
		"mpcgraphd_solve_seconds", "mpcgraphd_job_e2e_seconds",
		"mpcgraphd_disk_op_seconds", "mpcgraphd_cache_probe_seconds",
	} {
		if exp.Type[family] != "histogram" {
			return fmt.Errorf("/metrics family %s missing or not a histogram after traffic", family)
		}
	}
	fmt.Printf("  metrics: exposition invariants hold (%d samples)\n", len(exp.Samples))
	for _, c := range []struct {
		want float64
		name string
		kv   []string
	}{
		{float64(len(specs)), "mpcgraphd_cache_hits_total", []string{"tier", "memory"}},
		{float64(2 * len(specs)), "mpcgraphd_jobs_submitted_total", nil},
		{float64(len(specs)), "mpcgraphd_cache_disk_writes_total", nil},
	} {
		if v, ok := exp.Value(c.name, c.kv...); !ok || v != c.want {
			return fmt.Errorf("metrics report %s%q = %v (present %t), want exactly %v", c.name, c.kv, v, ok, c.want)
		}
	}
	health, err := d.Health(context.Background())
	if err != nil {
		return err
	}
	if health.Status != "ok" || health.Draining || health.CacheDisk != "ok" {
		return fmt.Errorf("healthz not ok with a healthy disk tier: %+v", *health)
	}

	if err := checkBatch(d); err != nil {
		return err
	}

	// Graceful drain: SIGTERM must produce a zero exit.
	if err := d.Drain(); err != nil {
		return fmt.Errorf("daemon drain: %w", err)
	}

	return checkBackpressure(bin)
}

// checkBatch round-trips POST /v1/batches on the production binary:
// the batch resubmits exactly the jobs the per-problem probes already
// solved, so server-side dedup must serve every member from the memory
// cache tier and enqueue zero new solves — pinned by the dedup block
// of the batch view and an unchanged mpcgraphd_solves_total. The
// NDJSON stream of the settled batch must replay one line per member
// plus the final done marker.
func checkBatch(d *harness.Daemon) error {
	solvesBefore, err := d.Metric("mpcgraphd_solves_total")
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	view, err := d.SubmitBatch(ctx, &service.BatchRequest{Jobs: specs}, client.Retry{Op: "batch"})
	if err != nil {
		return err
	}
	if view, err = d.WaitBatch(ctx, view.ID, 0); err != nil {
		return fmt.Errorf("batch did not settle: %w", err)
	}

	if n := len(specs); view.Counts.Done != n || view.Dedup.CacheHits.Memory != n || view.Dedup.Enqueued != 0 {
		return fmt.Errorf("batch %s: want all %d members done as memory-tier hits with 0 enqueued: %+v", view.ID, n, *view)
	}

	solvesAfter, err := d.Metric("mpcgraphd_solves_total")
	if err != nil {
		return err
	}
	if solvesAfter != solvesBefore {
		return fmt.Errorf("fully cached batch performed %v new solves, want 0", solvesAfter-solvesBefore)
	}

	var stream bytes.Buffer
	final, err := d.StreamBatch(ctx, view.ID, &stream)
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSpace(stream.String()), "\n")
	if len(lines) != len(specs)+1 {
		return fmt.Errorf("batch stream replayed %d lines, want %d members + done marker", len(lines), len(specs))
	}
	if final == nil {
		return fmt.Errorf("batch stream's last line is not the done marker: %s", lines[len(lines)-1])
	}

	fmt.Printf("  batch: %d members all memory-tier hits, 0 new solves, stream replay intact\n", len(specs))
	return nil
}

// checkBackpressure pins the overload convention against a saturated
// daemon: one worker stalled by a failpoint, queue depth 1, so the
// third identical-shape submission must be rejected with 429 and a
// Retry-After hint.
func checkBackpressure(bin string) error {
	d, err := harness.Start(bin, []string{"MPCGRAPHD_FAILPOINTS=solve-stall"}, "-workers", "1", "-queue", "1")
	if err != nil {
		return err
	}
	defer d.Reap()

	saw429 := false
	for i := 0; i < 4; i++ {
		_, err := d.Submit(&service.JobRequest{
			Problem:  "mis",
			NoCache:  true,
			Scenario: &service.ScenarioRequest{Name: "gnp", N: 200 + i, Seed: 7},
			Options:  service.OptionsRequest{Seed: 7},
		})
		var he *client.Error
		switch {
		case err == nil:
		case errors.As(err, &he) && he.Status == 429:
			saw429 = true
			var view service.JobView
			if he.RetryAfter <= 0 || json.Unmarshal(he.Body, &view) != nil || view.State != service.StateCanceled {
				return fmt.Errorf("429 rejection needs a Retry-After hint and the canceled job view: Retry-After %v, body %s", he.RetryAfter, he.Body)
			}
		default:
			return fmt.Errorf("saturated submit %d: %w", i, err)
		}
	}
	if !saw429 {
		return fmt.Errorf("4 submissions against workers=1/queue=1 stalled daemon never hit 429")
	}
	fmt.Println("  backpressure: 429 + Retry-After on saturated daemon")
	return nil
}

// lifecycle is the canonical phase order; every timings block must list
// a subset of it, in order, with non-decreasing atMs.
var lifecycle = []string{"received", "queued", "attached", "dequeued", "solving", "persisted", "detached", "settled"}

// checkTimings asserts the terminal view carries an ordered timings
// block containing at least the given phases.
func checkTimings(view *service.JobView, wantPhases ...string) error {
	if view.Timings == nil || len(view.Timings.Phases) == 0 {
		return fmt.Errorf("no timings phases in view: %+v", *view)
	}
	phases, prevIdx, prevAt := view.Timings.Phases, -1, -1.0
	seen := map[string]bool{}
	for _, p := range phases {
		idx := slices.Index(lifecycle, p.Phase)
		if idx < 0 || idx <= prevIdx || p.AtMs < prevAt {
			return fmt.Errorf("phase %q (atMs %v) unknown or out of lifecycle order in %+v", p.Phase, p.AtMs, phases)
		}
		seen[p.Phase] = true
		prevIdx, prevAt = idx, p.AtMs
	}
	for _, want := range wantPhases {
		if !seen[want] {
			return fmt.Errorf("phase %q missing from %+v", want, phases)
		}
	}
	return nil
}

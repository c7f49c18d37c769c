package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"maps"
	"sort"
	"strings"
	"time"

	"mpcgraph/internal/client"
	"mpcgraph/internal/obs"
	"mpcgraph/internal/service"
)

// runTop is the live daemon dashboard: it scrapes /metrics and the job
// table every interval and renders queue depth, in-flight work, cache
// hit rates by tier, solve throughput and latency percentiles. The
// percentiles come from histogram deltas — each frame subtracts the
// previous scrape's bucket counts, so p50/p95/p99 describe the last
// interval, not the daemon's lifetime (the first frame, with nothing to
// subtract, shows the lifetime distribution and says so).
//
// Rates are computed over the nominal -interval, not a measured clock:
// this package is lint-barred from reading wall time (see
// docs/analysis.md), and for a dashboard the nominal pace is accurate
// to the sleep jitter, which is noise at 2s intervals.
func runTop(args []string, env Env) error {
	fs := flag.NewFlagSet("mpcgraph top", flag.ContinueOnError)
	fs.SetOutput(env.Stderr)
	var (
		server   = fs.String("server", "http://127.0.0.1:8080", "base URL of the mpcgraphd daemon")
		interval = fs.Duration("interval", 2*time.Second, "refresh pace between frames")
		count    = fs.Int("count", 0, "frames to render before exiting (0 = until interrupted)")
		plain    = fs.Bool("plain", false, "append frames instead of redrawing in place (no ANSI escapes; script-friendly)")
		jobsN    = fs.Int("jobs", 8, "recent jobs shown per frame")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *interval <= 0 {
		return fmt.Errorf("top requires a positive -interval")
	}

	c := client.New(*server)
	var prev *topSample
	for frame := 0; *count <= 0 || frame < *count; frame++ {
		if frame > 0 {
			time.Sleep(*interval)
		}
		cur, err := scrapeTop(c, *jobsN)
		if err != nil {
			return err
		}
		if !*plain {
			// Clear and home: each frame redraws the whole dashboard.
			fmt.Fprint(env.Stdout, "\x1b[2J\x1b[H")
		}
		renderTop(env.Stdout, *server, cur, prev, *interval)
		prev = cur
	}
	return nil
}

// topSample is one scrape: the parsed exposition plus the newest slice
// of the job table.
type topSample struct {
	exp  *obs.Exposition
	hist map[string][]obs.HistogramSeries
	jobs []*service.JobView
}

// gauge reads one unlabeled sample, 0 if absent.
func (s *topSample) gauge(name string, kv ...string) float64 {
	v, _ := s.exp.Value(name, kv...)
	return v
}

func scrapeTop(c *client.Client, jobsN int) (*topSample, error) {
	ctx := context.Background()
	exp, err := c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	jobs, err := c.Jobs(ctx, max(jobsN, 1))
	if err != nil {
		return nil, err
	}
	return &topSample{exp: exp, hist: exp.Histograms(), jobs: jobs}, nil
}

// latencyRow is one family of the percentile table.
type latencyRow struct {
	label  string
	family string
}

var topLatencyRows = []latencyRow{
	{"http request", "mpcgraphd_http_request_seconds"},
	{"queue wait", "mpcgraphd_queue_wait_seconds"},
	{"solve", "mpcgraphd_solve_seconds"},
	{"job e2e", "mpcgraphd_job_e2e_seconds"},
}

func renderTop(w io.Writer, server string, cur, prev *topSample, interval time.Duration) {
	secs := interval.Seconds()
	up := "up"
	if cur.gauge("mpcgraphd_up") == 0 {
		up = "DRAINING"
	}
	fmt.Fprintf(w, "mpcgraphd %s — %s — uptime %s\n",
		up, server, formatSecs(cur.gauge("mpcgraphd_uptime_seconds")))
	fmt.Fprintf(w, "queue %d/%d   inflight %d/%d workers   goroutines %d   heap %s\n",
		int(cur.gauge("mpcgraphd_queue_depth")), int(cur.gauge("mpcgraphd_queue_capacity")),
		int(cur.gauge("mpcgraphd_jobs_inflight")), int(cur.gauge("mpcgraphd_workers")),
		int(cur.gauge("go_goroutines")), formatBytes(cur.gauge("go_heap_inuse_bytes")))

	states := []string{"queued", "running", "done", "failed", "canceled"}
	parts := make([]string, 0, len(states))
	for _, st := range states {
		parts = append(parts, fmt.Sprintf("%s %d", st, int(cur.gauge("mpcgraphd_jobs", "state", st))))
	}
	fmt.Fprintf(w, "jobs: %s\n", strings.Join(parts, "   "))

	// Throughput from counter deltas over the nominal interval; the
	// first frame has no previous scrape, so it shows lifetime averages
	// over the daemon's uptime instead.
	window := "interval"
	rate := func(name string) float64 {
		v := cur.gauge(name)
		if prev == nil {
			if uptime := cur.gauge("mpcgraphd_uptime_seconds"); uptime > 0 {
				return v / uptime
			}
			return 0
		}
		return (v - prev.gauge(name)) / secs
	}
	if prev == nil {
		window = "lifetime"
	}
	fmt.Fprintf(w, "rates (%s): %.2f submits/s   %.2f solves/s   %.2f coalesced/s\n",
		window, rate("mpcgraphd_jobs_submitted_total"), rate("mpcgraphd_solves_total"),
		rate("mpcgraphd_coalesced_total"))

	memHits := cur.gauge("mpcgraphd_cache_hits_total", "tier", "memory")
	diskHits := cur.gauge("mpcgraphd_cache_hits_total", "tier", "disk")
	misses := cur.gauge("mpcgraphd_cache_misses_total")
	lookups := memHits + diskHits + misses
	pct := func(v float64) string {
		if lookups == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*v/lookups)
	}
	fmt.Fprintf(w, "cache: memory %s (%d)   disk %s (%d)   miss %s (%d)\n",
		pct(memHits), int(memHits), pct(diskHits), int(diskHits), pct(misses), int(misses))

	fmt.Fprintf(w, "latency (%s):%17s%12s%12s%12s\n", window, "p50", "p95", "p99", "count")
	for _, row := range topLatencyRows {
		// Every obs histogram shares one bucket layout, so a family's
		// series fold into one snapshot.
		snap := obs.MergedSnapshot(cur.hist[row.family])
		if prev != nil {
			snap = snap.Sub(obs.MergedSnapshot(prev.hist[row.family]))
		}
		if snap.Count == 0 {
			fmt.Fprintf(w, "  %-14s%15s%12s%12s%12d\n", row.label, "-", "-", "-", 0)
			continue
		}
		fmt.Fprintf(w, "  %-14s%15s%12s%12s%12d\n", row.label,
			formatSeconds(snap.Quantile(0.50)), formatSeconds(snap.Quantile(0.95)), formatSeconds(snap.Quantile(0.99)),
			snap.Count)
	}

	// Hottest solve pairs of the window, by observation count.
	if pairs := solvePairs(cur, prev); len(pairs) > 0 {
		fmt.Fprintf(w, "solves (%s): %s\n", window, strings.Join(pairs, "   "))
	}

	if len(cur.jobs) > 0 {
		fmt.Fprintln(w, "recent jobs:")
		for _, j := range cur.jobs {
			origin := "computed"
			switch {
			case j.CacheHit:
				origin = "hit:" + string(j.CacheTier)
			case j.Coalesced:
				origin = "coalesced"
			}
			fmt.Fprintf(w, "  %-10s %-9s %-18s %-17s %s\n", j.ID, j.State, j.Problem, j.Model, origin)
		}
	}
	fmt.Fprintln(w)
}

// solvePairs summarizes the window's solve activity per (problem,
// model) child, busiest first.
func solvePairs(cur, prev *topSample) []string {
	const limit = 4
	type pair struct {
		label string
		count uint64
	}
	var pairs []pair
	for _, series := range cur.hist["mpcgraphd_solve_seconds"] {
		snap := series.Snapshot()
		if prev != nil {
			for _, prevSeries := range prev.hist["mpcgraphd_solve_seconds"] {
				if maps.Equal(series.Labels, prevSeries.Labels) {
					snap = snap.Sub(prevSeries.Snapshot())
					break
				}
			}
		}
		if snap.Count == 0 {
			continue
		}
		pairs = append(pairs, pair{
			label: fmt.Sprintf("%s/%s %d×%s", series.Labels["problem"], series.Labels["model"],
				snap.Count, formatSeconds(snap.Quantile(0.50))),
			count: snap.Count,
		})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].count != pairs[j].count {
			return pairs[i].count > pairs[j].count
		}
		return pairs[i].label < pairs[j].label
	})
	if len(pairs) > limit {
		pairs = pairs[:limit]
	}
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = p.label
	}
	return out
}

// formatSeconds renders a quantile estimate (seconds) with a unit
// fitting its magnitude.
func formatSeconds(v float64) string {
	switch {
	case v < 0.001:
		return fmt.Sprintf("%.0fµs", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.2fms", v*1e3)
	default:
		return fmt.Sprintf("%.2fs", v)
	}
}

func formatSecs(v float64) string {
	d := time.Duration(v * float64(time.Second))
	if d >= time.Minute {
		return d.Round(time.Second).String()
	}
	return d.Round(10 * time.Millisecond).String()
}

func formatBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1fGiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}

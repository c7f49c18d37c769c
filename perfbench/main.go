// Command perfbench is the repository's timed benchmark. It runs one
// named workload from a seed for a fixed time, checks every output, and
// prints its metrics as one JSON object on the last line of stdout:
//
//	bash perfbench/run.sh --workload solve-matching --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run. See
// perfbench/README.md for the workloads and what each metric predicts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDecl names one declared metric and its unit. The lists below
// mirror BENCHMARK.json; a harness test keeps the two in step.
type metricDecl struct{ name, unit string }

var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"op_cost_ref", "ref"},
}

var perLayer = []metricDecl{
	// Per-class end-to-end times, wall clock; op_cost_ref aggregates each
	// workload's classes in CPU time, these split them.
	{"class.approx_matching_s", "s"},
	{"class.one_plus_eps_s", "s"},
	{"class.vertex_cover_s", "s"},
	{"class.weighted_matching_s", "s"},
	{"class.el_ingest_s", "s"},
	{"class.wel_ingest_s", "s"},
	{"class.cold_p50_ms", "ms"},
	{"class.cold_p95_ms", "ms"},
	{"class.hit_p50_ms", "ms"},
	{"class.hit_p95_ms", "ms"},
	{"class.heavy_p50_ms", "ms"},
	{"class.failed_ratio", "ratio"},

	{"scenario.generate_s", "s"},
	{"graphio.write_s", "s"},
	{"graphio.read_el_s", "s"},
	{"graphio.read_el_mb_per_s", "MB/s"},
	{"graphio.read_alloc_mb", "MB"},
	{"graph.build_s", "s"},
	{"graphio.read_wel_s", "s"},
	{"service.digest_s", "s"},

	{"mis.solve_s", "s"},
	{"mis.prefix_s", "s"},
	{"mis.gather_s", "s"},
	{"mis.rounds", "count"},
	{"mis.words", "count"},

	{"matching.invocation_s", "s"},
	{"matching.finish_s", "s"},
	{"matching.round_us", "us"},
	{"matching.boost_s", "s"},
	{"matching.phase_s", "s"},
	{"matching.direct_s", "s"},
	{"matching.improvement_s", "s"},
	{"matching.alloc_mb", "MB"},
	{"matching.rounds.approx-matching", "count"},
	{"matching.rounds.one-plus-eps-matching", "count"},
	{"matching.rounds.vertex-cover", "count"},
	{"matching.rounds.weighted-matching", "count"},
	{"matching.words.approx-matching", "count"},
	{"matching.words.one-plus-eps-matching", "count"},
	{"matching.words.vertex-cover", "count"},
	{"matching.words.weighted-matching", "count"},
	{"mpc.max_machine_words", "count"},
	{"par.speedup.approx-matching", "ratio"},
	{"par.speedup.one-plus-eps-matching", "ratio"},
	{"par.speedup.vertex-cover", "ratio"},
	{"par.speedup.weighted-matching", "ratio"},

	{"service.submit_ms", "ms"},
	{"service.resolve_ms", "ms"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.queue_wait_ms_p95", "ms"},
	{"service.solve_ms", "ms"},
	{"service.disk_write_ms", "ms"},
	{"service.disk_read_ms", "ms"},
	{"service.probe_us.memory", "us"},
	{"service.probe_us.disk", "us"},
	{"service.hit_ratio.memory", "ratio"},
	{"service.hit_ratio.disk", "ratio"},
	{"service.solves", "count"},
	{"service.coalesced", "count"},
	{"service.refused", "count"},

	{"bench.ref_cpu_ms", "ms"},
	{"bench.lag_p95_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg *config) (*outcome, error){
	"solve-matching": runSolveMatching,
	"ingest-mis":     runIngestMIS,
	"daemon-mix":     runDaemonMix,
}

// notExercised lists, per workload, the prefixes of per-layer metrics
// whose layers the workload never calls. A traced run reports such a
// metric as 0; any other metric a workload fails to produce is an error.
var notExercised = map[string][]string{
	"solve-matching": {"class.el_", "class.wel_", "class.cold_", "class.hit_", "class.heavy_",
		"graph.", "service.", "mis.", "bench.lag_"},
	"ingest-mis": {"class.approx_", "class.one_plus_", "class.vertex_", "class.weighted_",
		"class.cold_", "class.hit_", "class.heavy_", "matching.", "par.", "service.", "bench.lag_"},
	"daemon-mix": {"class.approx_", "class.one_plus_", "class.vertex_", "class.weighted_",
		"class.el_", "class.wel_", "graphio.read", "graph.", "mis.", "matching.", "mpc.", "par."},
}

// config is one invocation: the workload, its seed and duration, where
// it may write, and the input sizes.
type config struct {
	workload string
	seed     uint64
	run      time.Duration
	trace    bool
	root     string // checkout root: binaries and scratch live under root/.bench_build
	work     string // per-run scratch directory, removed at exit
	sizes    sizes
	// inject corrupts one op's result before it is checked; the harness
	// tests use it to prove a bad op is counted as failed.
	inject injection
}

// outcome is what a workload measured.
type outcome struct {
	ledger
	values map[string]float64 // every metric of the mode, by name
	lines  []string           // human-readable summary, with sample counts
}

func newOutcome() *outcome {
	return &outcome{ledger: newLedger(), values: map[string]float64{}}
}

// result is the JSON object printed on the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == childCommand {
		if err := runChild(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository checkout the benchmark runs in")
	name := fs.String("workload", "", "workload: solve-matching, ingest-mis or daemon-mix")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 20, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(absRoot, ".bench_build"), "run-")
	if err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(work)
	cfg := &config{
		workload: *name,
		seed:     *seed,
		run:      time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		root:     absRoot,
		work:     work,
		sizes:    fullSizes,
	}
	out, err := runner(cfg)
	if err != nil {
		return err
	}
	for _, l := range out.lines {
		fmt.Fprintln(stderr, l)
	}
	for _, r := range out.reasons {
		fmt.Fprintln(stderr, "FAILED:", r)
	}
	res, err := out.result(cfg.workload, cfg.trace)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// result renders the outcome for the mode's declared metrics. A metric
// the workload should have produced and did not is an error, and so is
// one it produced that is declared nowhere: the caller prints nothing.
func (o *outcome) result(workload string, trace bool) (*result, error) {
	decls := endToEnd
	if trace {
		decls = perLayer
	}
	res := &result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(decls)),
	}
	o.values["class.failed_ratio"] = float64(o.failed) / float64(max(o.attempted, 1))
	declared := map[string]bool{}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		declared[d.name] = true
	}
	for name := range o.values {
		if !declared[name] {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	for _, d := range decls {
		v, ok := o.values[d.name]
		if !ok && !skipped(workload, d.name) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

func skipped(workload, metric string) bool {
	for _, p := range notExercised[workload] {
		if strings.HasPrefix(metric, p) {
			return true
		}
	}
	return false
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

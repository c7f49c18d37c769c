package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"mpcgraph"
)

// tinySizes run every workload in a few seconds.
var tinySizes = sizes{
	MatchEL: 256, MatchWEL: 256,
	IngestEL: 2048, IngestWEL: 1024,
	Daemon: daemonSizes{
		Workers: 2, MemCache: 2,
		Cold:       []recipe{{"approx-matching", "mpc", "rmat", 64}, {"vertex-cover", "congested-clique", "rmat", 256}},
		Background: []recipe{{"mis", "mpc", "rmat", 256}, {"weighted-matching", "mpc", "weighted-powerlaw", 128}},
		Hot:        hotSet(4, 256),
		HeavyN:     1024, UploadN: 1024,
		ColdRate: 8, BackgroundRate: 4, HitRate: 16, HeavyRate: 4,
	},
}

// TestMain lets the test binary stand in for the benchmark binary when
// a workload spawns its closed-loop child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childCommand {
		if err := runChild(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tinyConfig lays out a checkout root in a temp dir; daemon-mix also
// gets an mpcgraphd built from this module's mpcgraph dependency.
func tinyConfig(t *testing.T, workload string, trace bool) *config {
	t.Helper()
	root := t.TempDir()
	build := filepath.Join(root, ".bench_build")
	work := filepath.Join(build, "run")
	if err := os.MkdirAll(work, 0o755); err != nil {
		t.Fatal(err)
	}
	if workload == "daemon-mix" {
		out, err := exec.Command("go", "build", "-o", filepath.Join(build, "mpcgraphd"), "mpcgraph/cmd/mpcgraphd").CombinedOutput()
		if err != nil {
			t.Fatalf("build mpcgraphd: %v\n%s", err, out)
		}
	}
	return &config{workload: workload, seed: 7, run: 2 * time.Second, trace: trace, root: root, work: work, sizes: tinySizes}
}

func TestTinyRunOfEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				cfg := tinyConfig(t, name, trace)
				out, err := workloads[name](cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := out.result(name, trace)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, out.reasons)
				}
				decls := endToEnd
				if trace {
					decls = perLayer
				}
				if len(res.Metrics) != len(decls) {
					t.Fatalf("%d metrics emitted, %d declared", len(res.Metrics), len(decls))
				}
				for _, d := range decls {
					v := res.Metrics[d.name].Value
					if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
						t.Errorf("%s = %v", d.name, v)
					}
					if !trace && v == 0 {
						t.Errorf("end-to-end metric %s is 0", d.name)
					}
				}
			})
		}
	}
}

// TestInjectedFaultsCountAsFailedOps corrupts one op's payload, or
// drifts its audited costs, and requires the run to count it.
func TestInjectedFaultsCountAsFailedOps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	for _, fault := range []injection{{op: 3, payload: true}, {op: 3, costs: true}} {
		for _, name := range []string{"solve-matching", "ingest-mis", "daemon-mix"} {
			t.Run(fmt.Sprintf("%s/%+v", name, fault), func(t *testing.T) {
				cfg := tinyConfig(t, name, false)
				cfg.inject = fault
				var out *outcome
				var err error
				switch name {
				case "solve-matching":
					out, err = inProcess(t, cfg, matchingLoop, cfg.sizes.MatchEL, cfg.sizes.MatchWEL)
				case "ingest-mis":
					out, err = inProcess(t, cfg, ingestLoop, cfg.sizes.IngestEL, cfg.sizes.IngestWEL)
				default:
					out, err = runDaemonMix(cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				if out.failed == 0 {
					t.Fatalf("injected %+v, run reports no failed op out of %d", fault, out.attempted)
				}
			})
		}
	}
}

// inProcess runs a closed loop in the test process, where the
// injection is visible, on freshly written inputs.
func inProcess(t *testing.T, cfg *config, loop func(*config, string, string) (*outcome, error), nEL, nWEL int) (*outcome, error) {
	t.Helper()
	el, wel := filepath.Join(cfg.work, "g.el"), filepath.Join(cfg.work, "g.wel")
	if err := setupFiles(cfg, newOutcome(), []fileInput{{"rmat", nEL, el}, {"weighted-powerlaw", nWEL, wel}}); err != nil {
		t.Fatal(err)
	}
	return loop(cfg, el, wel)
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric tables of
// this program and BENCHMARK.json identical, names and units.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	table := func(ds []metricDecl) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.name+" "+d.unit)
		}
		sort.Strings(out)
		return out
	}
	decoded := func(ds []struct{ Name, Unit string }) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.Name+" "+d.Unit)
		}
		sort.Strings(out)
		return out
	}
	if got, want := table(endToEnd), decoded(spec.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics:\n program %v\n json    %v", got, want)
	}
	if got, want := table(perLayer), decoded(spec.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics:\n program %v\n json    %v", got, want)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads: json %v, program %v", names, workloadNames())
	}
}

// TestStageSpansTileTheSolve checks the stage attribution on a real
// traced solve: the stage spans cover the solve span exactly, and the
// stage that emits no trace events (boost) still gets its time.
func TestStageSpansTileTheSolve(t *testing.T) {
	in, err := mpcgraph.GenerateScenario("rmat", 512, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(true)
	c := &roundClock{}
	c.start = time.Now()
	rep, err := mpcgraph.Solve(context.Background(), in, mpcgraph.ProblemOnePlusEpsMatching, mpcgraph.Options{Seed: 1, Trace: c.observe})
	end := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	solve := tr.add("matching.solve", 0, 1, c.start, end)
	tr.stageSpans(solve, 1, c, rep.Stages, end)
	var covered float64
	families := map[string]bool{}
	for _, s := range tr.spans {
		if s.Parent == solve {
			covered += s.End - s.Start
			families[s.Name] = true
		}
	}
	total := tr.spans[0].End - tr.spans[0].Start
	if math.Abs(covered-total) > 0.05*total {
		t.Errorf("stage spans cover %.3f ms of a %.3f ms solve", covered, total)
	}
	for _, f := range []string{"stage.invocation", "stage.finish", "stage.boost"} {
		if !families[f] {
			t.Errorf("no %s span among %v", f, families)
		}
	}
}

func TestCheckersRejectBadPayloads(t *testing.T) {
	// Path 0-1-2-3.
	g, err := mpcgraph.FromEdgeList(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"valid MIS", checkMIS(g, []bool{true, false, true, false})},
		{"valid matching", checkMatching(g, []int32{1, 0, 3, 2})},
		{"valid cover", checkCover(g, []bool{false, true, true, false})},
	} {
		if tc.err != nil {
			t.Errorf("%s rejected: %v", tc.name, tc.err)
		}
	}
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"dependent set", checkMIS(g, []bool{true, true, false, true})},
		{"non-maximal set", checkMIS(g, []bool{true, false, false, false})},
		{"asymmetric mates", checkMatching(g, []int32{1, 2, -1, -1})},
		{"non-edge match", checkMatching(g, []int32{3, -1, -1, 0})},
		{"uncovered edge", checkCover(g, []bool{false, true, false, false})},
	} {
		if tc.err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestCPUClocks checks the two clocks op_cost_ref divides: the
// reference kernel's thread CPU time, and a process's CPU time as read
// from /proc, which must grow by about as much while the kernel runs.
func TestCPUClocks(t *testing.T) {
	before, err := processCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceCPU()
	after, err := processCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if ref <= 0 {
		t.Fatalf("reference kernel took %v of CPU", ref)
	}
	if grew := after - before; grew < ref/2 {
		t.Fatalf("process CPU grew by %v while the reference kernel used %v", grew, ref)
	}
}

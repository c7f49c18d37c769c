package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mpcgraph"
	"mpcgraph/internal/graph"
	"mpcgraph/internal/service"
)

// sizes are the input sizes of every workload. The harness tests run
// the same code at tinySizes.
type sizes struct {
	MatchEL, MatchWEL   int // solve-matching: R-MAT and weighted-powerlaw vertex counts
	IngestEL, IngestWEL int // ingest-mis: the same, much larger
	Daemon              daemonSizes
}

var fullSizes = sizes{
	MatchEL: 1 << 14, MatchWEL: 1 << 15,
	IngestEL: 1 << 19, IngestWEL: 1 << 18,
	Daemon: fullDaemon,
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 3

// refNominal is the unit of setup_s: set-up CPU time is scaled to a host
// on which the reference kernel takes refNominal, about its median on
// the 2-vCPU VM the benchmark was built on. The kernel runs just before
// and just after each set-up. setup_s must be in seconds, so it cannot
// be a plain ratio like op_cost_ref.
const refNominal = 80 * time.Millisecond

// atNominal scales CPU time cpu, measured while the reference kernel
// took ref, to a host on which it takes refNominal.
func atNominal(cpu, ref time.Duration) float64 {
	return cpu.Seconds() * refNominal.Seconds() / ref.Seconds()
}

// fileInput is one generated instance written to disk.
type fileInput struct {
	scenario string
	n        int
	path     string
}

// setupFiles generates and writes the inputs setupReps times, the last
// copy staying in place, and records setup_s, scenario.generate_s and
// graphio.write_s as medians over the repetitions. setup_s is CPU time
// on one CPU, at refNominal, for the reasons op_cost_ref is: wall time
// tracks CPU steal on a shared host, idle workers spin on a second CPU,
// and the host's memory contention drifts.
func setupFiles(cfg *config, out *outcome, inputs []fileInput) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var total, walls, gen, write []float64
	for rep := 0; rep < setupReps; rep++ {
		var g, w time.Duration
		ref := referenceCPU()
		// Each set-up starts from a collected heap.
		runtime.GC()
		start, cpu0 := time.Now(), cpuTime()
		for _, f := range inputs {
			t0 := time.Now()
			in, err := mpcgraph.GenerateScenario(f.scenario, f.n, cfg.seed, nil)
			if err != nil {
				return fmt.Errorf("generate %s: %w", f.scenario, err)
			}
			t1 := time.Now()
			if err := mpcgraph.WriteInstanceFile(f.path, in); err != nil {
				return fmt.Errorf("write %s: %w", f.path, err)
			}
			g += t1.Sub(t0)
			w += time.Since(t1)
		}
		cpu := cpuTime() - cpu0
		walls = append(walls, time.Since(start).Seconds())
		ref += referenceCPU()
		total = append(total, atNominal(cpu, ref/2))
		gen = append(gen, g.Seconds())
		write = append(write, w.Seconds())
	}
	out.values["setup_s"] = median(total)
	out.values["scenario.generate_s"] = median(gen)
	out.values["graphio.write_s"] = median(write)
	out.lines = append(out.lines, fmt.Sprintf("setup_s %.4f s of CPU at the nominal reference speed, %.4f s wall (medians of %d set-ups)", median(total), median(walls), setupReps))
	return nil
}

func runSolveMatching(cfg *config) (*outcome, error) {
	return runFileWorkload(cfg, []fileInput{
		{"rmat", cfg.sizes.MatchEL, filepath.Join(cfg.work, "match.el")},
		{"weighted-powerlaw", cfg.sizes.MatchWEL, filepath.Join(cfg.work, "match.wel")},
	})
}

func runIngestMIS(cfg *config) (*outcome, error) {
	return runFileWorkload(cfg, []fileInput{
		{"rmat", cfg.sizes.IngestEL, filepath.Join(cfg.work, "ingest.el")},
		{"weighted-powerlaw", cfg.sizes.IngestWEL, filepath.Join(cfg.work, "ingest.wel")},
	})
}

// runFileWorkload sets up the files, then runs the closed loop in a
// fresh child process so that its peak RSS and CPU time cover the ops
// alone. The child resets VmHWM before each op; peak_rss_mib is the
// median over ops of the op's VmHWM, which a rare late GC cycle does not
// move. op_cost_ref is the median over ops of the op's CPU time over the
// CPU time of the reference kernel run just before each of its solves.
func runFileWorkload(cfg *config, inputs []fileInput) (*outcome, error) {
	out := newOutcome()
	if err := setupFiles(cfg, out, inputs); err != nil {
		return nil, err
	}
	child, err := spawnChild(cfg, inputs[0].path, inputs[1].path)
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed, out.reasons = child.Attempted, child.Failed, child.Reasons
	out.lines = append(out.lines, child.Lines...)
	for k, v := range child.Values {
		out.values[k] = v
	}
	return out, nil
}

// childCommand is the first argument that makes the binary run one
// closed loop and print a childReport.
const childCommand = "closed-loop"

// childReport is what the child prints on stdout.
type childReport struct {
	Attempted, Failed int
	Reasons, Lines    []string
	Values            map[string]float64
}

func spawnChild(cfg *config, el, wel string) (*childReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	sz, err := json.Marshal(cfg.sizes)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, childCommand,
		"-workload", cfg.workload, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-run", cfg.run.String(), "-trace="+strconv.FormatBool(cfg.trace),
		"-el", el, "-wel", wel, "-work", cfg.work, "-sizes", string(sz))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("closed-loop child: %w", err)
	}
	var rep childReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("closed-loop child output: %w", err)
	}
	return &rep, nil
}

func runChild(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(childCommand, flag.ContinueOnError)
	workload := fs.String("workload", "", "")
	seed := fs.Uint64("seed", 1, "")
	run := fs.Duration("run", time.Second, "")
	trace := fs.Bool("trace", false, "")
	el := fs.String("el", "", "")
	wel := fs.String("wel", "", "")
	work := fs.String("work", "", "")
	sz := fs.String("sizes", "", "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := &config{workload: *workload, seed: *seed, run: *run, trace: *trace, work: *work}
	// The loop runs on one CPU, so the process's CPU time is the op's own
	// work: with more, Workers=0 fans out and idle workers spin, and the
	// spinning shrinks when the host is busy. Only the traced run's
	// speedup pair uses every CPU.
	runtime.GOMAXPROCS(1)
	if err := json.Unmarshal([]byte(*sz), &cfg.sizes); err != nil {
		return fmt.Errorf("sizes: %w", err)
	}
	var out *outcome
	var err error
	switch *workload {
	case "solve-matching":
		out, err = matchingLoop(cfg, *el, *wel)
	case "ingest-mis":
		out, err = ingestLoop(cfg, *el, *wel)
	default:
		err = fmt.Errorf("no closed loop for workload %q", *workload)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(childReport{
		Attempted: out.attempted, Failed: out.failed,
		Reasons: out.reasons, Lines: out.lines, Values: out.values,
	})
}

// peakRSSMiB reads VmHWM of /proc/<pid>/status.
func peakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc status")
}

// allocMB is the heap allocated so far, in MB. Reading it stops the
// world, so untraced runs (t == nil) skip it.
func allocMB(t *tracer) float64 {
	if t == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}

// cpuTime is the CPU time this process has used, user plus system, over
// all its threads. The guest kernel leaves out time the hypervisor stole
// from it, so unlike wall time it does not rise when the host is busy.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// solveRun is one read+solve (or read+digest+solve) op's measurements.
type solveRun struct {
	wall     time.Duration // the whole op
	cpu      time.Duration // CPU time the process used during the op
	solve    time.Duration // Solve alone
	readMB   float64       // bytes allocated while reading
	solveMB  float64       // bytes allocated while solving
	result   *opResult
	instance mpcgraph.Instance
	digest   string
}

// freshHeap returns freed memory to the OS and resets the process's
// peak RSS, so that the next op neither pays for the previous op's heap
// nor inherits its VmHWM.
func freshHeap() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// maxPeak returns the larger of peak and the VmHWM since freshHeap.
func maxPeak(peak float64) (float64, error) {
	rss, err := peakRSSMiB("self")
	return max(peak, rss), err
}

// timedSolve reads path, digests the instance when asked, and solves p
// on it. Callers run freshHeap first. With a tracer it records read,
// digest, solve and per-stage spans under op, and the bytes allocated.
func timedSolve(cfg *config, t *tracer, op int, path string, p mpcgraph.Problem, digest bool, workers int) (*solveRun, error) {
	r := &solveRun{}
	readSpan := "graphio.read_el"
	if strings.HasSuffix(path, ".wel") {
		readSpan = "graphio.read_wel"
	}
	start, cpu0 := time.Now(), cpuTime()
	a0 := allocMB(t)
	_, err := t.time(readSpan, 0, op, func() (err error) {
		r.instance, err = mpcgraph.ReadInstanceFile(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.readMB = allocMB(t) - a0
	if digest {
		if _, err := t.time("service.digest", 0, op, func() (err error) {
			r.digest, err = service.InstanceDigest(r.instance)
			return err
		}); err != nil {
			return nil, err
		}
	}
	opts := mpcgraph.Options{Seed: cfg.seed, Workers: workers}
	clock := &roundClock{}
	if t != nil {
		opts.Trace = clock.observe
	}
	a1 := allocMB(t)
	clock.start = time.Now()
	rep, err := mpcgraph.Solve(context.Background(), r.instance, p, opts)
	end, cpu1 := time.Now(), cpuTime()
	if err != nil {
		return nil, err
	}
	r.wall, r.solve, r.cpu = end.Sub(start), end.Sub(clock.start), cpu1-cpu0
	r.solveMB = allocMB(t) - a1
	if t != nil {
		solveSpan := t.add(solveSpanName(p), 0, op, clock.start, end)
		t.stageSpans(solveSpan, op, clock, rep.Stages, end)
	}
	r.result = resultOf(rep)
	return r, nil
}

func solveSpanName(p mpcgraph.Problem) string {
	if p == mpcgraph.ProblemMIS {
		return "mis.solve"
	}
	return "matching.solve"
}

// check validates one op's payload and holds its audited costs to the
// first op of the same key.
func check(cfg *config, l *ledger, op int, key string, r *solveRun) error {
	if cfg.inject.op == op {
		cfg.inject.result(r.result)
	}
	if err := validate(r.instance, r.result); err != nil {
		return err
	}
	fp := r.result.fingerprint()
	if r.digest != "" {
		fp += " digest=" + r.digest
	}
	return l.same(key, fp)
}

var matchingProblems = []mpcgraph.Problem{
	mpcgraph.ProblemApproxMatching,
	mpcgraph.ProblemOnePlusEpsMatching,
	mpcgraph.ProblemVertexCover,
	mpcgraph.ProblemWeightedMatching,
}

// classOf names the per-class metric of each solve-matching problem.
var classOf = map[mpcgraph.Problem]string{
	mpcgraph.ProblemApproxMatching:     "class.approx_matching_s",
	mpcgraph.ProblemOnePlusEpsMatching: "class.one_plus_eps_s",
	mpcgraph.ProblemVertexCover:        "class.vertex_cover_s",
	mpcgraph.ProblemWeightedMatching:   "class.weighted_matching_s",
}

// matchingLoop is the solve-matching closed loop: passes of read+solve
// for the three unweighted matching-family problems on the .el file and
// weighted matching on the .wel file, until the run time is used. A
// traced pass also solves each problem untraced (for the trace
// overhead), and with Workers=0 and Workers=1 on every CPU (for the
// parallel speedup); every one of those results must equal the others.
func matchingLoop(cfg *config, el, wel string) (*outcome, error) {
	out := newOutcome()
	t := newTracer(cfg.trace)
	var passes, cpuPasses, refs, costs []float64
	class := map[mpcgraph.Problem][]float64{}
	var traced, untraced time.Duration
	w0, w1 := map[mpcgraph.Problem][]float64{}, map[mpcgraph.Problem][]float64{}
	var solveAlloc, readAlloc, peaks []float64
	var maxWords int64
	invRounds := 0
	deadline := time.Now().Add(cfg.run)
	op := 0
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		var passWall, passCPU, passRef time.Duration
		var passSolveMB, passReadMB, passPeak float64
		for _, p := range matchingProblems {
			path := el
			if p == mpcgraph.ProblemWeightedMatching {
				path = wel
			}
			op++
			ref := referenceCPU()
			if err := freshHeap(); err != nil {
				return nil, err
			}
			r, err := timedSolve(cfg, t, pass, path, p, false, 0)
			if err == nil {
				passPeak, err = maxPeak(passPeak)
			}
			if err == nil {
				err = check(cfg, &out.ledger, op, p.String(), r)
			}
			out.settle(fmt.Sprintf("pass %d %s", pass, p), err)
			if err != nil {
				continue
			}
			passWall += r.wall
			passCPU += r.cpu
			passRef += ref
			passSolveMB += r.solveMB
			if path == el {
				passReadMB += r.readMB
			}
			class[p] = append(class[p], r.wall.Seconds())
			maxWords = max(maxWords, r.result.costs.MaxMachineWords)
			if pass == 0 {
				invRounds += stageRounds(r.result.costs.Stages, "invocation")
			}
			out.values["matching.rounds."+p.String()] = float64(r.result.costs.Rounds)
			out.values["matching.words."+p.String()] = float64(r.result.costs.TotalWords)
			if !cfg.trace {
				continue
			}
			traced += r.wall
			// The untraced twin runs like the traced op, on one CPU. The
			// speedup pair runs on every CPU, where Workers=0 fans out.
			for _, v := range []struct{ procs, workers int }{{1, 0}, {runtime.NumCPU(), 0}, {runtime.NumCPU(), 1}} {
				op++
				if err := freshHeap(); err != nil {
					return nil, err
				}
				procs := runtime.GOMAXPROCS(v.procs)
				u, err := timedSolve(cfg, nil, pass, path, p, false, v.workers)
				runtime.GOMAXPROCS(procs)
				if err == nil {
					err = check(cfg, &out.ledger, op, p.String(), u)
				}
				out.settle(fmt.Sprintf("pass %d %s untraced procs=%d workers=%d", pass, p, v.procs, v.workers), err)
				switch {
				case err != nil:
				case v.procs == 1:
					untraced += u.wall
				case v.workers == 0:
					w0[p] = append(w0[p], u.solve.Seconds())
				default:
					w1[p] = append(w1[p], u.solve.Seconds())
				}
			}
		}
		passes = append(passes, float64(passWall)/float64(time.Millisecond))
		cpuPasses = append(cpuPasses, float64(passCPU)/float64(time.Millisecond))
		refs = append(refs, float64(passRef)/float64(len(matchingProblems))/float64(time.Millisecond))
		costs = append(costs, passCPU.Seconds()/passRef.Seconds())
		peaks = append(peaks, passPeak)
		solveAlloc = append(solveAlloc, passSolveMB)
		readAlloc = append(readAlloc, passReadMB)
	}
	out.values["op_cost_ref"] = median(costs)
	out.values["bench.ref_cpu_ms"] = median(refs)
	out.values["peak_rss_mib"] = median(peaks)
	out.lines = append(out.lines, fmt.Sprintf("op_cost_ref %.3f ref: pass CPU %.1f ms, wall %.1f ms, reference CPU %.2f ms (medians of %d passes)",
		median(costs), median(cpuPasses), median(passes), median(refs), len(passes)))
	for _, p := range matchingProblems {
		out.values[classOf[p]] = median(class[p])
		out.lines = append(out.lines, fmt.Sprintf("%s %.4f s (median of %d)", strings.TrimPrefix(classOf[p], "class."), median(class[p]), len(class[p])))
	}
	out.values["mpc.max_machine_words"] = float64(maxWords)
	out.values["matching.alloc_mb"] = median(solveAlloc)
	if cfg.trace {
		for _, p := range matchingProblems {
			out.values["par.speedup."+p.String()] = median(w1[p]) / median(w0[p])
		}
		out.values["bench.trace_overhead"] = traced.Seconds() / untraced.Seconds()
		out.values["graphio.read_alloc_mb"] = median(readAlloc)
		layerMetrics(out, t, el, 3)
		// Every pass charges the same invocation rounds: costs repeat
		// exactly across passes.
		out.values["matching.round_us"] = out.values["matching.invocation_s"] * 1e6 / float64(invRounds)
	}
	return out, writeTrace(cfg, t)
}

// writeTrace saves the spans next to the run's scratch directory, where
// they outlive the run.
func writeTrace(cfg *config, t *tracer) error {
	return t.write(filepath.Join(filepath.Dir(cfg.work), fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed)))
}

func stageRounds(stages []mpcgraph.StageCost, family string) int {
	n := 0
	for _, st := range stages {
		if stageFamily(st.Name) == family {
			n += st.Rounds
		}
	}
	return n
}

// layerMetrics turns the spans into per-layer metrics: for each layer,
// the median over ops of the layer's total time in the op. elReads is
// the number of .el reads per op.
func layerMetrics(out *outcome, t *tracer, el string, elReads int) {
	for span, metric := range map[string]string{
		"graphio.read_el":   "graphio.read_el_s",
		"graphio.read_wel":  "graphio.read_wel_s",
		"service.digest":    "service.digest_s",
		"mis.solve":         "mis.solve_s",
		"stage.prefix":      "mis.prefix_s",
		"stage.gather":      "mis.gather_s",
		"stage.invocation":  "matching.invocation_s",
		"stage.finish":      "matching.finish_s",
		"stage.boost":       "matching.boost_s",
		"stage.phase":       "matching.phase_s",
		"stage.direct":      "matching.direct_s",
		"stage.improvement": "matching.improvement_s",
	} {
		// A layer that never ran in this workload's ops (MIS gathers
		// everything on one machine below its prefix threshold) took 0 s.
		out.values[metric] = 0
		if d := t.perOp(span); len(d) > 0 {
			out.values[metric] = median(seconds(d))
		}
	}
	if st, err := os.Stat(el); err == nil && out.values["graphio.read_el_s"] > 0 {
		out.values["graphio.read_el_mb_per_s"] = float64(elReads) * float64(st.Size()) / 1e6 / out.values["graphio.read_el_s"]
	}
}

// ingestLoop is the ingest-mis closed loop: each op reads, digests and
// solves MIS on the .el file and then on the .wel file. A traced run
// repeats each op untraced (for the trace overhead) and rebuilds the
// .el graph with graph.Builder (for graph.build_s).
func ingestLoop(cfg *config, el, wel string) (*outcome, error) {
	out := newOutcome()
	t := newTracer(cfg.trace)
	var ops, opsCPU, refs, costs, elWall, welWall, build, readAlloc, peaks []float64
	var traced, untraced time.Duration
	deadline := time.Now().Add(cfg.run)
	for op := 0; op == 0 || time.Now().Before(deadline); op++ {
		var opWall, opCPU, opRef time.Duration
		ok := true
		var opPeak float64
		for _, path := range []string{el, wel} {
			ref := referenceCPU()
			if err := freshHeap(); err != nil {
				return nil, err
			}
			r, err := timedSolve(cfg, t, op, path, mpcgraph.ProblemMIS, true, 0)
			if err == nil {
				opPeak, err = maxPeak(opPeak)
			}
			if err == nil {
				err = check(cfg, &out.ledger, op, path, r)
			}
			out.settle(fmt.Sprintf("op %d %s", op, filepath.Base(path)), err)
			if err != nil {
				ok = false
				continue
			}
			opWall += r.wall
			opCPU += r.cpu
			opRef += ref
			if path == el {
				elWall = append(elWall, r.wall.Seconds())
				out.values["mis.rounds"] = float64(r.result.costs.Rounds)
				out.values["mis.words"] = float64(r.result.costs.TotalWords)
				out.values["mpc.max_machine_words"] = float64(r.result.costs.MaxMachineWords)
			} else {
				welWall = append(welWall, r.wall.Seconds())
			}
			if !cfg.trace {
				continue
			}
			traced += r.wall
			if err := freshHeap(); err != nil {
				return nil, err
			}
			u, err := timedSolve(cfg, nil, op, path, mpcgraph.ProblemMIS, true, 0)
			if err == nil {
				err = check(cfg, &out.ledger, op, path, u)
			}
			out.settle(fmt.Sprintf("op %d %s untraced", op, filepath.Base(path)), err)
			if err != nil {
				continue
			}
			untraced += u.wall
			if path == el {
				readAlloc = append(readAlloc, r.readMB)
				d, err := timeBuild(r.instance)
				out.settle(fmt.Sprintf("op %d rebuild", op), err)
				build = append(build, d.Seconds())
			}
		}
		if ok {
			ops = append(ops, float64(opWall)/float64(time.Millisecond))
			opsCPU = append(opsCPU, float64(opCPU)/float64(time.Millisecond))
			refs = append(refs, float64(opRef)/2/float64(time.Millisecond))
			costs = append(costs, opCPU.Seconds()/opRef.Seconds())
			peaks = append(peaks, opPeak)
		}
	}
	out.values["op_cost_ref"] = median(costs)
	out.values["bench.ref_cpu_ms"] = median(refs)
	out.values["peak_rss_mib"] = median(peaks)
	out.values["class.el_ingest_s"] = median(elWall)
	out.values["class.wel_ingest_s"] = median(welWall)
	out.lines = append(out.lines,
		fmt.Sprintf("op_cost_ref %.3f ref: op CPU %.1f ms, wall %.1f ms, reference CPU %.2f ms (medians of %d ops)",
			median(costs), median(opsCPU), median(ops), median(refs), len(ops)),
		fmt.Sprintf("el_ingest_s %.4f s, wel_ingest_s %.4f s (medians of %d, %d)", median(elWall), median(welWall), len(elWall), len(welWall)))
	if cfg.trace {
		out.values["bench.trace_overhead"] = traced.Seconds() / untraced.Seconds()
		out.values["graph.build_s"] = median(build)
		out.values["graphio.read_alloc_mb"] = median(readAlloc)
		layerMetrics(out, t, el, 1)
	}
	return out, writeTrace(cfg, t)
}

// timeBuild feeds the graph's edges, in the order the .el file lists
// them, to a fresh graph.Builder and times Build alone.
func timeBuild(in mpcgraph.Instance) (time.Duration, error) {
	g, _ := graphOf(in)
	b := graph.NewBuilderCap(g.NumVertices(), g.NumEdges())
	g.ForEachEdge(b.AddEdge)
	start := time.Now()
	h, err := b.Build()
	d := time.Since(start)
	if err == nil && (h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges()) {
		err = fmt.Errorf("rebuilt graph has n=%d m=%d, read graph n=%d m=%d", h.NumVertices(), h.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	return d, err
}

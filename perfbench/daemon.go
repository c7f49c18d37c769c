package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mpcgraph"
	"mpcgraph/internal/obs"
	"mpcgraph/internal/service"
)

// recipe is one scenario-generated job: the instance recipe and the
// (problem, model) to solve on it.
type recipe struct {
	Problem, Model, Scenario string
	N                        int
}

// daemonSizes fix the daemon-mix traffic: what each class submits and
// how often. Rates are arrivals per second of a seeded schedule.
type daemonSizes struct {
	Workers    int      // daemon -workers; each job runs single-threaded (-job-workers 1)
	MemCache   int      // daemon -cache, smaller than the hot set
	Cold       []recipe // unique-seed misses of similar solve cost
	Background []recipe // cheap unique-seed misses riding along
	Hot        []recipe // the hot set, warmed at set-up, resubmitted as hits
	HeavyN     int      // R-MAT recipe resubmitted as a heavy hit
	UploadN    int      // R-MAT whose .el upload is resubmitted as a heavy hit

	ColdRate, BackgroundRate, HitRate, HeavyRate float64
}

// fullDaemon sizes the cold class so every (problem, model) takes about
// the same time under this load on a 2-CPU host, and the two heavy kinds
// so their resolve steps cost about the same, keeping each class
// unimodal.
var fullDaemon = daemonSizes{
	Workers:  2,
	MemCache: 8,
	Cold: []recipe{
		{"approx-matching", "mpc", "rmat", 1024},
		{"approx-matching", "congested-clique", "rmat", 1280},
		{"one-plus-eps-matching", "mpc", "rmat", 1024},
		{"one-plus-eps-matching", "congested-clique", "rmat", 1152},
		{"vertex-cover", "mpc", "rmat", 7168},
		{"vertex-cover", "congested-clique", "rmat", 8192},
	},
	Background: []recipe{
		{"mis", "mpc", "rmat", 4096},
		{"maximal-matching", "mpc", "rmat", 4096},
		{"maximal-matching", "congested-clique", "rmat", 4096},
		{"weighted-matching", "mpc", "weighted-powerlaw", 2048},
	},
	Hot:     hotSet(16, 4096),
	HeavyN:  1 << 15,
	UploadN: 40960,

	ColdRate: 5, BackgroundRate: 2, HitRate: 16, HeavyRate: 1,
}

// hotSet is k cheap R-MAT jobs on n vertices cycling through four pairs.
func hotSet(k, n int) []recipe {
	pairs := [][2]string{{"mis", "mpc"}, {"maximal-matching", "mpc"}, {"mis", "congested-clique"}, {"maximal-matching", "congested-clique"}}
	out := make([]recipe, k)
	for i := range out {
		out[i] = recipe{pairs[i%len(pairs)][0], pairs[i%len(pairs)][1], "rmat", n}
	}
	return out
}

// Seed ranges keep every class's scenario seeds disjoint, so a cold job
// never hits the hot set and no two cold jobs share a key.
const (
	hotSeedBase    = 1 << 40
	heavySeedBase  = 2 << 40
	coldSeedBase   = 3 << 40
	perRunSeedSpan = 1 << 20
)

// arrival is one scheduled submission.
type arrival struct {
	class  string // cold, background, hit, heavy
	at     time.Duration
	body   []byte // the POST body
	ref    int    // hit and heavy: index of the warm original
	recipe recipe
	seed   uint64 // scenario and solve seed of scenario jobs
}

// sample is what the client saw of one arrival.
type sample struct {
	arrival *arrival
	lag     time.Duration // pickup minus scheduled time
	post    time.Duration // POST round trip
	latency time.Duration // scheduled time to the terminal state observed
	status  int
	view    *service.JobView
	err     error
	traced  bool
}

// daemon is a running mpcgraphd.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan error // receives cmd.Wait's result once
}

func startDaemon(cfg *config, cacheDir string) (*daemon, error) {
	bin := filepath.Join(cfg.root, ".bench_build", "mpcgraphd")
	d := cfg.sizes.Daemon
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cache-dir", cacheDir,
		"-cache", strconv.Itoa(d.MemCache), "-workers", strconv.Itoa(d.Workers),
		"-job-workers", "1", "-log-level", "warn")
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mpcgraphd: %w", err)
	}
	dm := &daemon{cmd: cmd, done: make(chan error, 1)}
	lines := bufio.NewScanner(stdout)
	if lines.Scan() {
		_, dm.url, _ = strings.Cut(lines.Text(), "listening on ")
	}
	// Keep draining stdout so the daemon never blocks on a full pipe;
	// the goroutine ends when the daemon closes its end at exit.
	go func() {
		_, _ = io.Copy(io.Discard, stdout)
		dm.done <- cmd.Wait()
	}()
	if !strings.HasPrefix(dm.url, "http://") {
		dm.kill()
		return nil, fmt.Errorf("mpcgraphd did not report its address")
	}
	return dm, nil
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// drain sends SIGTERM and requires a clean exit.
func (d *daemon) drain() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("SIGTERM: %w", err)
	}
	select {
	case err := <-d.done:
		if err != nil {
			return fmt.Errorf("mpcgraphd drain: %w", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("mpcgraphd did not exit within 60s of SIGTERM")
	}
}

// client talks to one daemon over at most nproc connections.
type client struct {
	http *http.Client
	url  string
}

func newClient(url string) *client {
	procs := runtime.NumCPU()
	return &client{url: url, http: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     procs,
			MaxIdleConnsPerHost: procs,
		},
	}}
}

func (c *client) post(body []byte) (int, *service.JobView, error) {
	resp, err := c.http.Post(c.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusCreated {
		return resp.StatusCode, nil, fmt.Errorf("POST /v1/jobs: %d %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var v service.JobView
	if err := json.Unmarshal(b, &v); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, &v, nil
}

// close drops the client's idle connections. The transport may have
// dialed a connection that never carried a request. net/http's Shutdown
// treats such a connection as busy for its first 5 s, and mpcgraphd
// gives Shutdown 5 s before it exits 1, so a finished client closes its
// connections before the drain.
func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func (c *client) view(id string) (*service.JobView, error) {
	b, err := c.get("/v1/jobs/" + id)
	if err != nil {
		return nil, err
	}
	var v service.JobView
	return &v, json.Unmarshal(b, &v)
}

func (c *client) metrics() (*obs.Exposition, error) {
	b, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	return obs.ParseExposition(bytes.NewReader(b))
}

func terminal(s service.JobState) bool {
	return s == service.StateDone || s == service.StateFailed || s == service.StateCanceled
}

// wait polls until the job is terminal, for at most jobDeadline.
func (c *client) wait(id string) (*service.JobView, error) {
	for start := time.Now(); time.Since(start) < jobDeadline; time.Sleep(2 * time.Millisecond) {
		v, err := c.view(id)
		if err != nil || terminal(v.State) {
			return v, err
		}
	}
	return nil, fmt.Errorf("job %s not terminal after %v", id, jobDeadline)
}

func scenarioBody(r recipe, seed uint64) []byte {
	b, _ := json.Marshal(service.JobRequest{
		Problem: r.Problem, Model: r.Model,
		Scenario: &service.ScenarioRequest{Name: r.Scenario, N: r.N, Seed: seed},
		Options:  service.OptionsRequest{Seed: seed},
	})
	return b
}

// warm is the set-up's record of each hot and heavy original.
type warm struct {
	bodies  [][]byte
	recipes []recipe
	seeds   []uint64
	views   []*service.JobView
	upload  mpcgraph.Instance // the uploaded instance, for verification
}

// setupDaemon boots a daemon on an empty cache directory and warms the
// hot set and the heavy originals. The upload file is generated and
// written here too: that is the set-up's own generate and write work.
func setupDaemon(cfg *config, dir string) (*daemon, *warm, time.Duration, time.Duration, error) {
	d := cfg.sizes.Daemon
	var gen, write time.Duration
	t0 := time.Now()
	upSeed := heavySeedBase + cfg.seed + 1
	up, err := mpcgraph.GenerateScenario("rmat", d.UploadN, upSeed, nil)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	t1 := time.Now()
	path := filepath.Join(dir, "upload.el")
	if err := mpcgraph.WriteInstanceFile(path, up); err != nil {
		return nil, nil, 0, 0, err
	}
	gen, write = t1.Sub(t0), time.Since(t1)
	content, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	dm, err := startDaemon(cfg, filepath.Join(dir, "cache"))
	if err != nil {
		return nil, nil, 0, 0, err
	}
	w := &warm{upload: up}
	for i, r := range d.Hot {
		w.recipes = append(w.recipes, r)
		w.seeds = append(w.seeds, hotSeedBase+cfg.seed*perRunSeedSpan+uint64(i))
	}
	// The two heavy originals close the list: the recipe, then the upload
	// (a recipe without a scenario).
	w.recipes = append(w.recipes, recipe{"mis", "mpc", "rmat", d.HeavyN}, recipe{"mis", "mpc", "", d.UploadN})
	w.seeds = append(w.seeds, heavySeedBase+cfg.seed, upSeed)
	for i, r := range w.recipes {
		body := scenarioBody(r, w.seeds[i])
		if r.Scenario == "" {
			body, _ = json.Marshal(service.JobRequest{
				Problem: r.Problem, Model: r.Model,
				Graph:   &service.GraphRequest{Format: "el", Content: string(content)},
				Options: service.OptionsRequest{Seed: w.seeds[i]},
			})
		}
		w.bodies = append(w.bodies, body)
	}
	c := newClient(dm.url)
	defer c.close()
	for _, body := range w.bodies {
		_, v, err := c.post(body)
		if err == nil && !terminal(v.State) {
			v, err = c.wait(v.ID)
		}
		if err == nil && v.State != service.StateDone {
			err = fmt.Errorf("warm-up job %s ended %s: %s", v.ID, v.State, v.Error)
		}
		if err != nil {
			dm.kill()
			return nil, nil, 0, 0, fmt.Errorf("warm-up: %w", err)
		}
		w.views = append(w.views, v)
	}
	return dm, w, gen, write, nil
}

// schedule draws the open-loop arrivals of every class from the seed.
func schedule(cfg *config, w *warm) []*arrival {
	d := cfg.sizes.Daemon
	var out []*arrival
	coldSeed := coldSeedBase + cfg.seed*perRunSeedSpan
	// Each class gets exactly rate x run arrivals at uniformly drawn
	// instants: a Poisson process conditioned on its count, so the
	// offered load, and the daemon's retained state, is the same for
	// every seed.
	add := func(class string, rate float64, stream uint64, mk func(rnd *rand.Rand) *arrival) {
		rnd := rand.New(rand.NewPCG(cfg.seed, stream))
		n := int(math.Round(rate * cfg.run.Seconds()))
		for i := 0; i < n; i++ {
			a := mk(rnd)
			a.class, a.at = class, time.Duration(rnd.Float64()*float64(cfg.run))
			out = append(out, a)
		}
	}
	fresh := func(kinds []recipe) func(*rand.Rand) *arrival {
		return func(rnd *rand.Rand) *arrival {
			r := kinds[rnd.IntN(len(kinds))]
			coldSeed++
			return &arrival{recipe: r, seed: coldSeed, body: scenarioBody(r, coldSeed)}
		}
	}
	pick := func(lo, hi int) func(*rand.Rand) *arrival {
		return func(rnd *rand.Rand) *arrival {
			i := lo + rnd.IntN(hi-lo)
			return &arrival{ref: i, body: w.bodies[i]}
		}
	}
	hot := len(d.Hot)
	add("cold", d.ColdRate, 1, fresh(d.Cold))
	add("background", d.BackgroundRate, 2, fresh(d.Background))
	add("hit", d.HitRate, 3, pick(0, hot))
	add("heavy", d.HeavyRate, 4, pick(hot, hot+2))
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// pending is a submitted job not yet seen terminal.
type pending struct {
	i        int
	s        *sample
	id       string
	nextPoll time.Time
	busy     bool // a worker is polling it
}

// loadGen runs the open loop: nproc workers take each arrival when it
// is due, whatever is still outstanding, and in between poll the
// outstanding jobs until they are terminal.
type loadGen struct {
	c       *client
	t       *tracer
	start   time.Time
	mu      sync.Mutex
	next    int
	arr     []*arrival
	samples []*sample
	out     []*pending
}

// pollEvery is how often an outstanding job is polled; it bounds how
// late a terminal state is observed.
const pollEvery = 4 * time.Millisecond

// jobDeadline fails a job the client has not seen terminal this long
// after its scheduled time.
const jobDeadline = 60 * time.Second

func (g *loadGen) run(workers int) {
	g.start = time.Now()
	g.samples = make([]*sample, len(g.arr))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.worker()
		}()
	}
	wg.Wait()
}

func (g *loadGen) worker() {
	for {
		g.mu.Lock()
		now := time.Now()
		if g.next < len(g.arr) && !g.start.Add(g.arr[g.next].at).After(now) {
			i := g.next
			g.next++
			g.mu.Unlock()
			g.submit(i, now)
			continue
		}
		var due *pending
		wake := now.Add(time.Millisecond)
		if g.next < len(g.arr) {
			wake = g.start.Add(g.arr[g.next].at)
		}
		for _, p := range g.out {
			if p.busy {
				continue
			}
			if !p.nextPoll.After(now) {
				due = p
				break
			}
			if p.nextPoll.Before(wake) {
				wake = p.nextPoll
			}
		}
		if due != nil {
			due.busy = true
			g.mu.Unlock()
			g.poll(due)
			continue
		}
		idle := g.next == len(g.arr) && len(g.out) == 0
		g.mu.Unlock()
		if idle {
			return
		}
		time.Sleep(min(time.Until(wake), time.Millisecond))
	}
}

func (g *loadGen) submit(i int, picked time.Time) {
	a := g.arr[i]
	due := g.start.Add(a.at)
	s := &sample{arrival: a, lag: picked.Sub(due), traced: g.t != nil && i%2 == 0}
	g.samples[i] = s
	t := g.t
	if !s.traced {
		t = nil
	}
	var v *service.JobView
	var err error
	s.post, _ = t.time("http.post", 0, i, func() error {
		s.status, v, err = g.c.post(a.body)
		return nil
	})
	if err != nil {
		s.err = err
		return
	}
	if terminal(v.State) {
		s.view, s.latency = v, time.Since(due)
		t.add("job."+a.class, 0, i, due, time.Now())
		return
	}
	g.mu.Lock()
	g.out = append(g.out, &pending{i: i, s: s, id: v.ID, nextPoll: time.Now().Add(pollEvery)})
	g.mu.Unlock()
}

func (g *loadGen) poll(p *pending) {
	s, i := p.s, p.i
	due := g.start.Add(s.arrival.at)
	t := g.t
	if !s.traced {
		t = nil
	}
	var v *service.JobView
	var err error
	_, _ = t.time("http.poll", 0, i, func() error {
		v, err = g.c.view(p.id)
		return nil
	})
	now := time.Now()
	finished := true
	switch {
	case err != nil:
		s.err = err
	case terminal(v.State):
		s.view, s.latency = v, now.Sub(due)
		t.add("job."+s.arrival.class, 0, i, due, now)
	case now.Sub(due) > jobDeadline:
		s.err = fmt.Errorf("job %s not terminal %v after its scheduled time", p.id, jobDeadline)
	default:
		finished = false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	p.busy = false
	if !finished {
		p.nextPoll = now.Add(pollEvery)
		return
	}
	for k, q := range g.out {
		if q == p {
			g.out = append(g.out[:k], g.out[k+1:]...)
			break
		}
	}
}

func runDaemonMix(cfg *config) (*outcome, error) {
	out := newOutcome()
	var setups, walls, gens, writes []float64
	var dm *daemon
	var w *warm
	for rep := 0; rep < setupReps; rep++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("daemon-%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		// Set-up is charged as in setupFiles: the CPU time of the client,
		// on one CPU, and of the daemon's whole life so far.
		ref := referenceCPU()
		procs := runtime.GOMAXPROCS(1)
		start, cpu0 := time.Now(), cpuTime()
		d, wm, gen, write, err := setupDaemon(cfg, dir)
		clientCPU := cpuTime() - cpu0
		runtime.GOMAXPROCS(procs)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(start).Seconds())
		daemonCPU, err := processCPU(d.cmd.Process.Pid)
		if err != nil {
			d.kill()
			return nil, err
		}
		ref += referenceCPU()
		setups = append(setups, atNominal(clientCPU+daemonCPU, ref/2))
		gens, writes = append(gens, gen.Seconds()), append(writes, write.Seconds())
		if rep < setupReps-1 {
			if err := d.drain(); err != nil {
				return nil, err
			}
			continue
		}
		dm, w = d, wm
	}
	out.values["setup_s"] = median(setups)
	out.values["scenario.generate_s"] = median(gens)
	out.values["graphio.write_s"] = median(writes)
	out.lines = append(out.lines, fmt.Sprintf("setup_s %.4f s of CPU at the nominal reference speed, %.4f s wall (medians of %d set-ups)", median(setups), median(walls), setupReps))

	c := newClient(dm.url)
	before, err := c.metrics()
	if err != nil {
		dm.kill()
		return nil, err
	}
	g := &loadGen{c: c, t: newTracer(cfg.trace), arr: schedule(cfg, w)}
	cpu0, err := processCPU(dm.cmd.Process.Pid)
	if err != nil {
		dm.kill()
		return nil, err
	}
	stop, sampled := make(chan struct{}), make(chan []float64, 1)
	go func() { sampled <- sampleReference(stop) }()
	g.run(runtime.NumCPU())
	close(stop)
	refs := <-sampled
	cpu1, err := processCPU(dm.cmd.Process.Pid)
	if err != nil {
		dm.kill()
		return nil, err
	}
	after, err := c.metrics()
	if err != nil {
		dm.kill()
		return nil, err
	}
	perArrival := float64(cpu1-cpu0) / float64(time.Millisecond) / float64(len(g.arr))
	out.values["op_cost_ref"] = perArrival / median(refs)
	out.values["bench.ref_cpu_ms"] = median(refs)
	out.lines = append(out.lines, fmt.Sprintf("op_cost_ref %.4f ref: daemon CPU %.3f ms per arrival (%.2f s over %d), reference CPU %.2f ms (median of %d)",
		out.values["op_cost_ref"], perArrival, (cpu1-cpu0).Seconds(), len(g.arr), median(refs), len(refs)))
	rss, rssErr := peakRSSMiB(strconv.Itoa(dm.cmd.Process.Pid))

	if err := verifySamples(cfg, c, w, g.samples, &out.ledger); err != nil {
		dm.kill()
		return nil, err
	}
	if err := crossCheck(g.samples, before, after); err != nil {
		out.fault(err)
	}
	c.close()
	if err := dm.drain(); err != nil {
		out.fault(err)
	}
	if rssErr != nil {
		return nil, rssErr
	}
	out.values["peak_rss_mib"] = rss
	daemonMetrics(cfg, out, w, g, before, after)
	return out, writeTrace(cfg, g.t)
}

// refEvery is how often the client runs the reference kernel while the
// open loop runs; each run takes a few percent of one CPU's second.
const refEvery = time.Second

// sampleReference runs the reference kernel at once and then every
// refEvery until stop is closed, and returns its CPU times in ms.
func sampleReference(stop <-chan struct{}) []float64 {
	var refs []float64
	for {
		refs = append(refs, float64(referenceCPU())/float64(time.Millisecond))
		select {
		case <-stop:
			return refs
		case <-time.After(refEvery):
		}
	}
}

// clockTicks is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux architecture Go supports).
const clockTicks = 100

// processCPU is the CPU time process pid has used, user plus system,
// over all its threads, with stolen time left out as in cpuTime.
func processCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, fmt.Errorf("process CPU: %w", err)
	}
	// The command name may hold spaces; the fields after it do not.
	// utime and stime are fields 14 and 15, the 12th and 13th after it.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("process CPU: short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("process CPU: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// verifySamples settles every arrival: computed jobs are checked
// against an instance regenerated here, hits and heavy hits against
// their warm originals, which are themselves checked first.
func verifySamples(cfg *config, c *client, w *warm, samples []*sample, l *ledger) error {
	origins := make([]string, len(w.views))
	for i, v := range w.views {
		in, err := w.instance(i)
		if err != nil {
			return err
		}
		if err := verifyComputed(c, in, v, w.recipes[i].Problem, w.recipes[i].Model, w.seeds[i]); err != nil {
			return fmt.Errorf("warm original %d: %w", i, err)
		}
		origins[i] = wireFingerprint(v)
	}
	for i, s := range samples {
		err := s.err
		if err == nil && s.view.Report != nil && cfg.inject.op == i {
			cfg.inject.view(s.view.Report)
		}
		if err == nil && s.view.State != service.StateDone {
			err = fmt.Errorf("job %s ended %s: %s", s.view.ID, s.view.State, s.view.Error)
		}
		if err == nil {
			switch a := s.arrival; a.class {
			case "cold", "background":
				var in mpcgraph.Instance
				in, err = mpcgraph.GenerateScenario(a.recipe.Scenario, a.recipe.N, a.seed, nil)
				if err == nil && s.view.CacheHit {
					err = fmt.Errorf("job %s: a unique-seed job hit the cache", s.view.ID)
				}
				if err == nil {
					err = verifyComputed(c, in, s.view, a.recipe.Problem, a.recipe.Model, a.seed)
				}
			default:
				if !s.view.CacheHit {
					err = fmt.Errorf("job %s: a resubmission missed the cache", s.view.ID)
				} else if fp := wireFingerprint(s.view); fp != origins[a.ref] {
					err = fmt.Errorf("job %s differs from its warm original:\n  original %s\n  this     %s", s.view.ID, origins[a.ref], fp)
				}
			}
		}
		l.settle(fmt.Sprintf("%s arrival %d", s.arrival.class, i), err)
	}
	return nil
}

// instance regenerates warm original i.
func (w *warm) instance(i int) (mpcgraph.Instance, error) {
	r := w.recipes[i]
	if r.Scenario == "" {
		return w.upload, nil
	}
	return mpcgraph.GenerateScenario(r.Scenario, r.N, w.seeds[i], nil)
}

// wireFingerprint is a job's cache key and report with wallMs cleared:
// everything a hit must reproduce from its original.
func wireFingerprint(v *service.JobView) string {
	if v.Report == nil {
		return "no report"
	}
	rep := *v.Report
	rep.WallMs = 0
	b, _ := json.Marshal(rep)
	return v.CacheKey + " " + string(b)
}

// verifyComputed checks a computed job: its cache key is the digest of
// the instance and options, and its solution payload is valid on the
// instance and matches the view's hash and size.
func verifyComputed(c *client, in mpcgraph.Instance, v *service.JobView, problem, model string, seed uint64) error {
	if v.Report == nil {
		return fmt.Errorf("job %s has no report", v.ID)
	}
	p, m, err := pairOf(problem, model)
	if err != nil {
		return err
	}
	key, err := service.CacheKey(in, p, m, mpcgraph.Options{Seed: seed})
	if err != nil {
		return err
	}
	if key != v.CacheKey {
		return fmt.Errorf("job %s: cache key %s, instance digests to %s", v.ID, v.CacheKey, key)
	}
	text, err := c.get("/v1/jobs/" + v.ID + "/solution")
	if err != nil {
		return err
	}
	r, size, err := parseSolution(p, in.NumVertices(), text)
	if err != nil {
		return fmt.Errorf("job %s solution: %w", v.ID, err)
	}
	if v.Report.Value != nil {
		r.value = *v.Report.Value
	}
	if err := validate(in, r); err != nil {
		return fmt.Errorf("job %s: %w", v.ID, err)
	}
	if h := fmt.Sprintf("%016x", payloadHash(r)); h != v.Report.SolutionHash {
		return fmt.Errorf("job %s: solutionHash %s, payload hashes to %s", v.ID, v.Report.SolutionHash, h)
	}
	var want *int
	switch p {
	case mpcgraph.ProblemMIS:
		want = v.Report.MISSize
	case mpcgraph.ProblemVertexCover:
		want = v.Report.CoverSize
	default:
		want = v.Report.MatchingSize
	}
	if want == nil || *want != size {
		return fmt.Errorf("job %s: payload has %d members, view reports %v", v.ID, size, want)
	}
	return nil
}

func pairOf(problem, model string) (mpcgraph.Problem, mpcgraph.Model, error) {
	for _, a := range mpcgraph.Algorithms() {
		if a.Problem.String() == problem && a.Model.String() == model {
			return a.Problem, a.Model, nil
		}
	}
	return 0, 0, fmt.Errorf("no registered pair %s/%s", problem, model)
}

// parseSolution reads the /solution text: one vertex id per line for
// MIS and vertex cover, one "u v" pair per line for matchings.
func parseSolution(p mpcgraph.Problem, n int, text []byte) (*opResult, int, error) {
	r := &opResult{problem: p}
	set := p == mpcgraph.ProblemMIS || p == mpcgraph.ProblemVertexCover
	if set {
		r.inSet = make([]bool, n)
	} else {
		r.mate = make([]int32, n)
		for i := range r.mate {
			r.mate[i] = -1
		}
	}
	size := 0
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		ids := make([]int, len(f))
		for i, s := range f {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 || v >= n {
				return nil, 0, fmt.Errorf("bad line %q", line)
			}
			ids[i] = v
		}
		switch {
		case set && len(ids) == 1 && !r.inSet[ids[0]]:
			r.inSet[ids[0]] = true
		case !set && len(ids) == 2 && r.mate[ids[0]] == -1 && r.mate[ids[1]] == -1:
			r.mate[ids[0]], r.mate[ids[1]] = int32(ids[1]), int32(ids[0])
		default:
			return nil, 0, fmt.Errorf("bad or repeated line %q", line)
		}
		size++
	}
	return r, size, nil
}

// histDelta is the interval snapshot of one histogram child.
func histDelta(before, after *obs.Exposition, name, key, value string) obs.Snapshot {
	find := func(e *obs.Exposition) obs.Snapshot {
		for _, h := range e.Histograms()[name] {
			if key == "" || h.Labels[key] == value {
				return h.Snapshot()
			}
		}
		return obs.Snapshot{}
	}
	// A child first observed after the "before" scrape has no baseline.
	a, b := find(after), find(before)
	if a.Counts == nil || b.Counts == nil {
		return a
	}
	return a.Sub(b)
}

func counterDelta(before, after *obs.Exposition, name string, kv ...string) float64 {
	a, _ := after.Value(name, kv...)
	b, _ := before.Value(name, kv...)
	return a - b
}

// crossCheck holds the daemon's own counters to the traffic the client
// sent: every submission probed the memory tier once, and every
// computed submission that did not coalesce ran one solve.
func crossCheck(samples []*sample, before, after *obs.Exposition) error {
	submitted, computed, coalesced := 0, 0, 0
	for _, s := range samples {
		if s.status != http.StatusCreated && s.status != http.StatusTooManyRequests {
			continue
		}
		submitted++
		if c := s.arrival.class; (c == "cold" || c == "background") && s.status == http.StatusCreated {
			computed++
			if s.view != nil && s.view.Coalesced {
				coalesced++
			}
		}
	}
	if got := counterDelta(before, after, "mpcgraphd_solves_total"); int(got) != computed-coalesced {
		return fmt.Errorf("cross-check: mpcgraphd_solves_total grew by %v, client sent %d computed jobs of which %d coalesced", got, computed, coalesced)
	}
	if got := histDelta(before, after, "mpcgraphd_cache_probe_seconds", "tier", "memory").Count; int(got) != submitted {
		return fmt.Errorf("cross-check: %d memory-tier probes for %d submissions", got, submitted)
	}
	return nil
}

// daemonMetrics derives the daemon-mix metrics from the samples, their
// job views and the /metrics deltas.
func daemonMetrics(cfg *config, out *outcome, w *warm, g *loadGen, before, after *obs.Exposition) {
	byClass := map[string][]float64{}
	var lags, submit, resolve, queueWait, solve []float64
	var tracedCold, untracedCold []float64
	probes := map[string][]float64{}
	refused := 0
	for _, s := range g.samples {
		lags = append(lags, float64(s.lag)/float64(time.Millisecond))
		if s.status == http.StatusTooManyRequests {
			refused++
		}
		if s.err != nil || s.view == nil || s.view.State != service.StateDone {
			continue
		}
		class := s.arrival.class
		ms := float64(s.latency) / float64(time.Millisecond)
		byClass[class] = append(byClass[class], ms)
		if class == "cold" {
			if s.traced {
				tracedCold = append(tracedCold, ms)
			} else {
				untracedCold = append(untracedCold, ms)
			}
		}
		tm := s.view.Timings
		if tm == nil {
			continue
		}
		phase := map[string]float64{}
		for _, p := range tm.Phases {
			phase[p.Phase] = p.AtMs
		}
		for _, p := range tm.CacheProbes {
			probes[p.Tier] = append(probes[p.Tier], p.DurMs*1000)
		}
		switch class {
		case "heavy":
			postMs := float64(s.post) / float64(time.Millisecond)
			submit = append(submit, postMs)
			resolve = append(resolve, postMs-phase["settled"])
		case "cold", "background":
			queueWait = append(queueWait, phase["dequeued"]-phase["queued"])
			if class == "cold" {
				solve = append(solve, s.view.Report.WallMs)
			}
		}
	}
	out.values["class.cold_p50_ms"] = median(byClass["cold"])
	out.values["class.cold_p95_ms"] = quantile(byClass["cold"], 0.95)
	out.values["class.hit_p50_ms"] = median(byClass["hit"])
	out.values["class.hit_p95_ms"] = quantile(byClass["hit"], 0.95)
	out.values["class.heavy_p50_ms"] = median(byClass["heavy"])
	for _, c := range []string{"cold", "hit", "heavy", "background"} {
		x := byClass[c]
		out.lines = append(out.lines, fmt.Sprintf("%s: p50 %.2f ms, p95 %.2f ms (%d samples)", c, median(x), quantile(x, 0.95), len(x)))
	}
	// Per-kind medians show whether each measured class is unimodal.
	kinds := map[string][]float64{}
	for _, s := range g.samples {
		if a := s.arrival; s.err == nil && s.view != nil && (a.class == "cold" || a.class == "heavy") {
			k := fmt.Sprintf("%s %s/%s n=%d", a.class, a.recipe.Problem, a.recipe.Model, a.recipe.N)
			if a.class == "heavy" {
				k = fmt.Sprintf("heavy %s", s.view.Source)
			}
			kinds[k] = append(kinds[k], float64(s.latency)/float64(time.Millisecond))
		}
	}
	for _, k := range sortedKeys(kinds) {
		out.lines = append(out.lines, fmt.Sprintf("  %s: p50 %.2f ms (%d samples)", k, median(kinds[k]), len(kinds[k])))
	}
	out.lines = append(out.lines, fmt.Sprintf("generator lag p95 %.2f ms over %d arrivals; %d refused", quantile(lags, 0.95), len(lags), refused))
	if !cfg.trace {
		return
	}
	disk := func(op string) float64 {
		s := histDelta(before, after, "mpcgraphd_disk_op_seconds", "op", op)
		return s.SumSeconds * 1000 / float64(max(s.Count, 1))
	}
	probeCount := func(tier string) float64 {
		return float64(histDelta(before, after, "mpcgraphd_cache_probe_seconds", "tier", tier).Count)
	}
	out.values["service.submit_ms"] = median(submit)
	out.values["service.resolve_ms"] = median(resolve)
	out.values["service.queue_wait_ms_p50"] = median(queueWait)
	out.values["service.queue_wait_ms_p95"] = quantile(queueWait, 0.95)
	out.values["service.solve_ms"] = median(solve)
	out.values["service.disk_write_ms"] = disk("write")
	out.values["service.disk_read_ms"] = disk("read")
	out.values["service.probe_us.memory"] = median(probes["memory"])
	out.values["service.probe_us.disk"] = median(probes["disk"])
	out.values["service.hit_ratio.memory"] = counterDelta(before, after, "mpcgraphd_cache_hits_total", "tier", "memory") / max(probeCount("memory"), 1)
	out.values["service.hit_ratio.disk"] = counterDelta(before, after, "mpcgraphd_cache_hits_total", "tier", "disk") / max(probeCount("disk"), 1)
	out.values["service.solves"] = counterDelta(before, after, "mpcgraphd_solves_total")
	out.values["service.coalesced"] = counterDelta(before, after, "mpcgraphd_coalesced_total")
	out.values["service.refused"] = float64(refused)
	out.values["bench.lag_p95_ms"] = quantile(lags, 0.95)
	out.values["bench.trace_overhead"] = median(tracedCold) / median(untracedCold)
	// The client digests the heavy recipe's instance the way the daemon
	// resolves it on every heavy resubmission.
	heavy := len(w.views) - 2
	if in, err := w.instance(heavy); err == nil {
		start := time.Now()
		if _, err := service.InstanceDigest(in); err == nil {
			out.values["service.digest_s"] = time.Since(start).Seconds()
		}
	}
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

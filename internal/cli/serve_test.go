package cli

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mpcgraph"
	"mpcgraph/internal/service"
)

// startDaemon runs the service directly behind httptest — the client
// subcommand tests talk to exactly what `mpcgraph serve` serves.
func startDaemon(t *testing.T) string {
	t.Helper()
	s, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain(5 * time.Second)
	})
	return ts.URL
}

// runCLI executes one mpcgraph invocation hermetically.
func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := Run(args, Env{Stdin: strings.NewReader(""), Stdout: &stdout, Stderr: &stderr})
	return stdout.String(), stderr.String(), err
}

// TestSubmitScenarioAndStatus drives submit -wait and status against a
// live daemon.
func TestSubmitScenarioAndStatus(t *testing.T) {
	url := startDaemon(t)
	stdout, _, err := runCLI(t,
		"submit", "-server", url, "-problem", "mis",
		"-scenario", "gnp", "-n", "300", "-seed", "5", "-wait")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var view service.JobView
	if err := json.Unmarshal([]byte(stdout), &view); err != nil {
		t.Fatalf("submit output not a job view: %v\n%s", err, stdout)
	}
	if view.State != service.StateDone || view.Report == nil {
		t.Fatalf("job %+v not done with a report", view)
	}
	if view.Report.MISSize == nil || *view.Report.MISSize <= 0 {
		t.Errorf("report has no MIS size: %+v", view.Report)
	}

	// A second identical submit must be served from the cache.
	stdout, _, err = runCLI(t,
		"submit", "-server", url, "-problem", "mis",
		"-scenario", "gnp", "-n", "300", "-seed", "5", "-wait")
	if err != nil {
		t.Fatalf("re-submit: %v", err)
	}
	var hit service.JobView
	if err := json.Unmarshal([]byte(stdout), &hit); err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Errorf("re-submit was not a cache hit")
	}

	// status lists both jobs; status -job fetches one.
	stdout, _, err = runCLI(t, "status", "-server", url)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	var page struct {
		Jobs []service.JobView `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(stdout), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 2 {
		t.Errorf("status lists %d jobs, want 2", len(page.Jobs))
	}
	stdout, _, err = runCLI(t, "status", "-server", url, "-job", view.ID)
	if err != nil {
		t.Fatalf("status -job: %v", err)
	}
	var one service.JobView
	if err := json.Unmarshal([]byte(stdout), &one); err != nil {
		t.Fatal(err)
	}
	if one.ID != view.ID {
		t.Errorf("status -job returned %s, want %s", one.ID, view.ID)
	}
}

// TestSubmitUpload pushes a gzip-compressed file through the base64
// upload path and checks the daemon solves the identical instance.
func TestSubmitUpload(t *testing.T) {
	url := startDaemon(t)
	in, err := mpcgraph.GenerateScenario("gnp", 250, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.el.gz")
	if err := mpcgraph.WriteInstanceFile(path, in); err != nil {
		t.Fatal(err)
	}
	stdout, _, err := runCLI(t,
		"submit", "-server", url, "-problem", "vertex-cover",
		"-in", path, "-format", "el", "-seed", "11", "-wait")
	if err != nil {
		t.Fatalf("submit upload: %v", err)
	}
	var view service.JobView
	if err := json.Unmarshal([]byte(stdout), &view); err != nil {
		t.Fatal(err)
	}
	if view.State != service.StateDone || view.Report == nil || view.Report.CoverSize == nil {
		t.Fatalf("upload job did not produce a vertex cover: %+v", view)
	}
	if view.Report.N != 250 {
		t.Errorf("daemon solved n=%d, want 250", view.Report.N)
	}
}

// TestSubmitFlagErrors pins the client-side validation.
func TestSubmitFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"submit", "-scenario", "gnp"},                                   // no problem
		{"submit", "-problem", "mis"},                                    // no instance
		{"submit", "-problem", "mis", "-scenario", "gnp", "-in", "x.el"}, // both
		{"submit", "-problem", "mis", "-in", "x.el"},                     // -in without -format
	} {
		if _, _, err := runCLI(t, args...); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// awaitLine polls the serve goroutine's stdout (~10s) for the line
// starting with prefix and returns the rest of it: the address serve
// printed after binding.
func awaitLine(t *testing.T, stdout, stderr *syncBuffer, prefix string) string {
	t.Helper()
	for attempt := 0; attempt < 2000; attempt++ {
		for _, line := range strings.Split(stdout.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return strings.TrimSpace(rest)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("serve never printed %q (stderr: %s)", prefix, stderr.String())
	return ""
}

// TestServeLifecycle boots the real serve subcommand on an ephemeral
// port, submits one job through the client subcommand, then drains it
// with SIGTERM — the exact path cmd/mpcgraphd ships.
func TestServeLifecycle(t *testing.T) {
	// Register our own handler first so the SIGTERM below can never hit
	// the default action (process exit) if it races serve's own
	// registration.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	var stdout, stderr syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- Run([]string{"serve", "-addr", "127.0.0.1:0", "-workers", "1"},
			Env{Stdin: strings.NewReader(""), Stdout: &stdout, Stderr: &stderr})
	}()

	url := awaitLine(t, &stdout, &stderr, "mpcgraphd listening on ")

	out, _, err := runCLI(t,
		"submit", "-server", url, "-problem", "approx-matching",
		"-scenario", "ring", "-n", "100", "-seed", "1", "-wait")
	if err != nil {
		t.Fatalf("submit against serve: %v", err)
	}
	var view service.JobView
	if err := json.Unmarshal([]byte(out), &view); err != nil {
		t.Fatal(err)
	}
	if view.State != service.StateDone {
		t.Fatalf("job state %s", view.State)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with %v (stderr: %s)", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not drain after SIGTERM")
	}
	if !strings.Contains(stderr.String(), "drained") {
		t.Errorf("drain message missing from stderr: %s", stderr.String())
	}
}

// TestServePprof boots serve with -pprof-addr and checks the profiling
// endpoints answer on their own listener, separate from the job API.
func TestServePprof(t *testing.T) {
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	var stdout, stderr syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- Run([]string{"serve", "-addr", "127.0.0.1:0", "-workers", "1", "-pprof-addr", "127.0.0.1:0"},
			Env{Stdin: strings.NewReader(""), Stdout: &stdout, Stderr: &stderr})
	}()

	pprofURL := awaitLine(t, &stdout, &stderr, "mpcgraphd pprof on ")

	resp, err := http.Get(pprofURL) // the printed URL includes /debug/pprof/
	if err != nil {
		t.Fatalf("GET %s: %v", pprofURL, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: status %d, body %q", resp.StatusCode, body)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with %v (stderr: %s)", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not drain after SIGTERM")
	}
}

// TestServeStructuredLogs boots serve with JSON debug logging, runs one
// job through it, and checks the lifecycle shows up both as structured
// stderr events and as the ordered timings block on the wire view.
func TestServeStructuredLogs(t *testing.T) {
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	var stdout, stderr syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- Run([]string{"serve", "-addr", "127.0.0.1:0", "-workers", "1",
			"-log-level", "debug", "-log-format", "json"},
			Env{Stdin: strings.NewReader(""), Stdout: &stdout, Stderr: &stderr})
	}()

	url := awaitLine(t, &stdout, &stderr, "mpcgraphd listening on ")

	out, _, err := runCLI(t,
		"submit", "-server", url, "-problem", "mis",
		"-scenario", "gnp", "-n", "200", "-seed", "3", "-wait")
	if err != nil {
		t.Fatalf("submit against serve: %v", err)
	}
	var view service.JobView
	if err := json.Unmarshal([]byte(out), &view); err != nil {
		t.Fatal(err)
	}
	if view.State != service.StateDone {
		t.Fatalf("job state %s", view.State)
	}
	// The timings block — what `mpcgraph status -job` renders — carries
	// the full cold-run lifecycle in order.
	if view.Timings == nil || len(view.Timings.Phases) == 0 {
		t.Fatalf("terminal view has no timings block: %s", out)
	}
	prev := -1.0
	var phases []string
	for _, p := range view.Timings.Phases {
		if p.AtMs < prev {
			t.Errorf("phase %s atMs %.3f out of order", p.Phase, p.AtMs)
		}
		prev = p.AtMs
		phases = append(phases, p.Phase)
	}
	for _, want := range []string{"received", "queued", "dequeued", "solving", "settled"} {
		if !strings.Contains(strings.Join(phases, ","), want) {
			t.Errorf("timings phases %v missing %q", phases, want)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with %v (stderr: %s)", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not drain after SIGTERM")
	}

	logs := stderr.String()
	for _, event := range []string{
		`"event":"job.submit"`, `"event":"job.queued"`, `"event":"job.solve.start"`,
		`"event":"job.solve.done"`, `"event":"job.terminal"`, `"event":"http.request"`,
		`"event":"daemon.drain.done"`,
	} {
		if !strings.Contains(logs, event) {
			t.Errorf("structured log stream missing %s:\n%s", event, logs)
		}
	}
	// Every line on stderr that is not the two human drain notices must
	// be a parseable JSON object carrying level and event.
	for _, line := range strings.Split(logs, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "mpcgraphd:") {
			continue
		}
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Errorf("non-JSON log line %q: %v", line, err)
			continue
		}
		if entry["level"] == nil || entry["event"] == nil {
			t.Errorf("log line missing level/event: %q", line)
		}
	}
}

// TestServeLogFlagErrors: bad logging flags fail before binding.
func TestServeLogFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"serve", "-log-level", "loud"},
		{"serve", "-log-format", "xml"},
	} {
		if _, _, err := runCLI(t, args...); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for the serve goroutine's
// stdout.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

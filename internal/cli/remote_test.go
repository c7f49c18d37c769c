package cli

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"mpcgraph/internal/client"
	"mpcgraph/internal/service"
)

// fetchMetric reads one unlabeled gauge/counter from the daemon's
// /metrics.
func fetchMetric(t *testing.T, server, name string) float64 {
	t.Helper()
	exp, err := client.New(server).Metrics(context.Background())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	v, ok := exp.Value(name)
	if !ok {
		t.Fatalf("metric %s not found", name)
	}
	return v
}

// TestRemoteBenchBitIdentical is the acceptance gate of `mpcgraph bench
// -remote`: the registry sweep (E18) routed through a live daemon must
// produce byte-identical -json output to the in-process run. The
// experiment's columns are derived entirely from Report fields that
// round-trip the wire (costs, violations, solution payloads), so any
// divergence is a serialization or reconstruction bug, not tolerance.
func TestRemoteBenchBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the registry sweep twice (once per transport)")
	}
	url := startDaemon(t)

	local, _, err := runCLI(t, "bench", "-experiment", "E18", "-quick", "-seed", "11", "-json")
	if err != nil {
		t.Fatalf("in-process bench: %v", err)
	}
	remote, _, err := runCLI(t, "bench", "-experiment", "E18", "-quick", "-seed", "11", "-json", "-remote", url)
	if err != nil {
		t.Fatalf("remote bench: %v", err)
	}
	if local != remote {
		t.Errorf("remote sweep diverges from in-process:\n--- local ---\n%s--- remote ---\n%s", local, remote)
	}
	// The daemon really did the solving: one solve per registered pair
	// (every (scenario, seed, pair) cell is distinct, so no dedup).
	if solves := fetchMetric(t, url, "mpcgraphd_solves_total"); solves <= 0 {
		t.Errorf("daemon performed %v solves; the remote run did not go through it", solves)
	}

	// A second remote run is served entirely by the daemon's result
	// cache — still bit-identical, zero new solves.
	before := fetchMetric(t, url, "mpcgraphd_solves_total")
	again, _, err := runCLI(t, "bench", "-experiment", "E18", "-quick", "-seed", "11", "-json", "-remote", url)
	if err != nil {
		t.Fatalf("second remote bench: %v", err)
	}
	if again != local {
		t.Error("cached remote sweep diverges from in-process")
	}
	if after := fetchMetric(t, url, "mpcgraphd_solves_total"); after != before {
		t.Errorf("cached remote sweep performed %v new solves, want 0", after-before)
	}
}

// TestBatchCLISweepWait drives `mpcgraph batch` end-to-end: submit a
// sweep, wait for settlement, and check the dedup accounting that the
// daemon reports.
func TestBatchCLISweepWait(t *testing.T) {
	url := startDaemon(t)
	stdout, _, err := runCLI(t,
		"batch", "-server", url, "-scenarios", "gnp", "-n", "200",
		"-seeds", "1:3", "-problems", "mis", "-wait")
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	var view service.BatchView
	if err := json.Unmarshal([]byte(stdout), &view); err != nil {
		t.Fatalf("batch output not a batch view: %v\n%s", err, stdout)
	}
	if view.State != "done" || view.Total != 3 || view.Counts.Done != 3 {
		t.Fatalf("batch not fully done: %+v", view)
	}
	if got := view.Dedup.Enqueued + view.Dedup.CacheHits.Memory + view.Dedup.CacheHits.Disk + view.Dedup.Coalesced; got != 3 {
		t.Errorf("dedup accounting covers %d of 3 members: %+v", got, view.Dedup)
	}

	// Resubmitting the same sweep is fully cache-served.
	stdout, _, err = runCLI(t,
		"batch", "-server", url, "-scenarios", "gnp", "-n", "200",
		"-seeds", "1:3", "-problems", "mis", "-wait")
	if err != nil {
		t.Fatalf("batch resubmit: %v", err)
	}
	if err := json.Unmarshal([]byte(stdout), &view); err != nil {
		t.Fatalf("batch resubmit output: %v\n%s", err, stdout)
	}
	if view.Dedup.Enqueued != 0 {
		t.Errorf("resubmitted sweep enqueued %d jobs, want 0 (all cached)", view.Dedup.Enqueued)
	}

	// -status round-trips the same view; -cancel on a settled batch is
	// an idempotent no-op.
	stdout, _, err = runCLI(t, "batch", "-server", url, "-status", view.ID)
	if err != nil {
		t.Fatalf("batch -status: %v", err)
	}
	if !strings.Contains(stdout, view.ID) {
		t.Errorf("-status output missing batch id %s:\n%s", view.ID, stdout)
	}
	stdout, _, err = runCLI(t, "batch", "-server", url, "-cancel", view.ID)
	if err != nil {
		t.Fatalf("batch -cancel: %v", err)
	}
	var canceled service.BatchView
	if err := json.Unmarshal([]byte(stdout), &canceled); err != nil {
		t.Fatalf("-cancel output: %v\n%s", err, stdout)
	}
	if canceled.Counts.Done != 3 {
		t.Errorf("cancel after settlement disturbed members: %+v", canceled.Counts)
	}
}

// TestBatchCLIStream follows the NDJSON stream: one line per member
// completion plus the final done marker.
func TestBatchCLIStream(t *testing.T) {
	url := startDaemon(t)
	stdout, _, err := runCLI(t,
		"batch", "-server", url, "-scenarios", "gnp", "-n", "200",
		"-seeds", "5:6", "-problems", "mis", "-stream")
	if err != nil {
		t.Fatalf("batch -stream: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 3 {
		t.Fatalf("stream printed %d lines, want 2 members + done marker:\n%s", len(lines), stdout)
	}
	var done struct {
		Done  bool               `json:"done"`
		Batch *service.BatchView `json:"batch"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &done); err != nil || !done.Done || done.Batch == nil {
		t.Fatalf("last stream line is not the done marker: %v\n%s", err, lines[2])
	}
	if done.Batch.Counts.Done != 2 {
		t.Errorf("done marker counts: %+v", done.Batch.Counts)
	}
}

// TestBatchCLISpecFile submits a raw BatchRequest spec via -spec -.
func TestBatchCLISpecFile(t *testing.T) {
	url := startDaemon(t)
	spec := `{"sweep":{"scenarios":[{"name":"gnp","n":200}],"seeds":{"from":9,"to":9},"pairs":[{"problem":"mis"}]}}`
	var stdout, stderr strings.Builder
	err := Run([]string{"batch", "-server", url, "-spec", "-", "-wait"},
		Env{Stdin: strings.NewReader(spec), Stdout: &stdout, Stderr: &stderr})
	if err != nil {
		t.Fatalf("batch -spec: %v\n%s", err, stderr.String())
	}
	var view service.BatchView
	if err := json.Unmarshal([]byte(stdout.String()), &view); err != nil {
		t.Fatalf("output: %v\n%s", err, stdout.String())
	}
	if view.State != "done" || view.Counts.Done != 1 {
		t.Fatalf("spec batch not done: %+v", view)
	}
}

// TestBatchCLIFlagErrors pins the client-side validation.
func TestBatchCLIFlagErrors(t *testing.T) {
	cases := [][]string{
		{"batch"}, // no sweep, no spec
		{"batch", "-spec", "x.json", "-scenarios", "gnp"},                               // mutually exclusive
		{"batch", "-seeds", "5:1", "-scenarios", "gnp"},                                 // inverted range
		{"batch", "-seeds", "abc", "-scenarios", "gnp"},                                 // unparseable
		{"batch", "-model", "mpc", "-scenarios", "gnp"},                                 // -model without -problems
		{"batch", "-scenarios", "gnp", "-cancel", "", "-status", "", "-seeds", "1:2:3"}, // malformed range
	}
	for _, args := range cases {
		if _, _, err := runCLI(t, args...); err == nil {
			t.Errorf("%v accepted, want error", args)
		}
	}
}

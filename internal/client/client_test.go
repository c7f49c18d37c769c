package client

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpcgraph/internal/service"
)

// daemon runs the real service behind httptest and returns it with a
// client pointed at it.
func daemon(t *testing.T, cfg service.Config, drain time.Duration) (*service.Server, *Client) {
	t.Helper()
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain(drain)
	})
	return s, New(ts.URL + "/")
}

func misJob(n int) *service.JobRequest {
	return &service.JobRequest{
		Problem:  "mis",
		Scenario: &service.ScenarioRequest{Name: "gnp", N: n, Seed: 3},
		Options:  service.OptionsRequest{Seed: 3},
		NoCache:  true,
	}
}

// TestJobRoundTrip: submit, poll to a terminal state, then read the
// job back through every typed read the daemon offers.
func TestJobRoundTrip(t *testing.T) {
	_, c := daemon(t, service.Config{Workers: 1}, 5*time.Second)
	ctx := context.Background()
	view, err := c.SubmitJob(ctx, misJob(200), Retry{})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.WaitJob(ctx, view.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != service.StateDone || done.Report == nil || done.Report.MISSize == nil {
		t.Fatalf("polled view not done with an MIS report: %+v", done)
	}
	solution, err := c.Get(ctx, "/v1/jobs/"+view.ID+"/solution")
	if err != nil || len(strings.Fields(string(solution))) != *done.Report.MISSize {
		t.Fatalf("solution: %d ids (err %v), want %d", len(strings.Fields(string(solution))), err, *done.Report.MISSize)
	}
	jobs, err := c.Jobs(ctx, 5)
	if err != nil || len(jobs) != 1 || jobs[0].ID != view.ID {
		t.Fatalf("job listing %+v (err %v), want exactly %s", jobs, err, view.ID)
	}
	health, err := c.Health(ctx)
	if err != nil || health.Status != "ok" || health.CacheDisk != "disabled" {
		t.Fatalf("health %+v (err %v)", health, err)
	}
	exp, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := exp.Value("mpcgraphd_jobs_submitted_total"); !ok || v != 1 {
		t.Errorf("mpcgraphd_jobs_submitted_total = %v (present %t), want 1", v, ok)
	}
	if v, ok := exp.Value("mpcgraphd_jobs", "state", "done"); !ok || v != 1 {
		t.Errorf(`mpcgraphd_jobs{state="done"} = %v (present %t), want 1`, v, ok)
	}
}

// TestSubmit429RetryAfter saturates a one-worker, depth-1 daemon whose
// solves stall: the rejection is a retryable 429 whose Retry-After the
// retry loop honors before giving up with ErrRetriesExhausted.
func TestSubmit429RetryAfter(t *testing.T) {
	_, c := daemon(t, service.Config{Workers: 1, QueueDepth: 1, Failpoints: "solve-stall"}, 10*time.Millisecond)
	ctx := context.Background()
	var rejected *Error
	for i := 0; rejected == nil; i++ {
		if i == 3 {
			t.Fatal("one running + one queued job did not saturate the daemon")
		}
		_, err := c.SubmitJob(ctx, misJob(100+i), Retry{})
		if err != nil && !errors.As(err, &rejected) {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if rejected.Status != 429 || !rejected.Retryable() || rejected.RetryAfter != time.Second {
		t.Fatalf("rejection %+v, want retryable 429 with Retry-After 1s", rejected)
	}
	if !bytes.Contains(rejected.Body, []byte(`"state": "canceled"`)) {
		t.Errorf("429 body is not the canceled job view: %s", rejected.Body)
	}

	var log bytes.Buffer
	_, err := c.SubmitJob(ctx, misJob(150), Retry{Seed: 1, Purpose: "submit", Op: "submit", Max: 1, Log: &log})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if !strings.HasPrefix(err.Error(), "submit: submit: 429 Too Many Requests: ") ||
		!strings.HasSuffix(err.Error(), ": retries exhausted after 2 attempts") {
		t.Errorf("exhaustion message %q", err)
	}
	if got := log.String(); got != "mpcgraph: submit rejected (429), retrying in 1s\n" {
		t.Errorf("retry notices %q", got)
	}

	// The context bounds the retry sleep.
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := c.SubmitJob(short, misJob(160), Retry{Max: 5}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want the context deadline", err)
	}
}

// TestDraining503: a draining daemon answers 503 with Retry-After on
// submissions and on /healthz.
func TestDraining503(t *testing.T) {
	s, c := daemon(t, service.Config{Workers: 1}, time.Second)
	s.Drain(time.Second)
	ctx := context.Background()
	for name, call := range map[string]func() error{
		"job": func() error {
			_, err := c.SubmitJob(ctx, misJob(100), Retry{Op: "submit"})
			return err
		},
		"batch": func() error {
			_, err := c.SubmitBatch(ctx, &service.BatchRequest{Jobs: []service.JobRequest{*misJob(100)}}, Retry{Op: "batch"})
			return err
		},
		"health": func() error {
			_, err := c.Health(ctx)
			return err
		},
	} {
		err := call()
		var he *Error
		if !errors.As(err, &he) || he.Status != 503 || !he.Retryable() || he.RetryAfter != 5*time.Second {
			t.Errorf("%s: err %v, want a retryable 503 with Retry-After 5s", name, err)
		}
	}
}

// TestErrorBodySurfaced: a non-2xx {"error": ...} body becomes the
// error text, prefixed by the failing call, and fails fast.
func TestErrorBodySurfaced(t *testing.T) {
	_, c := daemon(t, service.Config{Workers: 1}, 5*time.Second)
	ctx := context.Background()
	_, err := c.SubmitJob(ctx, &service.JobRequest{Problem: "no-such-problem"}, Retry{Max: 5})
	var he *Error
	if !errors.As(err, &he) || he.Status != 400 || he.Retryable() {
		t.Fatalf("err = %v, want a non-retryable 400", err)
	}
	if !strings.HasPrefix(err.Error(), "submit: 400 Bad Request: ") || strings.Contains(err.Error(), "{") {
		t.Errorf("error %q does not surface the server's error message", err)
	}
	if _, err := c.Get(ctx, "/v1/jobs/j99999999"); err == nil || !strings.HasPrefix(err.Error(), "404 Not Found: ") {
		t.Errorf("unknown job: %v", err)
	}
	if _, err := c.CancelBatch(ctx, "b99999999"); err == nil || !strings.HasPrefix(err.Error(), "cancel: 404 Not Found: ") {
		t.Errorf("unknown batch cancel: %v", err)
	}
	if _, err := c.StreamBatch(ctx, "b99999999", &bytes.Buffer{}); err == nil || !strings.HasPrefix(err.Error(), "stream: 404 Not Found: ") {
		t.Errorf("unknown batch stream: %v", err)
	}
	if got := serverError([]byte(" plain text\n")); got != "plain text" {
		t.Errorf("non-JSON error body rendered %q", got)
	}
}

// TestBatchWaitStreamCancel polls a batch to settlement, replays its
// stream, and cancels it idempotently.
func TestBatchWaitStreamCancel(t *testing.T) {
	_, c := daemon(t, service.Config{Workers: 1}, 5*time.Second)
	ctx := context.Background()
	req := &service.BatchRequest{Jobs: []service.JobRequest{*misJob(120), *misJob(130)}}
	view, err := c.SubmitBatch(ctx, req, Retry{})
	if err != nil {
		t.Fatal(err)
	}
	settled, err := c.WaitBatch(ctx, view.ID, 1)
	if err != nil || settled.State != "done" || settled.Counts.Done != 2 {
		t.Fatalf("batch %+v (err %v), want 2 members done", settled, err)
	}
	var out bytes.Buffer
	final, err := c.StreamBatch(ctx, view.ID, &out)
	if err != nil || final == nil || final.Counts.Done != 2 {
		t.Fatalf("stream final %+v (err %v)", final, err)
	}
	if lines := strings.Count(out.String(), "\n"); lines != 3 {
		t.Errorf("stream relayed %d lines, want 2 members + done marker:\n%s", lines, out.String())
	}
	canceled, err := c.CancelBatch(ctx, view.ID)
	if err != nil || canceled.Counts.Done != 2 {
		t.Errorf("cancel of a settled batch: %+v (err %v)", canceled, err)
	}
}

// TestPollToleratesRetryable: the poll loop rides out retryable
// statuses from a proxy and stops at the first terminal view; a
// malformed body or exposition is an error, not a hang.
func TestPollToleratesRetryable(t *testing.T) {
	var polls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs/j1":
			switch n := polls.Add(1); {
			case n <= 2:
				w.WriteHeader(503)
			case n == 3:
				w.Write([]byte(`{"id": "j1", "state": "running"}`))
			default:
				w.Write([]byte(`{"id": "j1", "state": "failed", "error": "boom"}`))
			}
		case "/metrics":
			w.Write([]byte("not an exposition {\n"))
		default:
			w.Write([]byte("not json"))
		}
	}))
	defer ts.Close()
	c := New(ts.URL)
	ctx := context.Background()
	view, err := c.WaitJob(ctx, "j1", 1)
	if err != nil || view.State != service.StateFailed || polls.Load() != 4 {
		t.Fatalf("view %+v after %d polls (err %v), want failed after 4", view, polls.Load(), err)
	}
	if _, err := c.WaitJob(ctx, "j2", 1); err == nil || !strings.HasPrefix(err.Error(), "GET /v1/jobs/j2: bad response: ") {
		t.Errorf("malformed job view: %v", err)
	}
	if _, err := c.Metrics(ctx); err == nil || !strings.HasPrefix(err.Error(), "bad /metrics exposition: ") {
		t.Errorf("malformed exposition: %v", err)
	}
}

// Package client is the one Go client of the mpcgraphd wire protocol
// (docs/service.md): typed calls for jobs, batches, the batch stream,
// /metrics, /healthz and raw GETs against one base URL. It is used by
// the mpcgraph daemon subcommands and the service/chaos smoke gates.
//
// Retry convention: exactly 429 (queue full) and 503 (draining) are
// retryable; both carry a Retry-After hint the client honors, and an
// exhausted retry budget returns ErrRetriesExhausted (mpcgraph exit
// code 6). The package never reads the wall clock: retry budgets are
// sums of planned sleeps and deadlines come from the caller's context.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mpcgraph/internal/obs"
	"mpcgraph/internal/service"
)

// Client talks to one mpcgraphd.
type Client struct {
	base string
}

// New returns a client for the daemon at base, e.g.
// "http://127.0.0.1:8080".
func New(base string) *Client {
	return &Client{base: strings.TrimSuffix(base, "/")}
}

// Error is a daemon response other than the documented success status,
// with its Retry-After hint and raw body (a 429 body is the rejected
// job's view).
type Error struct {
	Op         string // the call that failed ("submit", "batch", ...); "" for plain GETs
	Status     int
	StatusText string // the full status line, e.g. "429 Too Many Requests"
	RetryAfter time.Duration
	Body       []byte
}

func (e *Error) Error() string {
	msg := e.StatusText + ": " + serverError(e.Body)
	if e.Op != "" {
		msg = e.Op + ": " + msg
	}
	return msg
}

// Retryable reports whether the convention allows retrying: 429 (queue
// full) or 503 (draining; a balancer may route the retry elsewhere).
func (e *Error) Retryable() bool { return e.Status == 429 || e.Status == 503 }

// Retry configures a submission's retry loop.
type Retry struct {
	Seed    uint64        // seeds the jitter stream, so one script plans one delay sequence
	Purpose string        // labels the jitter stream ("submit", "batch-submit", ...)
	Op      string        // prefixes the exhaustion error
	Max     int           // retries before ErrRetriesExhausted
	Budget  time.Duration // bound on the sum of planned sleeps (<= 0: unbounded)
	Log     io.Writer     // receives one notice per retry; nil is silent
}

// SubmitJob posts one job under the retry convention.
func (c *Client) SubmitJob(ctx context.Context, req *service.JobRequest, r Retry) (*service.JobView, error) {
	return submit[service.JobView](ctx, c, "/v1/jobs", "submit", req, r)
}

// SubmitBatch posts one batch under the retry convention.
func (c *Client) SubmitBatch(ctx context.Context, req *service.BatchRequest, r Retry) (*service.BatchView, error) {
	return submit[service.BatchView](ctx, c, "/v1/batches", "batch", req, r)
}

// CancelBatch cancels the remainder of a batch (idempotent).
func (c *Client) CancelBatch(ctx context.Context, id string) (*service.BatchView, error) {
	var view service.BatchView
	return &view, c.do(ctx, http.MethodDelete, "/v1/batches/"+id, "cancel", nil, &view)
}

// WaitJob polls a job until it is terminal (done, failed or canceled).
func (c *Client) WaitJob(ctx context.Context, id string, seed uint64) (*service.JobView, error) {
	return poll(ctx, c, "/v1/jobs/"+id, seed, "wait-poll", "wait", func(v *service.JobView) bool {
		return v.State == service.StateDone || v.State == service.StateFailed || v.State == service.StateCanceled
	})
}

// WaitBatch polls a batch until every member has settled.
func (c *Client) WaitBatch(ctx context.Context, id string, seed uint64) (*service.BatchView, error) {
	return poll(ctx, c, "/v1/batches/"+id, seed, "batch-poll", "batch wait", func(v *service.BatchView) bool {
		return v.State == "done"
	})
}

// Jobs returns the newest page of the job table, at most limit views.
func (c *Client) Jobs(ctx context.Context, limit int) ([]*service.JobView, error) {
	var page struct {
		Jobs []*service.JobView `json:"jobs"`
	}
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/jobs?limit=%d", limit), "", nil, &page)
	return page.Jobs, err
}

// StreamBatch follows GET /v1/batches/{id}/stream, copying every NDJSON
// line to w, and returns the aggregate view carried by the final done
// marker (nil if the stream ended without one).
func (c *Client) StreamBatch(ctx context.Context, id string, w io.Writer) (*service.BatchView, error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/batches/"+id+"/stream", "stream", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		raw := sc.Bytes()
		if _, err := w.Write(append(raw, '\n')); err != nil {
			return nil, err
		}
		// The done marker is the only line whose top-level "batch" is an
		// object (member lines carry the batch id as a string, so they
		// fail this decode and fall through).
		var line struct {
			Done  bool               `json:"done"`
			Batch *service.BatchView `json:"batch"`
		}
		if json.Unmarshal(raw, &line) == nil && line.Done {
			return line.Batch, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: %v", err)
	}
	return nil, nil
}

// Metrics scrapes and parses /metrics.
func (c *Client) Metrics(ctx context.Context) (*obs.Exposition, error) {
	raw, err := c.Get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	exp, err := obs.ParseExposition(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("bad /metrics exposition: %v", err)
	}
	return exp, nil
}

// Health fetches /healthz; a draining daemon's 503 is an *Error.
func (c *Client) Health(ctx context.Context) (*service.Health, error) {
	var h service.Health
	return &h, c.do(ctx, http.MethodGet, "/healthz", "", nil, &h)
}

// Get fetches one endpoint's raw body.
func (c *Client) Get(ctx context.Context, path string) ([]byte, error) {
	var raw []byte
	return raw, c.do(ctx, http.MethodGet, path, "", nil, &raw)
}

// submit is the client's one retry loop: a retryable rejection backs
// off (honoring Retry-After) and retries, anything else returns.
func submit[V any](ctx context.Context, c *Client, path, op string, req any, r Retry) (*V, error) {
	bo := newBackoff(r.Seed, r.Purpose, 100*time.Millisecond, 5*time.Second, r.Max, r.Budget)
	for {
		var view V
		err := c.do(ctx, http.MethodPost, path, op, req, &view)
		var he *Error
		if !errors.As(err, &he) || !he.Retryable() {
			if err != nil {
				return nil, err
			}
			return &view, nil
		}
		delay, ok := bo.next(he.RetryAfter)
		if !ok {
			return nil, fmt.Errorf("%s: %w: %w after %d attempts", r.Op, err, ErrRetriesExhausted, bo.attempts+1)
		}
		if r.Log != nil {
			fmt.Fprintf(r.Log, "mpcgraph: %s rejected (%d), retrying in %v\n", op, he.Status, delay.Round(time.Millisecond))
		}
		if err := sleep(ctx, delay); err != nil {
			return nil, err
		}
	}
}

// poll is the client's one poll loop: it GETs path until settled holds
// or ctx ends. The pace backs off with jitter from 20ms toward a 1s cap,
// so a short job is noticed at once and a long one costs one request
// per second. Retryable statuses (from the daemon or a proxy) honor
// Retry-After, up to 10 in a row.
func poll[V any](ctx context.Context, c *Client, path string, seed uint64, purpose, op string, settled func(*V) bool) (*V, error) {
	pace := newBackoff(seed, purpose, 20*time.Millisecond, time.Second, int(^uint(0)>>1), 0)
	consecutive := 0
	for {
		var view V
		err := c.do(ctx, http.MethodGet, path, "", nil, &view)
		var retryAfter time.Duration
		if err != nil {
			var he *Error
			if !errors.As(err, &he) || !he.Retryable() {
				return nil, err
			}
			consecutive++
			if consecutive > 10 {
				return nil, fmt.Errorf("%s: %w: %w", op, err, ErrRetriesExhausted)
			}
			retryAfter = he.RetryAfter
		} else {
			consecutive = 0
			if settled(&view) {
				return &view, nil
			}
		}
		delay, _ := pace.next(retryAfter)
		if err := sleep(ctx, delay); err != nil {
			return nil, err
		}
	}
}

// do sends one request and decodes the success body into out; a
// *[]byte out receives the raw bytes.
func (c *Client) do(ctx context.Context, method, path, op string, in, out any) error {
	resp, err := c.send(ctx, method, path, op, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = body
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s %s: bad response: %v", method, path, err)
	}
	return nil
}

// send is the client's one response decoder: it issues the request
// (in, if non-nil, as a JSON body) and returns the open response when
// it carries the documented success status — 201 Created for a POST,
// 200 OK otherwise — or an *Error carrying the status, Retry-After
// and body.
func (c *Client) send(ctx context.Context, method, path, op string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		payload, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	want := http.StatusOK
	if method == http.MethodPost {
		want = http.StatusCreated
	}
	if resp.StatusCode == want {
		return resp, nil
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body) // best effort: the status is the error
	return nil, &Error{
		Op:         op,
		Status:     resp.StatusCode,
		StatusText: resp.Status,
		RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		Body:       raw,
	}
}

// sleep waits d or until ctx ends.
func sleep(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// parseRetryAfter reads the delay-seconds form of Retry-After (the
// only form mpcgraphd emits); anything else means no hint.
func parseRetryAfter(h string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// serverError extracts the daemon's {"error": ...} body, falling back
// to the raw bytes.
func serverError(body []byte) string {
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		return eb.Error
	}
	return strings.TrimSpace(string(body))
}

package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// coalesceRequest is the fixed request the flight tests share.
func coalesceRequest() *JobRequest {
	return &JobRequest{
		Problem:  "mis",
		Scenario: &ScenarioRequest{Name: "gnp", N: 300, Seed: 13},
		Options:  OptionsRequest{Seed: 13},
	}
}

// submitIdle posts one job to an idle (worker-less) server and returns
// its view.
func submitIdle(t *testing.T, ts *httptest.Server, req *JobRequest) *JobView {
	t.Helper()
	resp, data := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != 201 {
		t.Fatalf("submit: %s: %s", resp.Status, data)
	}
	return decodeView(t, data)
}

func cancelJobHTTP(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestCoalescedFollowerSharesLeaderResult: two identical submissions
// against an idle server occupy ONE queue slot; running the leader
// completes both with bit-identical reports, and exactly one Solve ran.
func TestCoalescedFollowerSharesLeaderResult(t *testing.T) {
	s := idleServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	leader := submitIdle(t, ts, coalesceRequest())
	follower := submitIdle(t, ts, coalesceRequest())
	if leader.Coalesced {
		t.Fatalf("leader marked coalesced")
	}
	if !follower.Coalesced {
		t.Fatalf("follower not marked coalesced")
	}
	if len(s.queue) != 1 {
		t.Fatalf("%d queue slots used by 2 coalesced submissions, want 1", len(s.queue))
	}

	job := <-s.queue
	job.run(s)

	lv := awaitTerminal(t, ts.URL, leader.ID)
	fv := awaitTerminal(t, ts.URL, follower.ID)
	if lv.State != StateDone || fv.State != StateDone {
		t.Fatalf("states %s/%s, want done/done", lv.State, fv.State)
	}
	if !bytes.Equal(mustJSON(t, lv.Canonical()), mustJSON(t, fv.Canonical())) {
		t.Errorf("follower result differs from leader result")
	}
	s.mu.Lock()
	solves, coalesces := s.solves, s.coalesces
	s.mu.Unlock()
	if solves != 1 || coalesces != 1 {
		t.Errorf("solves %d coalesces %d, want 1/1", solves, coalesces)
	}
}

// TestCancelFollowerKeepsLeader: canceling a coalesced follower
// terminates only that record — the leader still runs and completes.
func TestCancelFollowerKeepsLeader(t *testing.T) {
	s := idleServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	leader := submitIdle(t, ts, coalesceRequest())
	follower := submitIdle(t, ts, coalesceRequest())
	if code := cancelJobHTTP(t, ts, follower.ID); code != 200 {
		t.Fatalf("cancel follower: %d", code)
	}

	job := <-s.queue
	job.run(s)

	if lv := awaitTerminal(t, ts.URL, leader.ID); lv.State != StateDone {
		t.Errorf("leader state %s after follower cancel, want done", lv.State)
	}
	if fv := awaitTerminal(t, ts.URL, follower.ID); fv.State != StateCanceled {
		t.Errorf("follower state %s, want canceled", fv.State)
	}
}

// TestCancelLeaderKeepsFollower: canceling the leader record lets the
// follower ride the computation to completion.
func TestCancelLeaderKeepsFollower(t *testing.T) {
	s := idleServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	leader := submitIdle(t, ts, coalesceRequest())
	follower := submitIdle(t, ts, coalesceRequest())
	if code := cancelJobHTTP(t, ts, leader.ID); code != 200 {
		t.Fatalf("cancel leader: %d", code)
	}

	job := <-s.queue
	job.run(s)

	if lv := awaitTerminal(t, ts.URL, leader.ID); lv.State != StateCanceled {
		t.Errorf("leader state %s, want canceled", lv.State)
	}
	fv := awaitTerminal(t, ts.URL, follower.ID)
	if fv.State != StateDone || fv.Report == nil {
		t.Errorf("follower state %s (report %v) after leader cancel, want done", fv.State, fv.Report != nil)
	}
}

// TestAllRidersCanceledAbortsSolve: when every rider cancels before the
// worker arrives, the computation never runs at all.
func TestAllRidersCanceledAbortsSolve(t *testing.T) {
	s := idleServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	leader := submitIdle(t, ts, coalesceRequest())
	follower := submitIdle(t, ts, coalesceRequest())
	cancelJobHTTP(t, ts, leader.ID)
	cancelJobHTTP(t, ts, follower.ID)

	job := <-s.queue
	job.run(s)

	s.mu.Lock()
	solves := s.solves
	flights := len(s.flights)
	s.mu.Unlock()
	if solves != 0 {
		t.Errorf("%d solves ran for fully-canceled riders, want 0", solves)
	}
	if flights != 0 {
		t.Errorf("%d flights leaked", flights)
	}
}

// TestResubmitAfterCancelDoesNotRideDeadFlight: canceling every rider
// of a queued leader kills the flight's context, but the flight stays
// registered until a worker dequeues the leader. A resubmission in
// that window must start a fresh computation — attaching would strand
// it on a flight that completes no one (it used to hang forever).
func TestResubmitAfterCancelDoesNotRideDeadFlight(t *testing.T) {
	s := idleServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := submitIdle(t, ts, coalesceRequest())
	if code := cancelJobHTTP(t, ts, first.ID); code != 200 {
		t.Fatalf("cancel: %d", code)
	}

	second := submitIdle(t, ts, coalesceRequest())
	if second.Coalesced {
		t.Fatalf("resubmission coalesced onto a dead flight")
	}

	// Drain in queue order: the dead leader first, then the fresh one.
	(<-s.queue).run(s)
	(<-s.queue).run(s)

	if v := awaitTerminal(t, ts.URL, second.ID); v.State != StateDone {
		t.Fatalf("resubmitted job state %s (%s), want done", v.State, v.Error)
	}
}

// TestRidersOnDeadFlightFailInsteadOfHanging: if a flight's context
// dies while a non-terminal rider is attached (the losing side of the
// attach-vs-final-detach race), the worker must fail that rider rather
// than discard it into a forever-queued record.
func TestRidersOnDeadFlightFailInsteadOfHanging(t *testing.T) {
	s := idleServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	leader := submitIdle(t, ts, coalesceRequest())
	follower := submitIdle(t, ts, coalesceRequest())

	// Kill the context out from under both live riders, as the race
	// would: a straggler attaches just after the last rider detached.
	s.mu.Lock()
	f := s.jobs[leader.ID].flight
	s.mu.Unlock()
	f.cancel()

	(<-s.queue).run(s)

	for _, id := range []string{leader.ID, follower.ID} {
		if v := awaitTerminal(t, ts.URL, id); v.State != StateFailed {
			t.Errorf("rider %s state %s on a dead flight, want failed", id, v.State)
		}
	}
	s.mu.Lock()
	if len(s.flights) != 0 {
		t.Errorf("%d flights leaked", len(s.flights))
	}
	s.mu.Unlock()
}

// TestFlightRetiresBeforeResultVisible: once a rider observes done, a
// new identical submission must hit the cache, never attach to the
// retired flight.
func TestFlightRetiresBeforeResultVisible(t *testing.T) {
	s := idleServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	leader := submitIdle(t, ts, coalesceRequest())
	job := <-s.queue
	job.run(s)
	if lv := awaitTerminal(t, ts.URL, leader.ID); lv.State != StateDone {
		t.Fatalf("leader state %s", lv.State)
	}

	hit := submitIdle(t, ts, coalesceRequest())
	if !hit.CacheHit || hit.Coalesced {
		t.Errorf("post-completion submit: cacheHit %t coalesced %t, want hit, not coalesced", hit.CacheHit, hit.Coalesced)
	}
	if hit.CacheTier != TierMemory {
		t.Errorf("cache tier %q, want memory", hit.CacheTier)
	}
}

// TestNoCacheNeverCoalesces: a noCache submission must not ride an
// in-flight computation (its contract is a forced cold run), and an
// in-flight noCache job must not accept riders.
func TestNoCacheNeverCoalesces(t *testing.T) {
	s := idleServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submitIdle(t, ts, coalesceRequest())
	nc := coalesceRequest()
	nc.NoCache = true
	v := submitIdle(t, ts, nc)
	if v.Coalesced {
		t.Errorf("noCache submission coalesced onto a flight")
	}
	if len(s.queue) != 2 {
		t.Errorf("noCache submission did not occupy its own queue slot")
	}
}

// TestConcurrentBurstCoalesces is the end-to-end race: N identical
// submissions race against a live server whose solve is slowed by a
// failpoint; exactly one Solve runs, the rest coalesce, and every view
// is bit-identical.
func TestConcurrentBurstCoalesces(t *testing.T) {
	const burst = 6
	s, ts := newTestServer(t, Config{Workers: 2, Failpoints: "solve-delay=150ms"})

	var wg sync.WaitGroup
	views := make([]*JobView, burst)
	for i := 0; i < burst; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/v1/jobs", coalesceRequest())
			if resp.StatusCode != 201 {
				t.Errorf("burst submit %d: %s: %s", i, resp.Status, data)
				return
			}
			views[i] = decodeView(t, data)
		}()
	}
	wg.Wait()

	leaders, followers := 0, 0
	for i, v := range views {
		if v == nil {
			t.Fatalf("burst submit %d failed", i)
		}
		final := awaitTerminal(t, ts.URL, v.ID)
		if final.State != StateDone {
			t.Fatalf("burst job %s state %s (%s)", v.ID, final.State, final.Error)
		}
		if final.Coalesced {
			followers++
		} else {
			leaders++
		}
		views[i] = final
	}
	// Cache hits count as leaders here (they didn't coalesce); with a
	// 150ms solve delay and near-simultaneous submissions the common
	// outcome is 1 leader + 5 followers, but a straggler that arrives
	// after completion legitimately hits the cache instead.
	if leaders < 1 || followers < 1 {
		t.Fatalf("burst split %d leaders / %d followers — no coalescing happened", leaders, followers)
	}
	s.mu.Lock()
	solves, coalesces := s.solves, s.coalesces
	s.mu.Unlock()
	if solves != 1 {
		t.Errorf("burst of %d identical jobs ran %d solves, want 1", burst, solves)
	}
	if int(coalesces) != followers {
		t.Errorf("coalesce counter %d, but %d followers", coalesces, followers)
	}
	base := mustJSON(t, views[0].Canonical())
	for _, v := range views[1:] {
		if !bytes.Equal(base, mustJSON(t, v.Canonical())) {
			a, _ := json.Marshal(views[0].Canonical())
			b, _ := json.Marshal(v.Canonical())
			t.Errorf("burst results diverge:\n %s\n %s", a, b)
		}
	}

	// The deterministic-timers invariant: no deadline timers leak.
	time.Sleep(10 * time.Millisecond)
	s.mu.Lock()
	if len(s.flights) != 0 {
		t.Errorf("%d flights leaked after the burst", len(s.flights))
	}
	s.mu.Unlock()
}

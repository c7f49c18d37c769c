package service

import (
	"fmt"
	"net/http"
	"time"

	"mpcgraph/internal/obs"
)

// The operational endpoints. /metrics speaks the Prometheus text
// exposition format (hand-written gauges and counters plus the
// internal/obs latency histograms and Go runtime telemetry — no client
// dependency) so any standard scraper can watch a resident daemon;
// /healthz is the liveness/readiness probe — 200 while serving, 503
// once draining.

// Health is the GET /healthz body (field semantics in docs/service.md,
// "Operational endpoints").
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	QueueDepth    int     `json:"queueDepth"`
	Inflight      int     `json:"inflight"`
	Draining      bool    `json:"draining"`
	CacheDisk     string  `json:"cacheDisk"`
	CacheDiskErr  string  `json:"cacheDiskError,omitempty"`
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, inflight := s.snapshotCounts()
	draining := s.Draining()
	// The disk tier degrading (write failures) never fails the probe:
	// the daemon still serves correctly, it just stops persisting. The
	// status string surfaces it for operators.
	cacheDisk := "disabled"
	var diskErr string
	if s.cache.disk != nil {
		st := s.cache.disk.Stats()
		cacheDisk = "ok"
		if st.Degraded {
			cacheDisk = "degraded"
			diskErr = st.LastErr
		}
	}
	body := Health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		QueueDepth:    queued,
		Inflight:      inflight,
		Draining:      draining,
		CacheDisk:     cacheDisk,
		CacheDiskErr:  diskErr,
	}
	status := 200
	if draining {
		body.Status = "draining"
		status = 503
		w.Header().Set("Retry-After", "5")
	}
	writeJSON(w, status, body)
}

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	queued, inflight := s.snapshotCounts()
	mem := s.cache.mem.Stats()
	var disk diskStats
	if s.cache.disk != nil {
		disk = s.cache.disk.Stats()
	}
	// Overall misses: every L1 miss probes L2, so submissions that
	// missed both tiers are the L1 misses not recovered by a disk hit.
	misses := mem.Misses - disk.Hits

	// Only the lifecycle state is read per job — never the full view,
	// whose report rendering is O(solution size) and would make every
	// scrape stall the submit path while s.mu is held.
	s.mu.Lock()
	byState := map[JobState]int{}
	for _, id := range s.order {
		byState[s.jobs[id].currentState()]++
	}
	total := s.nextID
	solves := s.solves
	coalesces := s.coalesces
	draining := s.draining
	batchesTotal := s.nextBatchID
	batchJobs := s.batchJobs
	batchesActive := 0
	// done takes b.mu under s.mu — the established lock order (s.mu
	// before b.mu, see batch.go).
	for _, id := range s.batchOrder {
		if !s.batches[id].done() {
			batchesActive++
		}
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("# HELP mpcgraphd_up Whether the daemon is serving (1) or draining (0).\n")
	p("# TYPE mpcgraphd_up gauge\n")
	up := 1
	if draining {
		up = 0
	}
	p("mpcgraphd_up %d\n", up)
	p("# HELP mpcgraphd_uptime_seconds Seconds since the daemon started.\n")
	p("# TYPE mpcgraphd_uptime_seconds gauge\n")
	p("mpcgraphd_uptime_seconds %.3f\n", time.Since(s.start).Seconds())
	p("# HELP mpcgraphd_queue_depth Jobs admitted but not yet running.\n")
	p("# TYPE mpcgraphd_queue_depth gauge\n")
	p("mpcgraphd_queue_depth %d\n", queued)
	p("# HELP mpcgraphd_queue_capacity Bound of the job queue.\n")
	p("# TYPE mpcgraphd_queue_capacity gauge\n")
	p("mpcgraphd_queue_capacity %d\n", s.cfg.QueueDepth)
	p("# HELP mpcgraphd_jobs_inflight Jobs currently running on a worker.\n")
	p("# TYPE mpcgraphd_jobs_inflight gauge\n")
	p("mpcgraphd_jobs_inflight %d\n", inflight)
	p("# HELP mpcgraphd_jobs_submitted_total Jobs ever submitted.\n")
	p("# TYPE mpcgraphd_jobs_submitted_total counter\n")
	p("mpcgraphd_jobs_submitted_total %d\n", total)
	p("# HELP mpcgraphd_jobs Retained jobs by lifecycle state.\n")
	p("# TYPE mpcgraphd_jobs gauge\n")
	for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		p("mpcgraphd_jobs{state=%q} %d\n", st, byState[st])
	}
	p("# HELP mpcgraphd_solves_total Solve calls actually executed (cache hits and coalesced riders excluded).\n")
	p("# TYPE mpcgraphd_solves_total counter\n")
	p("mpcgraphd_solves_total %d\n", solves)
	p("# HELP mpcgraphd_coalesced_total Submissions that rode an identical in-flight computation.\n")
	p("# TYPE mpcgraphd_coalesced_total counter\n")
	p("mpcgraphd_coalesced_total %d\n", coalesces)
	p("# HELP mpcgraphd_batches_total Batches ever admitted through POST /v1/batches.\n")
	p("# TYPE mpcgraphd_batches_total counter\n")
	p("mpcgraphd_batches_total %d\n", batchesTotal)
	p("# HELP mpcgraphd_batch_jobs_total Jobs ever admitted as batch members.\n")
	p("# TYPE mpcgraphd_batch_jobs_total counter\n")
	p("mpcgraphd_batch_jobs_total %d\n", batchJobs)
	p("# HELP mpcgraphd_batches_active Retained batches with at least one non-terminal member.\n")
	p("# TYPE mpcgraphd_batches_active gauge\n")
	p("mpcgraphd_batches_active %d\n", batchesActive)
	p("# HELP mpcgraphd_cache_entries Resident entries of the result cache, by tier.\n")
	p("# TYPE mpcgraphd_cache_entries gauge\n")
	p("mpcgraphd_cache_entries{tier=\"memory\"} %d\n", mem.Entries)
	p("mpcgraphd_cache_entries{tier=\"disk\"} %d\n", disk.Entries)
	p("# HELP mpcgraphd_cache_capacity Entry bound of the result cache, by tier (disk 0 = tier disabled).\n")
	p("# TYPE mpcgraphd_cache_capacity gauge\n")
	p("mpcgraphd_cache_capacity{tier=\"memory\"} %d\n", mem.Capacity)
	p("mpcgraphd_cache_capacity{tier=\"disk\"} %d\n", disk.Capacity)
	p("# HELP mpcgraphd_cache_hits_total Result-cache hits, by serving tier.\n")
	p("# TYPE mpcgraphd_cache_hits_total counter\n")
	p("mpcgraphd_cache_hits_total{tier=\"memory\"} %d\n", mem.Hits)
	p("mpcgraphd_cache_hits_total{tier=\"disk\"} %d\n", disk.Hits)
	p("# HELP mpcgraphd_cache_misses_total Lookups that missed every cache tier.\n")
	p("# TYPE mpcgraphd_cache_misses_total counter\n")
	p("mpcgraphd_cache_misses_total %d\n", misses)
	p("# HELP mpcgraphd_cache_evictions_total Memory-tier LRU evictions.\n")
	p("# TYPE mpcgraphd_cache_evictions_total counter\n")
	p("mpcgraphd_cache_evictions_total %d\n", mem.Evictions)
	p("# HELP mpcgraphd_cache_disk_writes_total Entries persisted to the disk tier.\n")
	p("# TYPE mpcgraphd_cache_disk_writes_total counter\n")
	p("mpcgraphd_cache_disk_writes_total %d\n", disk.Writes)
	p("# HELP mpcgraphd_cache_disk_write_errors_total Failed disk-tier writes (the tier degrades, jobs are unaffected).\n")
	p("# TYPE mpcgraphd_cache_disk_write_errors_total counter\n")
	p("mpcgraphd_cache_disk_write_errors_total %d\n", disk.WriteErrors)
	p("# HELP mpcgraphd_cache_disk_quarantined_total Damaged disk entries moved aside instead of served.\n")
	p("# TYPE mpcgraphd_cache_disk_quarantined_total counter\n")
	p("mpcgraphd_cache_disk_quarantined_total %d\n", disk.Quarantined)
	p("# HELP mpcgraphd_workers Solve workers draining the queue.\n")
	p("# TYPE mpcgraphd_workers gauge\n")
	p("mpcgraphd_workers %d\n", s.cfg.Workers)

	// The latency histograms (HTTP by route/status, queue wait, solve by
	// problem/model, end-to-end, disk ops, batch settle, cache probes)
	// and the Go runtime telemetry. Families with no observations yet
	// expose nothing — a fresh daemon's scrape stays small.
	s.tel.reg.WritePrometheus(w)
	obs.WriteRuntimeProm(w)
}

// Command chaossmoke is the `make chaos-smoke` fault-injection
// harness: it proves mpcgraphd's crash-safety contract against the
// shipped binary with real signals on a real cache directory.
//
// The scenario, end to end:
//
//  1. Boot daemon A with a persistent cache dir and a solve-delay
//     failpoint, submit the full golden workload (every case of
//     testdata/golden_reports.json), and SIGKILL the process while the
//     queue is still draining — the crash no graceful path ever sees.
//  2. Inspect the cache dir: only complete, key-named entries may
//     exist (writes are temp+fsync+rename, so a torn visible entry
//     would be a bug), and leftover temp files are tolerated garbage.
//  3. Boot daemon B on the same dir and re-submit the identical
//     workload: every entry persisted before the kill must come back
//     as a disk-tier cache hit, bit-identical to the golden suite's
//     pinned costs and solution hash, with zero recomputation
//     (mpcgraphd_solves_total counts only the non-persisted cases).
//  4. Drain B, truncate one entry in place (operator-grade damage the
//     atomic write path cannot produce), boot daemon C: the scan must
//     quarantine the damaged entry and stay healthy; re-submitting
//     that case recomputes it — matching the golden again — and heals
//     the entry on disk. A concurrent burst of identical submissions
//     against C's slowed solver must coalesce onto a single flight.
//  5. SIGTERM C and require a clean exit.
//
// Usage: chaossmoke -bin <path-to-mpcgraphd> [-goldens <file>]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpcgraph/internal/service"
	"mpcgraph/internal/tools/harness"
)

func main() {
	bin := flag.String("bin", "", "path to the mpcgraphd binary")
	goldens := flag.String("goldens", "testdata/golden_reports.json", "pinned golden reports")
	flag.Parse()
	if *bin == "" {
		fmt.Fprintln(os.Stderr, "chaossmoke: -bin is required")
		os.Exit(2)
	}
	if err := run(*bin, *goldens); err != nil {
		fmt.Fprintln(os.Stderr, "chaossmoke:", err)
		os.Exit(1)
	}
	fmt.Println("chaos-smoke OK")
}

// golden is one pinned case of the golden suite; the case name both
// identifies the workload ("gnp-n600-seed7/mis/mpc") and carries
// everything needed to resubmit it.
type golden struct {
	Case            string              `json:"case"`
	Rounds          int                 `json:"rounds"`
	Phases          int                 `json:"phases"`
	MaxMachineWords int64               `json:"maxMachineWords"`
	TotalWords      int64               `json:"totalWords"`
	Violations      int                 `json:"violations"`
	SolutionHash    uint64              `json:"solutionHash"`
	req             *service.JobRequest // parsed from Case
}

var caseRe = regexp.MustCompile(`^(.+)-n(\d+)-seed(\d+)$`)

func loadGoldens(path string) ([]golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []golden
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, err
	}
	for i := range entries {
		parts := strings.Split(entries[i].Case, "/")
		if len(parts) != 3 {
			return nil, fmt.Errorf("unparseable golden case %q", entries[i].Case)
		}
		m := caseRe.FindStringSubmatch(parts[0])
		if m == nil {
			return nil, fmt.Errorf("unparseable golden instance %q", parts[0])
		}
		n, _ := strconv.Atoi(m[2])
		seed, _ := strconv.ParseUint(m[3], 10, 64)
		// The solve seed equals the scenario seed, exactly as the golden
		// suite runs it.
		entries[i].req = &service.JobRequest{
			Problem:  parts[1],
			Model:    parts[2],
			Scenario: &service.ScenarioRequest{Name: m[1], N: n, Seed: seed},
			Options:  service.OptionsRequest{Seed: seed},
		}
	}
	return entries, nil
}

func run(bin, goldenPath string) error {
	goldens, err := loadGoldens(goldenPath)
	if err != nil {
		return fmt.Errorf("goldens: %w", err)
	}
	if len(goldens) == 0 {
		return fmt.Errorf("golden suite is empty")
	}
	cacheDir, err := os.MkdirTemp("", "chaossmoke-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)

	// ---- Phase 1: fill the queue, crash mid-drain. --------------------
	a, err := harness.Start(bin, []string{"MPCGRAPHD_FAILPOINTS=solve-delay=100ms"},
		"-workers", "1", "-queue", strconv.Itoa(len(goldens)+4), "-cache-dir", cacheDir)
	if err != nil {
		return err
	}
	defer a.Reap()

	keyOf := make(map[string]string, len(goldens)) // case -> cache key
	for i := range goldens {
		view, err := a.Submit(goldens[i].req)
		if err != nil {
			return fmt.Errorf("phase 1 submit %s: %w", goldens[i].Case, err)
		}
		keyOf[goldens[i].Case] = view.CacheKey
	}
	// Let a prefix of the queue complete, then kill without ceremony.
	if err := waitDone(a, 5, 60*time.Second); err != nil {
		return fmt.Errorf("phase 1: %w", err)
	}
	if err := a.Kill(); err != nil { // SIGKILL: no drain, no flush
		return err
	}
	fmt.Printf("  phase 1: %d cases submitted, daemon SIGKILLed mid-queue\n", len(goldens))

	// ---- Phase 2: the surviving directory. ----------------------------
	persisted := make(map[string]bool)
	files, err := os.ReadDir(cacheDir)
	if err != nil {
		return err
	}
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		name := f.Name()
		if strings.HasPrefix(name, "tmp-") {
			continue // an interrupted write; daemon B's scan will delete it
		}
		if len(name) != 64 {
			return fmt.Errorf("phase 2: foreign file %q in cache dir", name)
		}
		persisted[name] = true
	}
	if len(persisted) == 0 || len(persisted) >= len(goldens) {
		return fmt.Errorf("phase 2: %d of %d entries persisted — the kill did not land mid-queue", len(persisted), len(goldens))
	}
	fmt.Printf("  phase 2: %d of %d entries survived the crash intact\n", len(persisted), len(goldens))

	// ---- Phase 3: restart, recover, zero recomputation. ---------------
	b, err := harness.Start(bin, nil, "-workers", "2", "-cache-dir", cacheDir)
	if err != nil {
		return err
	}
	defer b.Reap()
	if err := wantMetric(b, "phase 3: restarted daemon's indexed disk entries", "==", len(persisted), "mpcgraphd_cache_entries", "tier", "disk"); err != nil {
		return err
	}

	recovered := 0
	for i := range goldens {
		g := &goldens[i]
		view, err := b.Solve(g.req, 120*time.Second)
		if err != nil {
			return fmt.Errorf("phase 3 %s: %w", g.Case, err)
		}
		if persisted[keyOf[g.Case]] {
			if !view.CacheHit || view.CacheTier != service.TierDisk {
				return fmt.Errorf("phase 3 %s: persisted entry served with cacheHit=%t tier=%q, want disk hit", g.Case, view.CacheHit, view.CacheTier)
			}
			recovered++
		}
		if err := matchGolden(view, g); err != nil {
			return fmt.Errorf("phase 3 %s: %w", g.Case, err)
		}
	}
	if recovered != len(persisted) {
		return fmt.Errorf("phase 3: %d disk hits for %d persisted entries", recovered, len(persisted))
	}
	if err := wantMetric(b, "phase 3: solves (recovery must not recompute)", "==", len(goldens)-len(persisted), "mpcgraphd_solves_total"); err != nil {
		return err
	}
	if err := wantMetric(b, "phase 3: disk-tier hits", "==", len(persisted), "mpcgraphd_cache_hits_total", "tier", "disk"); err != nil {
		return err
	}
	fmt.Printf("  phase 3: all %d recovered hits bit-identical to goldens, %d recomputes, 0 excess solves\n",
		recovered, len(goldens)-len(persisted))

	if err := b.Drain(); err != nil {
		return fmt.Errorf("phase 3 drain: %w", err)
	}

	// ---- Phase 4: in-place corruption + coalescing burst. -------------
	var victim *golden
	for i := range goldens {
		if persisted[keyOf[goldens[i].Case]] {
			victim = &goldens[i]
			break
		}
	}
	victimPath := filepath.Join(cacheDir, keyOf[victim.Case])
	raw, err := os.ReadFile(victimPath)
	if err != nil {
		return err
	}
	if err := os.WriteFile(victimPath, raw[:len(raw)/2], 0o644); err != nil {
		return err
	}

	c, err := harness.Start(bin, []string{"MPCGRAPHD_FAILPOINTS=solve-delay=500ms"},
		"-workers", "2", "-cache-dir", cacheDir)
	if err != nil {
		return err
	}
	defer c.Reap()
	if err := wantMetric(c, "phase 4: quarantined_total", ">=", 1, "mpcgraphd_cache_disk_quarantined_total"); err != nil {
		return err
	}
	if health, err := c.Health(context.Background()); err != nil || health.CacheDisk != "ok" {
		return fmt.Errorf("phase 4: corruption degraded the health probe: %+v (err %v)", health, err)
	}

	// Coalescing burst: one new-key case, six concurrent submissions,
	// 500ms solve delay — one flight must absorb them all.
	burstReq := &service.JobRequest{
		Problem:  "mis",
		Scenario: &service.ScenarioRequest{Name: "gnp", N: 333, Seed: 21},
		Options:  service.OptionsRequest{Seed: 21},
	}
	const burst = 6
	var wg sync.WaitGroup
	canon := make([][]byte, burst)
	errs := make([]error, burst)
	for i := range burst {
		wg.Add(1)
		go func() {
			defer wg.Done()
			view, err := c.Solve(burstReq, 60*time.Second)
			if errs[i] = err; err == nil {
				canon[i], _ = json.Marshal(view.Canonical())
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("phase 4 burst: %w", err)
	}
	for _, got := range canon[1:] {
		if !bytes.Equal(canon[0], got) {
			return fmt.Errorf("phase 4 burst results diverge:\n %s\n %s", canon[0], got)
		}
	}
	if err := wantMetric(c, fmt.Sprintf("phase 4: solves for a burst of %d identical jobs", burst), "==", 1, "mpcgraphd_solves_total"); err != nil {
		return err
	}
	if err := wantMetric(c, "phase 4: coalesced_total", ">=", 1, "mpcgraphd_coalesced_total"); err != nil {
		return err
	}

	// Healing: the corrupted case recomputes to the golden and restores
	// its entry file.
	view, err := c.Solve(victim.req, 120*time.Second)
	if err != nil {
		return fmt.Errorf("phase 4 heal: %w", err)
	}
	if view.CacheHit {
		return fmt.Errorf("phase 4: quarantined entry was served as a cache hit")
	}
	if err := matchGolden(view, victim); err != nil {
		return fmt.Errorf("phase 4 heal %s: %w", victim.Case, err)
	}
	// The recomputed entry differs from the original only in the
	// advisory wall-time field (8 bytes) and the checksum that covers
	// it; every audited byte is pinned by the golden comparison above,
	// and the fixed-width encoding makes equal length a structural
	// equality check.
	healed, err := os.ReadFile(victimPath)
	if err != nil || len(healed) != len(raw) {
		return fmt.Errorf("phase 4: entry not healed on disk (%d bytes, want %d, err %v)", len(healed), len(raw), err)
	}
	fmt.Printf("  phase 4: corrupt entry quarantined + healed to the golden; burst of %d coalesced onto 1 solve\n", burst)

	// ---- Phase 5: clean exit. -----------------------------------------
	if err := c.Drain(); err != nil {
		return fmt.Errorf("phase 5: %w", err)
	}
	fmt.Println("  phase 5: SIGTERM drained cleanly")
	return nil
}

// matchGolden compares the wire report against the pinned golden.
func matchGolden(view *service.JobView, g *golden) error {
	rep := view.Report
	if rep == nil {
		return fmt.Errorf("no report in view")
	}
	if rep.Rounds != g.Rounds || rep.Phases != g.Phases || rep.MaxMachineWords != g.MaxMachineWords ||
		rep.TotalWords != g.TotalWords || rep.Violations != g.Violations {
		return fmt.Errorf("costs diverge from golden: got rounds=%d phases=%d maxWords=%d totalWords=%d violations=%d, want %+v",
			rep.Rounds, rep.Phases, rep.MaxMachineWords, rep.TotalWords, rep.Violations, *g)
	}
	if rep.SolutionHash != fmt.Sprintf("%016x", g.SolutionHash) {
		return fmt.Errorf("solution hash %s, golden %016x", rep.SolutionHash, g.SolutionHash)
	}
	return nil
}

// wantMetric requires the /metrics series name{kv} to be == or >= want.
func wantMetric(d *harness.Daemon, what, cmp string, want int, name string, kv ...string) error {
	v, err := d.Metric(name, kv...)
	if err == nil && (v == float64(want) || cmp == ">=" && v > float64(want)) {
		return nil
	}
	return fmt.Errorf("%s: %v (err %v), want %s %d", what, v, err, cmp, want)
}

// waitDone polls /metrics until at least want jobs are done.
func waitDone(d *harness.Daemon, want int, timeout time.Duration) error {
	deadline := time.After(timeout)
	for {
		if v, err := d.Metric("mpcgraphd_jobs", "state", "done"); err == nil && v >= float64(want) {
			return nil
		}
		select {
		case <-deadline:
			return fmt.Errorf("fewer than %d jobs finished within %v", want, timeout)
		case <-time.After(25 * time.Millisecond):
		}
	}
}

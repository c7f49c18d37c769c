package rules

import (
	"go/ast"
	"go/types"
	"strings"

	"mpcgraph/internal/analysis"
)

// wallClockAllowed reports whether a package may reference time.Now:
// package main (operational tooling and binaries), internal/registry
// (which stamps the one advisory Wall field of the Report),
// internal/service (job lifecycle timestamps, daemon uptime, and the
// disk store's file-mtime recency janitor — operational metadata that
// never enters audited costs, cache keys, or serialized Report bytes),
// and internal/obs (the telemetry core, which touches the host clock
// only to form monotonic durations — histogram observations and the
// logger's seconds-since-start field; never a wall-clock timestamp,
// see the obs package doc for the contract).
// Packages cli and client are deliberately NOT allowed: the client's
// retry budget is the sum of planned sleeps (internal/client/backoff.go),
// not measured elapsed time, which keeps retry exhaustion reproducible —
// and `mpcgraph top` computes rates over its nominal -interval for the
// same reason.
func wallClockAllowed(pass *analysis.Pass) bool {
	if pass.Pkg.Name() == "main" {
		return true
	}
	for _, allowed := range []string{"internal/registry", "internal/service", "internal/obs"} {
		if pass.RelPath == allowed || strings.HasPrefix(pass.RelPath, allowed+"/") {
			return true
		}
	}
	return false
}

// NewNoWallClock returns the no-wall-clock analyzer. It flags every
// *reference* to time.Now — calls, method values (`now := time.Now`),
// and dot-imported uses alike — because any of them lets host time leak
// into what must be a pure function of the instance and seed. Audited
// costs are model rounds and words, never host time.
func NewNoWallClock() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "no-wall-clock",
		Doc: "forbids referencing time.Now outside package main, internal/registry, internal/service, and internal/obs; " +
			"audited costs are rounds and words, never host time",
		Run: func(pass *analysis.Pass) {
			if wallClockAllowed(pass) {
				return
			}
			for _, f := range pass.Files {
				eachUse(pass, f, func(id *ast.Ident, obj types.Object) {
					if fullName(obj) != "time.Now" {
						return
					}
					pass.Reportf(id.Pos(),
						"reference to time.Now outside package main, internal/registry (the Report's advisory Wall stamp), internal/service (job lifecycle timestamps and uptime; store.go may stamp only file mtimes for its recency janitor), or internal/obs (monotonic durations only — histogram observations and the logger's seconds-since-start field; wall time never enters audited costs, cache keys, or serialized Report bytes)")
				})
			}
		},
	}
}

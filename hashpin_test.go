package mpcgraph

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// The hash pin fixes the complete Report of every matching-family
// (Problem, Model) pair — payload, audited costs and stage breakdown,
// with only Wall zeroed — at sizes where the simulation's worklists
// shrink and the boost runs many passes. The goldens of golden_test.go
// run at n ≤ 600; these instances are 2¹³ vertices, so any drift in
// the band-gated freeze scans, the worklist compaction, the boost
// scratch or the edge-id lookups shows up here. The hashes were
// recorded before those hot paths were rewritten.
var hashPins = map[string]string{
	"rmat-n8192/approx-matching/mpc":                                 "e76d1d119d69d217dcd3b3841094b6472f7ab429b9a311a53ea192651ada4069",
	"rmat-n8192/approx-matching/congested-clique":                    "5ff63bc3f8f796fddaf7f62c4860d831e22582e53b14104429f13ca9207f3255",
	"rmat-n8192/one-plus-eps-matching/mpc":                           "c0779db7a74190929a00a42732f55f4a852bb8247475498d82d97dba251d1a8b",
	"rmat-n8192/one-plus-eps-matching/congested-clique":              "4be36d45e4e91ffc68cc56160947cb80326ef5b9ecc035008284cd0616b87112",
	"rmat-n8192/vertex-cover/mpc":                                    "7f44f2d54f45aec28bf48ec695de032a73d8ffb397e437627403c59f081e6b73",
	"rmat-n8192/vertex-cover/congested-clique":                       "121d46097b8feecf656081b604e1172fb37038676e04452eb255b64de6283d08",
	"weighted-powerlaw-n8192/approx-matching/mpc":                    "14e85830cc47c57a9b54d7d32e9f987fd4a550324c01d2cd2bc290387393edea",
	"weighted-powerlaw-n8192/approx-matching/congested-clique":       "ee1045f2e2a4f35f7606f78a6aa7e992555b4cd515fd36996bebbd681534843b",
	"weighted-powerlaw-n8192/one-plus-eps-matching/mpc":              "5ec3ca553aa12c4e8dcd0f3a49d122dff4edd793ce47a45aedc4896c16127ab3",
	"weighted-powerlaw-n8192/one-plus-eps-matching/congested-clique": "443c74d16a4417fb08f8e65189ce3c2ae27a6497154bc1736653ff97d63536e7",
	"weighted-powerlaw-n8192/vertex-cover/mpc":                       "571b3411bb52380c8950689b9d53e599e753165e99a6c410e845a6389067dedf",
	"weighted-powerlaw-n8192/vertex-cover/congested-clique":          "5e753510f67b804093beb7ec636779650af16e79408ef0771faf3db623a5061a",
	"weighted-powerlaw-n8192/weighted-matching/mpc":                  "94b9cdf84ce5cf81470f06bad6cc6452e53b55ed4a209d1a86424f60f49a75ee",
	"planted-matching-n8192/approx-matching/mpc":                     "95eb02eb8efa8e44915d99e28827a2f119e3144f6815f900a1d97f7418a7530a",
	"planted-matching-n8192/approx-matching/congested-clique":        "e417915bb1842515054f51c3f57c120a7de4da9651007760cf956fbce5272ff2",
	"planted-matching-n8192/one-plus-eps-matching/mpc":               "0e361efa1ecfd1b53a39d423fa4f0882c51c1093e9192d8a41c6aab9ec0fe21a",
	"planted-matching-n8192/one-plus-eps-matching/congested-clique":  "8879f3cd30c3940dc073b2c67e3344586aa9f913d27986358ec5035a3810a733",
	"planted-matching-n8192/vertex-cover/mpc":                        "e2040523d1eba6cf60f560e0cb76e4385ba7f08b1ed11a59bdf883c8bf82d244",
	"planted-matching-n8192/vertex-cover/congested-clique":           "3259a182994f9737bc73575172172e83caea8215b38628dd2c0070003e9b0e95",
}

// hashPinInstances are the pinned inputs: a skewed R-MAT graph (2497
// of its 8192 vertices isolated), a weighted power law (the only one
// weighted matching runs on), and a sparse planted perfect matching
// (average degree 3, a known optimum for the boost).
var hashPinInstances = []struct {
	scenario string
	n        int
}{
	{"rmat", 1 << 13},
	{"weighted-powerlaw", 1 << 13},
	{"planted-matching", 1 << 13},
}

func matchingFamily(p Problem) bool {
	switch p {
	case ProblemApproxMatching, ProblemOnePlusEpsMatching, ProblemVertexCover, ProblemWeightedMatching:
		return true
	}
	return false
}

// reportSHA256 hashes the full Report with the host wall time zeroed.
func reportSHA256(t *testing.T, rep *Report) string {
	t.Helper()
	cp := *rep
	cp.Wall = 0
	data, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func TestMatchingReportHashPins(t *testing.T) {
	if testing.Short() {
		t.Skip("2¹³-vertex matching solves; skipped in -short")
	}
	seen := 0
	for _, inst := range hashPinInstances {
		in, err := GenerateScenario(inst.scenario, inst.n, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, weighted := in.(*WeightedGraph)
		for _, alg := range Algorithms() {
			if !matchingFamily(alg.Problem) || (alg.Problem == ProblemWeightedMatching && !weighted) {
				continue
			}
			name := fmt.Sprintf("%s-n%d/%s/%s", inst.scenario, inst.n, alg.Problem, alg.Model)
			seen++
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				for _, workers := range []int{1, 0} {
					rep, err := Solve(context.Background(), in, alg.Problem, Options{
						Seed:    1,
						Model:   alg.Model,
						Workers: workers,
					})
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					got := reportSHA256(t, rep)
					if want := hashPins[name]; got != want {
						t.Errorf("workers=%d: report hash %s, pinned %s", workers, got, want)
					}
				}
			})
		}
	}
	if seen != len(hashPins) {
		t.Errorf("ran %d pinned cases, table has %d", seen, len(hashPins))
	}
}

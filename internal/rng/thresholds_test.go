package rng

import (
	"math"
	"testing"
)

// TestThresholdOracleReachesMatchesAt pins the band gate to the hashed
// comparison it replaces: Reaches(y, v, t) == (y >= At(v, t)) for
// random y across and beyond the band, for y on both band edges and one
// ulp either side, and for y on and beside the threshold itself.
func TestThresholdOracleReachesMatchesAt(t *testing.T) {
	intervals := []struct {
		name   string
		lo, hi float64
	}{
		// Central-Rand's [1-4ε, 1-2ε) at both ε clamps and the default.
		{"eps=0.001", 1 - 4*0.001, 1 - 2*0.001},
		{"eps=0.1", 1 - 4*0.1, 1 - 2*0.1},
		{"eps=0.25", 1 - 4*0.25, 1 - 2*0.25},
		// FixedThreshold: lo == hi, span 0.
		{"fixed", 1 - 2*0.1, 1 - 2*0.1},
		// lo+(hi-lo) rounds above hi, then below it: Hi() differs from
		// the hi argument in the last bit.
		{"hi-rounds-up", 0.34, 0.92},
		{"hi-rounds-down", 0.19, 0.84},
	}
	src := New(11)
	for _, iv := range intervals {
		t.Run(iv.name, func(t *testing.T) {
			o := NewThresholdOracle(Hash(5, 0x7472), iv.lo, iv.hi)
			if iv.lo == iv.hi && o.Hi() != o.Lo() {
				t.Fatalf("fixed oracle has Hi %v != Lo %v", o.Hi(), o.Lo())
			}
			edges := []float64{o.Lo(), o.Hi(), iv.hi}
			check := func(y float64, v int32, it int) {
				t.Helper()
				if got, want := o.Reaches(y, v, it), y >= o.At(v, it); got != want {
					t.Fatalf("Reaches(%v, %d, %d) = %v, want %v (At %v, band [%v, %v])",
						y, v, it, got, want, o.At(v, it), o.Lo(), o.Hi())
				}
			}
			for v := int32(0); v < 64; v++ {
				for it := 0; it < 64; it++ {
					th := o.At(v, it)
					if th < o.Lo() || th > o.Hi() {
						t.Fatalf("At(%d, %d) = %v outside [Lo, Hi] = [%v, %v]", v, it, th, o.Lo(), o.Hi())
					}
					ys := []float64{
						src.UniformIn(o.Lo(), o.Hi()),
						src.UniformIn(o.Lo()-0.5, o.Hi()+0.5),
						th, math.Nextafter(th, math.Inf(-1)), math.Nextafter(th, math.Inf(1)),
					}
					for _, e := range edges {
						ys = append(ys, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
					}
					for _, y := range ys {
						check(y, v, it)
					}
				}
			}
		})
	}
}

package rng

// ThresholdOracle implements the per-vertex, per-iteration random freezing
// thresholds T_{v,t} of Central-Rand (Section 4.3 of the paper): each
// threshold is drawn independently and uniformly from [Lo, Hi), which the
// paper instantiates as [1-4eps, 1-2eps).
//
// The oracle is stateless: T_{v,t} is a pure function of (seed, v, t).
// This realizes the coupling assumed throughout the analysis of Section
// 4.4 — the hypothetical Central-Rand process and the MPC simulation must
// observe the *same* thresholds even though they evaluate them in
// different orders and at different times.
type ThresholdOracle struct {
	seed uint64
	lo   float64
	span float64
}

// NewThresholdOracle returns an oracle drawing from [lo, hi). It panics if
// hi < lo, which would indicate an epsilon bookkeeping bug in the caller.
func NewThresholdOracle(seed uint64, lo, hi float64) ThresholdOracle {
	if hi < lo {
		panic("rng: threshold interval is empty")
	}
	return ThresholdOracle{seed: seed, lo: lo, span: hi - lo}
}

// At returns T_{v,t}, the threshold for vertex v in global iteration t.
func (o ThresholdOracle) At(v int32, t int) float64 {
	u := float64(Hash(o.seed, uint64(uint32(v)), uint64(t))>>11) / (1 << 53)
	return o.lo + o.span*u
}

// Reaches reports whether y >= At(v, t), hashing only when y falls
// inside the sampling band. At is lo + span·u with u in [0, 1), and
// rounding is monotone, so lo <= At(v, t) <= Hi() for every (v, t):
// below Lo() no threshold is reached and from Hi() on every one is.
// Hi() is the rounded lo+span, which can differ from the hi passed to
// NewThresholdOracle in the last bit, so it — not hi — is the upper
// gate. A fixed threshold (lo == hi) has span 0 and never hashes.
func (o ThresholdOracle) Reaches(y float64, v int32, t int) bool {
	if y < o.lo {
		return false
	}
	if y >= o.lo+o.span {
		return true
	}
	return y >= o.At(v, t)
}

// Lo returns the lower end of the sampling interval.
func (o ThresholdOracle) Lo() float64 { return o.lo }

// Hi returns the upper end of the sampling interval.
func (o ThresholdOracle) Hi() float64 { return o.lo + o.span }

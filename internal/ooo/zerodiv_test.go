package ooo

import (
	"math"
	"testing"
)

// TestDerivedStatsZeroRuns pins the divide-by-zero audit: every derived
// metric on a zero-value (empty or drained) run returns 0, never NaN or
// Inf, so report renderers need no guards of their own.
func TestDerivedStatsZeroRuns(t *testing.T) {
	var st Stats
	checks := map[string]float64{
		"IPC":            st.IPC(),
		"SboxHitRate":    st.SboxHitRate(),
		"MispredictRate": st.MispredictRate(),
		"Stalls.Share":   st.Stalls.Share(StallExec),
	}
	for name, v := range checks {
		if math.IsNaN(v) || math.IsInf(v, 0) || v != 0 {
			t.Errorf("%s on zero-value Stats = %v, want 0", name, v)
		}
	}

	zero := &PCProfile{}
	if c, n := zero.TopStall(); n != 0 || c != StallCommit {
		t.Errorf("TopStall on zero PCProfile = %v/%d", c, n)
	}
}

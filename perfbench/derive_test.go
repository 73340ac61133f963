package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"cryptoarch/internal/metrics"
)

func TestPercentileNearestRankWithCount(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {100, 10}, {1, 1}, {0, 1}} {
		got, n := percentile(xs, tc.p)
		if got != tc.want || n != len(xs) {
			t.Errorf("percentile(p%v) = %v over %d samples, want %v over %d", tc.p, got, n, tc.want, len(xs))
		}
	}
	if got, n := percentile(nil, 50); got != 0 || n != 0 {
		t.Errorf("percentile(nil) = %v, %d; want 0, 0", got, n)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

func TestMean(t *testing.T) {
	if got := mean([]float64{3, 1.5, 1.5}); got != 2 {
		t.Errorf("mean = %v, want 2", got)
	}
	// 12 units of work at 3/s and 12 at 6/s: 24 units in 6 s.
	if got := meanRate([]float64{3, 6}); math.Abs(got-4) > 1e-12 {
		t.Errorf("meanRate = %v, want 4", got)
	}
	if got := mean(nil) + meanRate(nil) + meanRate([]float64{2, 0}); got != 0 {
		t.Errorf("mean/meanRate of nothing = %v, want 0", got)
	}
}

func TestIdleShare(t *testing.T) {
	// Two workers over 10 s with 15 s busy between them: a quarter idle.
	if got := idleShare(15*time.Second, 2, 10*time.Second); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("idleShare = %v, want 0.25", got)
	}
	if got := idleShare(20*time.Second, 2, 10*time.Second); got != 0 {
		t.Errorf("fully busy idleShare = %v, want 0", got)
	}
	if got := idleShare(0, 2, 0); got != 0 {
		t.Errorf("zero-wall idleShare = %v, want 0", got)
	}
}

// ms builds a span with times in milliseconds.
func ms(cat string, track int, parent metrics.SpanID, start, end int) metrics.Span {
	return metrics.Span{Cat: cat, Track: track, Parent: parent,
		Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

// syntheticSweep is a two-worker sweep over [0, 100] ms:
//
//	worker 1: cell [0,60] with record [0,20] and replay [30,50]; cell [60,90]
//	worker 2: cell [10,100] with replay [10,40], replay [30,70] (overlapping)
//	          and a grandchild interval [35,95] under the second replay
//	          that must not count as the cell's direct child
func syntheticSweep() []metrics.Span {
	return []metrics.Span{
		ms("sweep", 0, -1, 0, 100), // 0
		ms("cell", 1, 0, 0, 60),    // 1
		ms("record", 1, 1, 0, 20),  // 2
		ms("replay", 1, 1, 30, 50), // 3
		ms("cell", 1, 0, 60, 90),   // 4
		ms("cell", 2, 0, 10, 100),  // 5
		ms("replay", 2, 5, 10, 40), // 6
		ms("replay", 2, 5, 30, 70), // 7
		ms("interval", 0, 7, 35, 95),
	}
}

func TestSpanSelf(t *testing.T) {
	// Cell 1: 60 − (20 + 20) = 20. Cell 4: 30. Cell 5: 90 − 60 = 30.
	if got, want := spanSelf(syntheticSweep(), "cell"), 80*time.Millisecond; got != want {
		t.Errorf("cell self time = %v, want %v", got, want)
	}
	// A still-open span contributes nothing.
	open := append(syntheticSweep(), metrics.Span{Cat: "cell", Start: 0, End: -1, Parent: -1})
	if got, want := spanSelf(open, "cell"), 80*time.Millisecond; got != want {
		t.Errorf("with an open span: %v, want %v", got, want)
	}
}

func TestUnattributedShare(t *testing.T) {
	// Capacity 2 × 100 ms; cells cover 90 (worker 1) + 90 (worker 2).
	if got := unattributedShare(syntheticSweep(), 2); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("unattributed = %v, want 0.1", got)
	}
	// A cell reaching past the sweep span is clipped to it.
	spans := append(syntheticSweep(), ms("cell", 1, 0, 90, 130))
	if got := unattributedShare(spans, 2); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("clipped unattributed = %v, want 0.05", got)
	}
	if got := unattributedShare(nil, 2); got != 0 {
		t.Errorf("no sweep span: %v, want 0", got)
	}
}

func TestBoundMissRule(t *testing.T) {
	for _, tc := range []struct {
		err, bound float64
		miss       bool
	}{
		{0.05, 0.02, true},  // bound below the actual error
		{0.02, 0.05, false}, // bound covers it
		{0.03, 0.03, false}, // equal counts as covered
		{0.01, 0, true},     // a zero bound misses any error
		{0, 0, false},
	} {
		if got := boundMissed(tc.err, tc.bound); got != tc.miss {
			t.Errorf("boundMissed(err %v, bound %v) = %v, want %v", tc.err, tc.bound, got, tc.miss)
		}
	}
	if got := relErr(105, 100); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("relErr(105, 100) = %v, want 0.05", got)
	}
	if got := relErr(95, 100); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("relErr(95, 100) = %v, want 0.05", got)
	}
}

func TestMatchExperimentsMD(t *testing.T) {
	sections := []string{"### a: A\n\n| x |\n|---|\n", "### b: B\n\n| y |\n|---|\n"}
	doc := "# header\n\ntext\n\n" + sections[0] + "\n> note a\n\n" + sections[1] + "\n"
	if err := matchExperimentsMD(doc, sections); err != nil {
		t.Fatalf("matching doc: %v", err)
	}
	for name, bad := range map[string]string{
		"changed cell":  "# h\n\n" + sections[0] + "\n" + "### b: B\n\n| z |\n|---|\n" + "\n",
		"missing tail":  "# h\n\n" + sections[0] + "\n",
		"trailing text": doc + "extra\n",
	} {
		if err := matchExperimentsMD(bad, sections); err == nil {
			t.Errorf("%s: matched, want an error", name)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the benchmark prints in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the table %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, table %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

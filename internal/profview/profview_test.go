package profview_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/ooo"
	"cryptoarch/internal/profview"
)

func profiledSource(t *testing.T, cfg ooo.Config) *profview.Source {
	t.Helper()
	pr, err := harness.ProfileKernel("blowfish", isa.FeatOpt, cfg, 256, 7)
	if err != nil {
		t.Fatal(err)
	}
	return &profview.Source{
		Root:  "blowfish/opt/" + cfg.Name,
		Prog:  pr.Prog,
		Prof:  pr.Profile,
		Stats: pr.Stats,
	}
}

// TestTextView checks the annotated view carries the summary, the hot
// table, and a weight annotation on every weighted instruction line.
func TestTextView(t *testing.T) {
	s := profiledSource(t, ooo.FourWidePlus)
	var b bytes.Buffer
	profview.Text(&b, s, 10)
	out := b.String()
	for _, want := range []string{
		"profile: blowfish/opt/4W+",
		"slot budget:",
		"top 10 PCs by slots:",
		"annotated listing (slots, share):",
		"; program blowfish-opt:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text view missing %q:\n%s", want, out)
		}
	}
	hot := s.Hot(1)[0]
	if !strings.Contains(out, fmt.Sprintf("%6d  %s", hot, isa.Disasm(&s.Prog.Code[hot]))) {
		t.Errorf("hottest PC %d not in the top table", hot)
	}
}

// TestFoldedFormat checks every folded line parses as
// root;block;pc<idx>_<op> weight and the weights sum to the profile's
// total slot budget.
func TestFoldedFormat(t *testing.T) {
	s := profiledSource(t, ooo.FourWide)
	var b bytes.Buffer
	profview.Folded(&b, s)
	line := regexp.MustCompile(`^([^;]+);([^;]+);pc(\d+)_(\S+) (\d+)$`)
	var sum uint64
	n := 0
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		m := line.FindStringSubmatch(sc.Text())
		if m == nil {
			t.Fatalf("malformed folded line: %q", sc.Text())
		}
		if m[1] != s.Root {
			t.Fatalf("folded root %q, want %q", m[1], s.Root)
		}
		w, _ := strconv.ParseUint(m[5], 10, 64)
		sum += w
		n++
	}
	if n == 0 {
		t.Fatal("no folded output")
	}
	if sum != s.Prof.TotalSlots() {
		t.Fatalf("folded weights sum to %d, slot budget is %d", sum, s.Prof.TotalSlots())
	}
}

// TestReportJSON checks the report marshals and ranks like Hot().
func TestReportJSON(t *testing.T) {
	s := profiledSource(t, ooo.FourWide)
	r := profview.BuildReport(s, 5)
	if len(r.Hot) == 0 || r.Hot[0].PC != s.Hot(1)[0] {
		t.Fatalf("report hot list disagrees with Hot(): %+v", r.Hot)
	}
	if r.Metric != "slots" || r.TotalWeight != s.Prof.TotalSlots() {
		t.Fatalf("report metric/total wrong: %+v", r)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back profview.Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Hot[0].Disasm == "" || back.Hot[0].Block == "" {
		t.Fatalf("round-tripped hot entry lost fields: %+v", back.Hot[0])
	}
}

// TestDataflowViewsUseExecCycles checks the no-slot-budget fallback, and
// that a profile with no weight at all (an empty or drained run) ranks
// nothing and reports shares of 0, never NaN.
func TestDataflowViewsUseExecCycles(t *testing.T) {
	s := profiledSource(t, ooo.Dataflow)
	if s.Metric() != "exec_cycles" {
		t.Fatalf("DF metric = %q", s.Metric())
	}
	var b bytes.Buffer
	profview.Folded(&b, s)
	if b.Len() == 0 {
		t.Fatal("DF folded output empty despite execute occupancy")
	}
	r := profview.BuildReport(s, 5)
	if len(r.Hot) == 0 || r.Hot[0].Weight == 0 {
		t.Fatalf("DF report has no weighted hot PCs: %+v", r.Hot)
	}

	empty := &profview.Source{
		Root:  s.Root,
		Prog:  s.Prog,
		Prof:  &ooo.Profile{PCs: make([]ooo.PCProfile, len(s.Prog.Code))},
		Stats: &ooo.Stats{},
	}
	if hot := empty.Hot(5); len(hot) != 0 {
		t.Errorf("Hot on an all-zero profile = %v, want none", hot)
	}
	r = profview.BuildReport(empty, 5)
	if len(r.Hot) != 0 || r.TotalWeight != 0 {
		t.Errorf("report of an all-zero profile: %+v", r)
	}
	if _, err := json.Marshal(r); err != nil {
		t.Errorf("report of an all-zero profile does not marshal (NaN share?): %v", err)
	}
	b.Reset()
	profview.Text(&b, empty, 5)
	if strings.Contains(b.String(), "NaN") {
		t.Errorf("text view of an all-zero profile prints NaN:\n%s", b.String())
	}
}

// TestPprofTopConcordance is the acceptance check: `go tool pprof -top`
// over the emitted protobuf ranks the same top-5 PC frames as the text
// view's hot table.
func TestPprofTopConcordance(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go binary not on PATH: %v", err)
	}
	s := profiledSource(t, ooo.FourWidePlus)
	path := filepath.Join(t.TempDir(), "sim.pb.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := profview.WritePprof(f, s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(goBin, "tool", "pprof", "-top", "-nodecount=40", path).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -top: %v\n%s", err, out)
	}
	var pprofTop []string
	for _, l := range strings.Split(string(out), "\n") {
		fields := strings.Fields(l)
		if len(fields) == 0 {
			continue
		}
		name := fields[len(fields)-1]
		if strings.HasPrefix(name, "pc") && strings.Contains(name, "_") {
			pprofTop = append(pprofTop, name)
		}
		if len(pprofTop) == 5 {
			break
		}
	}
	var textTop []string
	for _, pc := range s.Hot(5) {
		textTop = append(textTop, profview.FrameName(s.Prog, pc))
	}
	if len(pprofTop) < 5 {
		t.Fatalf("pprof -top produced %d pc frames, want 5:\n%s", len(pprofTop), out)
	}
	for i := range textTop {
		if pprofTop[i] != textTop[i] {
			t.Fatalf("rank %d: pprof says %s, text view says %s\npprof: %v\ntext:  %v\n%s",
				i+1, pprofTop[i], textTop[i], pprofTop, textTop, out)
		}
	}
}

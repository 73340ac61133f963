package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestTable1Content pins every cell of Table 1: the paper's cipher suite
// as configured for the experiments.
func TestTable1Content(t *testing.T) {
	r, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"3des", "168", "64", "48", "CryptSoft", "SSL, SSH"},
		{"blowfish", "128", "64", "16", "CryptSoft", "Norton Utilities"},
		{"idea", "128", "64", "8", "Ascom", "PGP, SSH"},
		{"mars", "128", "128", "16", "IBM", "AES Candidate"},
		{"rc4", "128", "8", "1", "CryptSoft", "SSL"},
		{"rc6", "128", "128", "20", "RSA Security", "AES Candidate"},
		{"rijndael", "128", "128", "10", "Rijmen", "AES Candidate"},
		{"twofish", "128", "128", "16", "Counterpane", "AES Candidate"},
	}
	if len(r.Rows) != len(want) {
		t.Fatalf("Table 1 has %d rows, want %d", len(r.Rows), len(want))
	}
	for i, row := range r.Rows {
		if !slices.Equal(row, want[i]) {
			t.Errorf("Table 1 row %d = %q, want %q", i, row, want[i])
		}
	}
}

func TestTable2Content(t *testing.T) {
	r, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Columns) != 5 {
		t.Fatalf("Table 2 must have 4 machine columns: %v", r.Columns)
	}
	text := r.Text()
	for _, want := range []string{"Issue width", "SBox caches", "Rotator/XBOX units", "inf"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
	// 4W has no SBox caches: decode sends every SBOX to a D-cache port,
	// so the row must say 0, not the "inf" of an unbounded capacity.
	for _, row := range r.Rows {
		if row[0] == "SBox caches" && row[1] != "0" {
			t.Errorf("Table 2 SBox caches on 4W = %q, want 0", row[1])
		}
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{
		ID: "x", Title: "T", Note: "n",
		Columns: []string{"A", "B"},
		Rows:    [][]string{{"1", "22"}, {"333", "4"}},
	}
	txt := r.Text()
	if !strings.Contains(txt, "x — T") || !strings.Contains(txt, "333") {
		t.Fatalf("text render wrong:\n%s", txt)
	}
	md := r.Markdown()
	if !strings.Contains(md, "| A | B |") || !strings.Contains(md, "| 1 | 22 |") {
		t.Fatalf("markdown render wrong:\n%s", md)
	}
}

func TestAllRegistered(t *testing.T) {
	gens := All()
	if len(gens) != 10 {
		t.Fatalf("expected 10 experiments, got %d", len(gens))
	}
	seen := map[string]bool{}
	for _, g := range gens {
		if g.Run == nil || g.Name == "" || seen[g.Name] {
			t.Fatalf("bad generator %+v", g)
		}
		seen[g.Name] = true
	}
}

// The figure generators are exercised end-to-end by cmd/asplos2000 and the
// benchmarks; here we run the cheaper ones as smoke tests and gate the
// expensive sweeps behind -short.

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation is expensive")
	}
	r, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	rates := map[string]float64{}
	for _, row := range r.Rows {
		var v float64
		if _, err := fmtSscan(row[2], &v); err != nil {
			t.Fatal(err)
		}
		rates[row[0]] = v
	}
	// The paper's ordering claims: 3DES slowest, RC4 fastest.
	for name, v := range rates {
		if name != "3des" && v <= rates["3des"] {
			t.Errorf("%s (%f) not faster than 3des (%f)", name, v, rates["3des"])
		}
		if name != "rc4" && v >= rates["rc4"] {
			t.Errorf("%s (%f) not slower than rc4 (%f)", name, v, rates["rc4"])
		}
	}
}

func TestValuePredDiffusion(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation is expensive")
	}
	r, err := ValuePred()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		var best float64
		if _, err := fmtSscan(strings.TrimSuffix(row[1], "%"), &best); err != nil {
			t.Fatal(err)
		}
		if best > 25 {
			t.Errorf("%s: best last-value accuracy %.1f%% — diffusion should destroy value locality", row[0], best)
		}
	}
}

func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(strings.TrimSuffix(s, "%"), v)
}

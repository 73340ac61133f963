// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1 (cipher suite), Figure 2 (SSL characterization),
// Figure 4 (cipher throughput), Figure 5 (bottleneck analysis), Figure 6
// (setup cost), Figure 7 (operation mix), the Section 4.3 value-prediction
// study, Table 2 (machine models) and Figure 10 (optimized-kernel
// speedups).
package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
)

// SessionBytes is the paper's standard session length for all kernel
// measurements (Section 4.2: "for all remaining experiments, we use a
// session length of 4k bytes").
const SessionBytes = 4096

// ReportSchemaVersion stamps every JSON-rendered report so downstream
// scrapers can detect layout changes. Bump it when a field is renamed,
// removed, or changes meaning — not when rows or notes change.
const ReportSchemaVersion = 1

// Report is a rendered experiment: a title, column headers, and rows.
type Report struct {
	ID      string     `json:"id"` // e.g. "figure-4"
	Title   string     `json:"title"`
	Note    string     `json:"note,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// MarshalJSON stamps schema_version onto every JSON rendering of a
// report, whether marshaled alone or inside the asplos2000 -json array.
func (r Report) MarshalJSON() ([]byte, error) {
	type alias Report // drops the method, avoiding recursion
	return json.Marshal(struct {
		SchemaVersion int `json:"schema_version"`
		alias
	}{ReportSchemaVersion, alias(r)})
}

// JSON renders the report as machine-readable JSON, so benchmark
// trajectories can be scraped (e.g. with jq) instead of parsed from the
// aligned text tables.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Text renders the report as an aligned plain-text table.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	if r.Note != "" {
		fmt.Fprintf(&b, "%s\n", r.Note)
	}
	width := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		width[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Columns)
	for _, row := range r.Rows {
		line(row)
	}
	return b.String()
}

// Markdown renders the report as a GitHub-flavored table.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", r.ID, r.Title)
	if r.Note != "" {
		fmt.Fprintf(&b, "%s\n\n", r.Note)
	}
	b.WriteString("| " + strings.Join(r.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(r.Columns)) + "\n")
	for _, row := range r.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// rate converts a session measurement to the paper's Figure 4 metric,
// bytes encrypted per 1000 cycles. A zero-cycle run (empty session) rates
// 0 rather than +Inf, matching the other zero-guarded derived metrics.
func rate(bytes int, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(bytes) * 1000 / float64(cycles)
}

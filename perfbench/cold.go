package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"cryptoarch/internal/emu"
	"cryptoarch/internal/experiments"
	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/ooo"
	"cryptoarch/internal/pubkey"
	"cryptoarch/internal/store"
)

// coldSetups is how many times paperCold times its set-up before the
// passes; setup_s is their median.
const coldSetups = 41

// paperCold sweeps the whole paper grid exactly against a fresh store,
// assembles the reports, then sweeps it again warm against that store.
// sweep_s and sim_mips.* are means over the untraced passes.
func paperCold(r *run) (*outcome, error) {
	grid := rekey(experiments.AllCells(), r.seed)
	var (
		setups, traced, untraced []float64
		rss                      []float64
		mips                     = map[string][]float64{}
		layerRuns                []map[string]float64
		res                      *coldResults
		ref                      = newHostRef(r.workers, 0)
	)
	ref.tick()
	for i := 0; i < coldSetups; i++ {
		t0 := time.Now()
		closeStore, err := coldSetup(r, grid)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		closeStore()
	}
	minPasses := 1
	if r.trace {
		minPasses = 2 // one untraced, one traced
	}
	for i := 0; r.more(i, minPasses); i++ {
		tracedPass := r.trace && i%2 == 1
		ref.tick()
		closeStore, err := coldSetup(r, grid)
		if err != nil {
			return nil, err
		}

		p := runSweep(grid, tracedPass)
		var sections []string
		var reportWall time.Duration
		if r.seed == experiments.DefaultSeed {
			// The experiment generators read DefaultSeed cells, so reports
			// can only be assembled from a sweep at that seed.
			t := time.Now()
			sections, err = assembleReports()
			reportWall = time.Since(t)
			r.check(err == nil, "report assembly: %v", err)
		}
		total := (p.wall + reportWall).Seconds()
		fmt.Fprintf(os.Stderr, "paper-cold pass %d: %.3f s (traced %v)\n", i, total, tracedPass)
		r.checkCells("cold pass", p)
		if res == nil {
			res = r.coldChecks(grid, sections)
		}
		experiments.ResetCache()
		w := runSweep(grid, false)
		r.checkCells("warm pass", w)
		r.check(w.st.ResultHits == len(w.out.Cells), "warm pass: %d result-tier hits for %d cells", w.st.ResultHits, len(w.out.Cells))
		if i == 0 && sections != nil {
			warm, err := assembleReports()
			r.check(err == nil && strings.Join(warm, "") == strings.Join(sections, ""), "warm-store reports differ from cold reports (%v)", err)
		}
		closeStore()

		if tracedPass {
			lay := p.layers(r.workers)
			lay["experiments.report_s"] = reportWall.Seconds()
			lay["emu.record_mips"] = res.recordMIPS(p.tc)
			lay["experiments.warm_sweep_s"] = w.wall.Seconds()
			lay["experiments.warm_hit_ratio"] = float64(w.st.ResultHits) / float64(len(w.out.Cells))
			traced = append(traced, total)
			layerRuns = append(layerRuns, lay)
			continue
		}
		untraced = append(untraced, total)
		rss = append(rss, peakRSSMB())
		for k, v := range modelMIPS(p, res.timingInsts) {
			mips[k] = append(mips[k], v)
		}
	}
	ref.tick()
	out := &outcome{e2e: map[string]float64{
		"setup_s":     median(setups),
		"sweep_s":     mean(untraced),
		"peak_rss_mb": median(rss),
	}, layers: medianLayers(layerRuns), ref: ref}
	for k, vs := range mips {
		out.e2e[k] = meanRate(vs)
	}
	out.layers["metrics.trace_overhead_share"] = overhead(traced, untraced)
	return out, nil
}

// coldSetup readies a cold pass: a clean slate, a fresh store, and every
// program of the grid assembled once. The returned function closes and
// removes the store.
func coldSetup(r *run, grid []experiments.Cell) (func(), error) {
	cleanSlate()
	closeStore, err := openStore(r)
	if err != nil {
		return nil, err
	}
	if err := preflight(grid); err != nil {
		closeStore()
		return nil, err
	}
	return closeStore, nil
}

// preflight assembles and digests every program the grid executes — the
// kernel and ISA work that precedes any simulation.
func preflight(grid []experiments.Cell) error {
	seen := map[string]bool{}
	for _, c := range grid {
		kind := programKind(c.Kind)
		if kind == "" || seen[c.Cipher+"/"+c.Feat.String()+"/"+kind] {
			continue
		}
		seen[c.Cipher+"/"+c.Feat.String()+"/"+kind] = true
		k, err := kernels.Get(c.Cipher)
		if err != nil {
			return err
		}
		prog, err := k.ProgramFor(kind, c.Feat)
		if err != nil {
			return err
		}
		store.ProgramDigest(prog)
	}
	store.ProgramDigest(pubkey.BuildModExp(isa.FeatRot))
	return nil
}

// programKind is the kernel program a cell kind executes ("" for none).
func programKind(k experiments.CellKind) string {
	switch k {
	case experiments.CellKernel, experiments.CellCount, experiments.CellMix, experiments.CellValuePred:
		return "encrypt"
	case experiments.CellDecrypt:
		return "decrypt"
	case experiments.CellSetup:
		return "setup"
	}
	return ""
}

// assembleReports runs every experiment generator over the cell cache and
// returns each report's markdown, in paper order.
func assembleReports() ([]string, error) {
	var out []string
	for _, g := range experiments.All() {
		rep, err := g.Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.Name, err)
		}
		out = append(out, rep.Markdown())
	}
	return out, nil
}

// matchExperimentsMD checks that doc holds the report sections byte for
// byte, in order, after a header, with only asplos2000's one-line
// "> expectation" notes and blank lines between them.
func matchExperimentsMD(doc string, sections []string) error {
	i := strings.Index(doc, "### ")
	if i < 0 {
		return fmt.Errorf("no report sections")
	}
	rest := doc[i:]
	for n, s := range sections {
		if !strings.HasPrefix(rest, s) {
			return fmt.Errorf("report %d (%q) differs", n+1, strings.SplitN(s, "\n", 2)[0])
		}
		rest = rest[len(s):]
		if strings.HasPrefix(rest, "\n> ") {
			nl := strings.IndexByte(rest[1:], '\n')
			if nl < 0 {
				return fmt.Errorf("unterminated note after report %d", n+1)
			}
			rest = rest[1+nl+1:]
		}
		if !strings.HasPrefix(rest, "\n") {
			return fmt.Errorf("no blank line after report %d", n+1)
		}
		rest = rest[1:]
	}
	if rest != "" {
		return fmt.Errorf("%d trailing bytes after the last report", len(rest))
	}
	return nil
}

// traceKey names one recorded instruction stream: program kind, cipher,
// feature, session and seed.
type traceKey struct {
	kind, cipher string
	feat         isa.Feature
	session      int
	seed         int64
}

// coldResults holds what the first cold pass persisted: instructions per
// timing cell and per recorded trace.
type coldResults struct {
	cellInsts  map[string]uint64
	traceInsts map[traceKey]uint64
}

// timingInsts returns the instruction count of a kernel, setup or
// decrypt timing cell.
func (c *coldResults) timingInsts(cell experiments.Cell) (uint64, bool) {
	switch cell.Kind {
	case experiments.CellKernel, experiments.CellSetup, experiments.CellDecrypt:
		n, ok := c.cellInsts[cell.String()]
		return n, ok
	}
	return 0, false
}

// traceRetainCap is the harness's per-trace retention limit (3<<20
// records). A longer session records only that prefix into the trace
// cache and is counted as a resume; the rest of its stream runs live
// inside the engine.
const traceRetainCap = 3 << 20

// recordMIPS is instructions recorded per second of recording time in a
// cold pass. It returns 0 when the pass's resume count disagrees with the
// sessions longer than traceRetainCap, since the recorded prefix length is
// then unknown.
func (c *coldResults) recordMIPS(tc harness.TraceCacheStats) float64 {
	var recorded uint64
	over := 0
	for _, n := range c.traceInsts {
		if n > traceRetainCap {
			n = traceRetainCap
			over++
		}
		recorded += n
	}
	if over != tc.Resumes || tc.RecordTime <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: emu.record_mips: %d sessions over the retention cap but %d resumes\n", over, tc.Resumes)
		return 0
	}
	return float64(recorded) / tc.RecordTime.Seconds() / 1e6
}

// resultKinds maps the timing and count cell kinds to the kind name and
// program the result tier keys them by.
var resultKinds = map[experiments.CellKind][2]string{
	experiments.CellKernel:  {"kernel", "encrypt"},
	experiments.CellSetup:   {"setup", "setup"},
	experiments.CellDecrypt: {"decrypt", "decrypt"},
	experiments.CellCount:   {"count", "encrypt"},
}

// storedResult reads a cell's result back from the installed store's
// result tier.
func storedResult(c experiments.Cell) (*ooo.Stats, uint64, error) {
	kind := resultKinds[c.Kind]
	digest, err := harness.KernelDigest(c.Cipher, c.Feat, kind[1])
	if err != nil {
		return nil, 0, err
	}
	key := store.ResultIdentity{
		EngineVersion: ooo.EngineVersion,
		EmuVersion:    emu.Version,
		Kind:          kind[0],
		Cipher:        c.Cipher,
		Feat:          c.Feat.String(),
		ProgDigest:    digest,
		Session:       c.Session,
		Seed:          c.Seed,
		Config:        fmt.Sprintf("%#v", c.Cfg),
	}.Key()
	payload, _, ok := harness.CurrentStore().Get(store.TierResult, key)
	if !ok {
		return nil, 0, fmt.Errorf("not in the result tier")
	}
	var v struct {
		Stats *ooo.Stats `json:"stats"`
		N     uint64     `json:"n"`
	}
	if err := json.Unmarshal(payload, &v); err != nil {
		return nil, 0, err
	}
	if c.Kind != experiments.CellCount && v.Stats == nil {
		return nil, 0, fmt.Errorf("stored result has no stats")
	}
	return v.Stats, v.N, nil
}

// coldChecks verifies the first cold pass's outputs: every timing cell's
// persisted stats obey slots == cycles × width on finite-width machines,
// every kernel cell's instruction count equals harness.CountKernel, and at
// DefaultSeed the assembled reports match the committed EXPERIMENTS.md.
func (r *run) coldChecks(grid []experiments.Cell, sections []string) *coldResults {
	res := &coldResults{cellInsts: map[string]uint64{}, traceInsts: map[traceKey]uint64{}}
	counted := map[traceKey]uint64{}
	for _, c := range grid {
		if _, ok := resultKinds[c.Kind]; !ok {
			continue
		}
		if _, done := res.cellInsts[c.String()]; done {
			continue
		}
		st, n, err := storedResult(c)
		r.check(err == nil, "%v: %v", c, err)
		if err != nil {
			continue
		}
		if st != nil {
			n = st.Instructions
		}
		res.cellInsts[c.String()] = n
		tk := traceKey{kind: resultKinds[c.Kind][1], cipher: c.Cipher, feat: c.Feat, session: c.Session, seed: c.Seed}
		if c.Kind == experiments.CellSetup {
			tk.session = 0
		}
		res.traceInsts[tk] = n
		if st == nil {
			continue
		}
		if w := uint64(c.Cfg.IssueWidth); w > 0 {
			r.check(st.Stalls.Slots() == st.Cycles*w, "%v: slots %d != cycles %d x width %d", c, st.Stalls.Slots(), st.Cycles, w)
		}
		if c.Kind == experiments.CellKernel {
			want, ok := counted[tk]
			if !ok {
				want, err = harness.CountKernel(c.Cipher, c.Feat, c.Session, c.Seed)
				r.check(err == nil, "CountKernel %v: %v", c, err)
				counted[tk] = want
			}
			r.check(st.Instructions == want, "%v: %d instructions, CountKernel says %d", c, st.Instructions, want)
		}
	}
	if sections != nil {
		doc, err := os.ReadFile("EXPERIMENTS.md")
		if err == nil {
			err = matchExperimentsMD(string(doc), sections)
		}
		r.check(err == nil, "reports vs EXPERIMENTS.md: %v", err)
	}
	return res
}

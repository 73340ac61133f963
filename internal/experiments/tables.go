package experiments

import (
	"fmt"

	"cryptoarch/internal/kernels"
	"cryptoarch/internal/ooo"
)

// Table1 reproduces the paper's Table 1: the analyzed cipher suite.
func Table1() (*Report, error) {
	r := &Report{
		ID:      "table-1",
		Title:   "Private key symmetric ciphers analyzed",
		Columns: []string{"Cipher", "Key bits", "Block bits", "Rounds/blk", "Author", "Example application"},
	}
	for _, name := range kernels.Names() {
		k, err := kernels.Get(name)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, []string{
			k.Name, fmt.Sprint(k.KeyBits), fmt.Sprint(8 * k.BlockBytes),
			fmt.Sprint(k.Rounds), k.Author, k.Example,
		})
	}
	return r, nil
}

// Table2 reproduces the paper's Table 2: the machine models.
func Table2() (*Report, error) {
	r := &Report{
		ID:      "table-2",
		Title:   "Microarchitecture models",
		Columns: []string{"Parameter", "4W", "4W+", "8W+", "DF"},
	}
	cfgs := []ooo.Config{ooo.FourWide, ooo.FourWidePlus, ooo.EightWidePlus, ooo.Dataflow}
	get := func(f func(ooo.Config) string) []string {
		out := make([]string, len(cfgs))
		for i, c := range cfgs {
			out[i] = f(c)
		}
		return out
	}
	num := func(n int) string {
		if n <= 0 {
			return "inf"
		}
		return fmt.Sprint(n)
	}
	add := func(name string, f func(ooo.Config) string) {
		r.Rows = append(r.Rows, append([]string{name}, get(f)...))
	}
	add("Fetch (blocks/cycle)", func(c ooo.Config) string { return num(c.FetchBlocksPerCycle) })
	add("Window size", func(c ooo.Config) string { return num(c.WindowSize) })
	add("Issue width", func(c ooo.Config) string { return num(c.IssueWidth) })
	add("Integer ALUs", func(c ooo.Config) string { return num(c.NumIALU) })
	add("Multiplier lanes (32-bit)", func(c ooo.Config) string { return num(c.MulLanes) })
	add("D-cache ports", func(c ooo.Config) string { return num(c.DCachePorts) })
	// Unlike the capacities above, no SBox caches means none: decode sends
	// every SBOX to a D-cache port.
	add("SBox caches", func(c ooo.Config) string { return fmt.Sprint(c.NumSboxCaches) })
	add("SBox cache ports", func(c ooo.Config) string {
		if c.NumSboxCaches == 0 {
			return "-"
		}
		return num(c.SboxCachePorts)
	})
	add("Rotator/XBOX units", func(c ooo.Config) string { return num(c.NumRot) })
	add("Perfect memory", func(c ooo.Config) string { return fmt.Sprint(c.PerfectMem) })
	add("Perfect branch prediction", func(c ooo.Config) string { return fmt.Sprint(c.PerfectBpred) })
	add("Perfect alias detection", func(c ooo.Config) string { return fmt.Sprint(c.PerfectAlias) })
	return r, nil
}

// Command pipestats runs one cipher kernel session on a machine model and
// prints the commit-slot stall attribution: where every one of the run's
// Cycles x IssueWidth commit slots went — retired work, front-end supply,
// branch recovery, issue width, a saturated functional-unit or port pool,
// alias waits, or cache/TLB misses. This is the single-run counterpart of
// the paper's Figure 5 bottleneck study.
//
// It can also emit structured pipeline event traces: -trace writes one
// JSON object per instruction per stage; -konata writes a Kanata-format
// log loadable in the Konata pipeline visualizer.
//
// Usage:
//
//	go run ./cmd/pipestats -cipher rc4 -variant rot -model 4W
//	go run ./cmd/pipestats -cipher all -variant opt -model 8W+ -json
//	go run ./cmd/pipestats -cipher rijndael -variant opt -model 4W+ \
//	    -bytes 512 -trace out.jsonl -konata out.log
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cryptoarch/internal/experiments"
	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/ooo"
)

func main() {
	cipher := flag.String("cipher", "rc4", "cipher name, comma-separated list, or \"all\"")
	variant := flag.String("variant", "rot", "kernel variant: norot, rot, opt")
	model := flag.String("model", "4W", "machine model: 4W, 4W+, 8W+, DF, or DF+<bottleneck> (case-insensitive)")
	sessionBytes := flag.Int("bytes", experiments.SessionBytes, "session length in bytes")
	tracePath := flag.String("trace", "", "write a JSONL pipeline event trace to this file")
	konataPath := flag.String("konata", "", "write a Konata (Kanata-format) pipeline trace to this file")
	asJSON := flag.Bool("json", false, "emit each report as JSON")
	md := flag.Bool("md", false, "emit markdown tables")
	flag.Parse()

	feat, err := isa.ParseFeature(*variant)
	if err != nil {
		fatal(err)
	}
	cfg, err := ooo.ModelByName(*model)
	if err != nil {
		fatal(err)
	}
	suite := []string{*cipher}
	if *cipher == "all" {
		suite = kernels.Names()
	} else if strings.Contains(*cipher, ",") {
		suite = strings.Split(*cipher, ",")
	}

	tracing := *tracePath != "" || *konataPath != ""
	if tracing && len(suite) != 1 {
		fatal(fmt.Errorf("tracing interleaves runs: -trace/-konata need exactly one cipher, got %d", len(suite)))
	}
	var obs harness.RunObserver
	var flushers []interface{ Flush() error }
	if tracing {
		var sinks []ooo.Tracer
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			t := ooo.NewJSONLTracer(f)
			sinks, flushers = append(sinks, t), append(flushers, t)
		}
		if *konataPath != "" {
			f, err := os.Create(*konataPath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			t := ooo.NewKonataTracer(f)
			sinks, flushers = append(sinks, t), append(flushers, t)
		}
		tr := sinks[0]
		if len(sinks) > 1 {
			tr = ooo.Tee(sinks...)
		}
		obs = harness.TracerObserver(tr)
	}

	for i, name := range suite {
		r, _, err := experiments.PipeStats(name, feat, cfg, *sessionBytes, obs)
		if err != nil {
			fatal(err)
		}
		if i > 0 && !*asJSON {
			fmt.Println()
		}
		if err := experiments.Emit(os.Stdout, r, *md, *asJSON); err != nil {
			fatal(err)
		}
	}
	for _, f := range flushers {
		if err := f.Flush(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

// Command simprof runs one cipher×variant×model cell through the timing
// simulator with the per-PC cycle profiler enabled and renders the
// result: an annotated disassembly with a hot-PC table (default), a JSON
// report (-json), folded stacks for flamegraph.pl (-fold), or a gzipped
// pprof protobuf (-pprof FILE) that `go tool pprof` opens like any CPU
// profile. The instruction stream goes through the trace cache, so
// profiling a cell that has already been timed replays for free — and a
// replayed profile is bit-identical to a live one.
//
//	go run ./cmd/simprof -cipher blowfish -variant opt -model 4w+ -fold | flamegraph.pl > bf.svg
//	go run ./cmd/simprof -cipher rijndael -model 4w -pprof aes.pb.gz && go tool pprof -top aes.pb.gz
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cryptoarch/internal/experiments"
	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/ooo"
	"cryptoarch/internal/profview"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "simprof:", err)
	os.Exit(1)
}

func main() {
	cipher := flag.String("cipher", "blowfish", "cipher kernel to profile (3des, blowfish, idea, mars, rc4, rc6, rijndael, twofish)")
	variant := flag.String("variant", "rot", "ISA variant: norot, rot or opt")
	model := flag.String("model", "4W", "machine model: 4W, 4W+, 8W+, DF or DF+<bottleneck> (case-insensitive)")
	bytes := flag.Int("bytes", experiments.SessionBytes, "session length in bytes")
	seed := flag.Int64("seed", experiments.DefaultSeed, "workload seed")
	top := flag.Int("top", 10, "hot PCs listed in the text and JSON views")
	asJSON := flag.Bool("json", false, "emit the profile report as JSON")
	fold := flag.Bool("fold", false, "emit folded stacks (pipe into flamegraph.pl)")
	pprofOut := flag.String("pprof", "", "write a gzipped pprof profile to this file")
	flag.Parse()

	feat, err := isa.ParseFeature(*variant)
	if err != nil {
		fail(err)
	}
	cfg, err := ooo.ModelByName(*model)
	if err != nil {
		fail(err)
	}

	pr, err := harness.ProfileKernel(*cipher, feat, cfg, *bytes, *seed)
	if err != nil {
		fail(err)
	}
	src := &profview.Source{
		Root:  fmt.Sprintf("%s/%s/%s", *cipher, feat, cfg.Name),
		Prog:  pr.Prog,
		Prof:  pr.Profile,
		Stats: pr.Stats,
	}

	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fail(err)
		}
		if err := profview.WritePprof(f, src); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintln(os.Stderr, "wrote", *pprofOut)
		if *asJSON || *fold {
			// fall through to also emit the requested stdout view
		} else {
			return
		}
	}
	switch {
	case *fold:
		profview.Folded(os.Stdout, src)
	case *asJSON:
		b, err := json.MarshalIndent(profview.BuildReport(src, *top), "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Println(string(b))
	default:
		profview.Text(os.Stdout, src, *top)
	}
}

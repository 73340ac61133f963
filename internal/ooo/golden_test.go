package ooo_test

import (
	"fmt"
	"testing"

	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/ooo"
)

// Golden Stats captured from the pre-rewrite (map/heap-based) engine of
// PR 1, including the full Stalls breakdown, across all four machine
// models and four representative kernels (table-free, SBOX-heavy,
// store-aliasing, multiply-bound). The allocation-free hot loop must
// reproduce them bit for bit: the rewrite changed bookkeeping structures,
// never scheduling decisions. Regenerate only if the *model* changes
// intentionally (print %+v of the Stats and review the diff).
var goldenStats = map[string]string{
	"blowfish/rot/1024/4W":  `{Config:4W Cycles:21682 Instructions:43954 ClassCounts:[4488 11940 0 0 24576 0 2820 130] Branches:129 Mispredicts:2 Loads:10754 Stores:258 SboxAccesses:0 SboxHits:0 DL1Misses:190 L2Misses:2 TLBMisses:2 Stalls:[43952 12 0 0 25364 12389 0 0 0 0 0 0 4200 664 0 147 0]}`,
	"blowfish/rot/1024/4W+": `{Config:4W+ Cycles:21682 Instructions:43954 ClassCounts:[4488 11940 0 0 24576 0 2820 130] Branches:129 Mispredicts:2 Loads:10754 Stores:258 SboxAccesses:0 SboxHits:0 DL1Misses:190 L2Misses:2 TLBMisses:2 Stalls:[43952 12 0 0 25364 12389 0 0 0 0 0 0 4200 664 0 147 0]}`,
	"blowfish/rot/1024/8W+": `{Config:8W+ Cycles:21030 Instructions:43954 ClassCounts:[4488 11940 0 0 24576 0 2820 130] Branches:129 Mispredicts:2 Loads:10754 Stores:258 SboxAccesses:0 SboxHits:0 DL1Misses:186 L2Misses:2 TLBMisses:2 Stalls:[43951 16 0 0 113036 889 0 0 0 0 0 0 8197 1324 0 827 0]}`,
	"blowfish/rot/1024/DF":  `{Config:DF Cycles:19993 Instructions:43954 ClassCounts:[4488 11940 0 0 24576 0 2820 130] Branches:129 Mispredicts:0 Loads:10754 Stores:258 SboxAccesses:0 SboxHits:0 DL1Misses:0 L2Misses:0 TLBMisses:0 Stalls:[0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0]}`,

	"twofish/opt/2048/4W":  `{Config:4W Cycles:23032 Instructions:53263 ClassCounts:[8581 17920 4096 0 16384 0 6152 130] Branches:129 Mispredicts:2 Loads:5636 Stores:516 SboxAccesses:16384 SboxHits:0 DL1Misses:274 L2Misses:2 TLBMisses:2 Stalls:[53259 16 0 5 29543 5927 0 0 0 0 64 0 2545 664 0 105 0]}`,
	"twofish/opt/2048/4W+": `{Config:4W+ Cycles:18549 Instructions:53263 ClassCounts:[8581 17920 4096 0 16384 0 6152 130] Branches:129 Mispredicts:2 Loads:5636 Stores:516 SboxAccesses:16384 SboxHits:16256 DL1Misses:5 L2Misses:2 TLBMisses:2 Stalls:[53259 16 0 5 9566 10561 0 0 0 0 0 0 57 664 0 68 0]}`,
	"twofish/opt/2048/8W+": `{Config:8W+ Cycles:16257 Instructions:53263 ClassCounts:[8581 17920 4096 0 16384 0 6152 130] Branches:129 Mispredicts:2 Loads:5636 Stores:516 SboxAccesses:16384 SboxHits:16256 DL1Misses:5 L2Misses:2 TLBMisses:2 Stalls:[53255 32 0 14 63412 11466 0 0 0 0 0 0 117 1328 0 432 0]}`,
	"twofish/opt/2048/DF":  `{Config:DF Cycles:16012 Instructions:53263 ClassCounts:[8581 17920 4096 0 16384 0 6152 130] Branches:129 Mispredicts:0 Loads:5636 Stores:516 SboxAccesses:16384 SboxHits:16384 DL1Misses:0 L2Misses:0 TLBMisses:0 Stalls:[0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0]}`,

	"rc4/rot/1024/4W":  `{Config:4W Cycles:7532 Instructions:21511 ClassCounts:[6145 4096 0 0 6144 0 4100 1026] Branches:1025 Mispredicts:2 Loads:4098 Stores:3074 SboxAccesses:0 SboxHits:0 DL1Misses:344 L2Misses:2 TLBMisses:2 Stalls:[21510 16 0 5 3408 1321 0 0 0 0 184 0 3147 0 0 537 0]}`,
	"rc4/rot/1024/4W+": `{Config:4W+ Cycles:7532 Instructions:21511 ClassCounts:[6145 4096 0 0 6144 0 4100 1026] Branches:1025 Mispredicts:2 Loads:4098 Stores:3074 SboxAccesses:0 SboxHits:0 DL1Misses:344 L2Misses:2 TLBMisses:2 Stalls:[21510 16 0 5 3408 1321 0 0 0 0 184 0 3147 0 0 537 0]}`,
	"rc4/rot/1024/8W+": `{Config:8W+ Cycles:6933 Instructions:21511 ClassCounts:[6145 4096 0 0 6144 0 4100 1026] Branches:1025 Mispredicts:2 Loads:4098 Stores:3074 SboxAccesses:0 SboxHits:0 DL1Misses:301 L2Misses:2 TLBMisses:2 Stalls:[21510 32 0 13 22578 18 0 0 0 0 0 0 9504 1271 0 538 0]}`,
	"rc4/rot/1024/DF":  `{Config:DF Cycles:2088 Instructions:21511 ClassCounts:[6145 4096 0 0 6144 0 4100 1026] Branches:1025 Mispredicts:0 Loads:4098 Stores:3074 SboxAccesses:0 SboxHits:0 DL1Misses:0 L2Misses:0 TLBMisses:0 Stalls:[0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0]}`,

	"idea/opt/512/4W":  `{Config:4W Cycles:9094 Instructions:17135 ClassCounts:[2373 8932 0 2176 0 0 3588 66] Branches:65 Mispredicts:2 Loads:3458 Stores:130 SboxAccesses:0 SboxHits:0 DL1Misses:48 L2Misses:2 TLBMisses:2 Stalls:[17134 12 0 0 16954 1450 0 0 0 0 0 0 0 664 0 162 0]}`,
	"idea/opt/512/4W+": `{Config:4W+ Cycles:9094 Instructions:17135 ClassCounts:[2373 8932 0 2176 0 0 3588 66] Branches:65 Mispredicts:2 Loads:3458 Stores:130 SboxAccesses:0 SboxHits:0 DL1Misses:48 L2Misses:2 TLBMisses:2 Stalls:[17134 12 0 0 16954 1450 0 0 0 0 0 0 0 664 0 162 0]}`,
	"idea/opt/512/8W+": `{Config:8W+ Cycles:8897 Instructions:17135 ClassCounts:[2373 8932 0 2176 0 0 3588 66] Branches:65 Mispredicts:2 Loads:3458 Stores:130 SboxAccesses:0 SboxHits:0 DL1Misses:48 L2Misses:2 TLBMisses:2 Stalls:[17130 20 0 0 51567 252 0 0 0 0 0 0 0 1328 0 879 0]}`,
	"idea/opt/512/DF":  `{Config:DF Cycles:8721 Instructions:17135 ClassCounts:[2373 8932 0 2176 0 0 3588 66] Branches:65 Mispredicts:0 Loads:3458 Stores:130 SboxAccesses:0 SboxHits:0 DL1Misses:0 L2Misses:0 TLBMisses:0 Stalls:[0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0]}`,

	"twofish/opt/2048/DF+Alias":  `{Config:DF+Alias Cycles:16012 Instructions:53263 ClassCounts:[8581 17920 4096 0 16384 0 6152 130] Branches:129 Mispredicts:0 Loads:5636 Stores:516 SboxAccesses:16384 SboxHits:16384 DL1Misses:0 L2Misses:0 TLBMisses:0 Stalls:[0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0]}`,
	"twofish/opt/2048/DF+Mem":    `{Config:DF+Mem Cycles:16426 Instructions:53263 ClassCounts:[8581 17920 4096 0 16384 0 6152 130] Branches:129 Mispredicts:0 Loads:5636 Stores:516 SboxAccesses:16384 SboxHits:16256 DL1Misses:35 L2Misses:2 TLBMisses:2 Stalls:[0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0]}`,
	"twofish/opt/2048/DF+Branch": `{Config:DF+Branch Cycles:16020 Instructions:53263 ClassCounts:[8581 17920 4096 0 16384 0 6152 130] Branches:129 Mispredicts:2 Loads:5636 Stores:516 SboxAccesses:16384 SboxHits:16384 DL1Misses:0 L2Misses:0 TLBMisses:0 Stalls:[0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0]}`,
	"twofish/opt/2048/DF+Window": `{Config:DF+Window Cycles:16012 Instructions:53263 ClassCounts:[8581 17920 4096 0 16384 0 6152 130] Branches:129 Mispredicts:0 Loads:5636 Stores:516 SboxAccesses:16384 SboxHits:16384 DL1Misses:0 L2Misses:0 TLBMisses:0 Stalls:[0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0]}`,

	"rc4/opt/1024/4W+":       `{Config:4W+ Cycles:6577 Instructions:20487 ClassCounts:[8193 4096 0 0 3072 0 4100 1026] Branches:1025 Mispredicts:2 Loads:4098 Stores:3074 SboxAccesses:3072 SboxHits:0 DL1Misses:370 L2Misses:2 TLBMisses:2 Stalls:[20486 16 0 5 449 1109 0 0 0 0 0 0 3477 663 0 103 0]}`,
	"rc4/opt/1024/DF+Alias":  `{Config:DF+Alias Cycles:5135 Instructions:20487 ClassCounts:[8193 4096 0 0 3072 0 4100 1026] Branches:1025 Mispredicts:0 Loads:4098 Stores:3074 SboxAccesses:3072 SboxHits:0 DL1Misses:0 L2Misses:0 TLBMisses:0 Stalls:[0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0]}`,
	"blowfish/opt/setup/4W+": `{Config:4W+ Cycles:59051 Instructions:97021 ClassCounts:[20853 27673 0 0 33345 0 12544 2606] Branches:2605 Mispredicts:4 Loads:43786 Stores:2102 SboxAccesses:33344 SboxHits:0 DL1Misses:3 L2Misses:3 TLBMisses:2 Stalls:[97020 16 0 6 136226 0 0 0 0 0 0 0 0 655 0 2281 0]}`,
}

var goldenRuns = []struct {
	cipher string
	feat   isa.Feature
	fname  string
	sess   int
}{
	{"blowfish", isa.FeatRot, "rot", 1024},
	{"twofish", isa.FeatOpt, "opt", 2048},
	{"rc4", isa.FeatRot, "rot", 1024},
	{"idea", isa.FeatOpt, "opt", 512},
}

// goldenDecodeRuns pin the predecoded micro-op fields that depend on the
// configuration or on rare instruction forms: SBox routing by
// NumSboxCaches and the PerfectAlias, PerfectMem and PerfectBpred knobs
// (the Figure 5 DF+<knob> machines), RC4's aliased SBOX, and the
// SBOXSYNC that ends a key-setup program (session 0 times key setup).
// Captured from the engine that decoded every dynamic instruction, before
// the per-PC micro-op table replaced it.
var goldenDecodeRuns = []struct {
	cipher string
	feat   isa.Feature
	fname  string
	sess   int
	model  string
}{
	{"twofish", isa.FeatOpt, "opt", 2048, "DF+Alias"},
	{"twofish", isa.FeatOpt, "opt", 2048, "DF+Mem"},
	{"twofish", isa.FeatOpt, "opt", 2048, "DF+Branch"},
	{"twofish", isa.FeatOpt, "opt", 2048, "DF+Window"},
	{"rc4", isa.FeatOpt, "opt", 1024, "4W+"},
	{"rc4", isa.FeatOpt, "opt", 1024, "DF+Alias"},
	{"blowfish", isa.FeatOpt, "opt", 0, "4W+"},
}

func TestGoldenEngineStats(t *testing.T) {
	for _, run := range goldenRuns {
		for _, cfg := range []ooo.Config{ooo.FourWide, ooo.FourWidePlus, ooo.EightWidePlus, ooo.Dataflow} {
			key := fmt.Sprintf("%s/%s/%d/%s", run.cipher, run.fname, run.sess, cfg.Name)
			want, ok := goldenStats[key]
			if !ok {
				t.Fatalf("no golden entry for %s", key)
			}
			st, err := harness.TimeKernel(run.cipher, run.feat, cfg, run.sess, 12345)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%+v", *st); got != want {
				t.Errorf("%s: Stats diverged from the pre-rewrite engine\n got: %s\nwant: %s", key, got, want)
			}
		}
	}
	for _, run := range goldenDecodeRuns {
		sess := fmt.Sprint(run.sess)
		if run.sess == 0 {
			sess = "setup"
		}
		key := fmt.Sprintf("%s/%s/%s/%s", run.cipher, run.fname, sess, run.model)
		want, ok := goldenStats[key]
		if !ok {
			t.Fatalf("no golden entry for %s", key)
		}
		cfg, err := ooo.ModelByName(run.model)
		if err != nil {
			t.Fatal(err)
		}
		var st *ooo.Stats
		if run.sess == 0 {
			st, err = harness.TimeSetup(run.cipher, run.feat, cfg, 12345)
		} else {
			st, err = harness.TimeKernel(run.cipher, run.feat, cfg, run.sess, 12345)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%+v", *st); got != want {
			t.Errorf("%s: Stats diverged from the per-instruction decoder\n got: %s\nwant: %s", key, got, want)
		}
	}
}

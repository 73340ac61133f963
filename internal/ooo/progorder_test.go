package ooo

import (
	"fmt"
	"math/rand"
	"testing"

	"cryptoarch/internal/emu"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
)

// dataflowFamily is every named machine the program-order pass times.
func dataflowFamily(t *testing.T) []Config {
	t.Helper()
	cfgs := []Config{Dataflow}
	for _, b := range []string{"Alias", "Branch", "Window"} {
		cfg, err := BottleneckConfig(b)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// timeBothWays times one stream with Run, which must take the
// program-order pass, and with the cycle loop, and fails unless the two
// Stats are identical and within the schedule-free lower bounds. (These
// machines have perfect memory, so the harness's cache warming is moot.)
func timeBothWays(t *testing.T, cfg Config, stream func() Stream) {
	t.Helper()
	e := NewEngine(cfg, stream())
	if !e.programOrder() {
		t.Fatalf("%s: Run would not take the program-order pass", cfg.Name)
	}
	pass, err := e.Run()
	if err != nil {
		t.Fatalf("%s: program-order pass: %v", cfg.Name, err)
	}
	if e.rob != nil || e.consPool != nil {
		t.Fatalf("%s: the program-order pass took the cycle loop's ring or node pool", cfg.Name)
	}
	loop, err := NewEngine(cfg, stream()).runCycles()
	if err != nil {
		t.Fatalf("%s: cycle loop: %v", cfg.Name, err)
	}
	if got, want := fmt.Sprintf("%+v", *pass), fmt.Sprintf("%+v", *loop); got != want {
		t.Fatalf("%s: program-order pass diverged from the cycle loop\n pass: %s\n loop: %s", cfg.Name, got, want)
	}
	if err := CheckLowerBounds(cfg, stream(), pass); err != nil {
		t.Fatal(err)
	}
}

// TestProgramOrderMatchesCycleLoop pins the program-order pass to the
// cycle loop, %+v for %+v, on every machine it serves: each cipher's
// norot, rot and opt kernels encrypting 64 B, 1 KB and 4 KB, decrypting
// 1 KB and running key setup, replayed from a recording, plus live runs
// fed straight from the emulator, and the 64 B streams cut after each
// branch. 3DES rot at 4 KB runs 948,759 instructions, so DF's 2^18-entry
// window fills, and DF+Branch's mispredictions stall fetch for the branch
// penalty. -short drops the 4 KB and live runs.
func TestProgramOrderMatchesCycleLoop(t *testing.T) {
	cfgs := dataflowFamily(t)
	rng := rand.New(rand.NewSource(12345))
	bytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	type session struct {
		name string
		run  func(k *kernels.Kernel, feat isa.Feature) (*emu.Machine, error)
	}
	encrypt := func(n int) session {
		return session{fmt.Sprintf("enc%d", n), func(k *kernels.Kernel, feat isa.Feature) (*emu.Machine, error) {
			m, _, err := kernels.NewRun(k, feat, bytes(k.KeyBytes), blockIV(k, bytes), bytes(n))
			return m, err
		}}
	}
	sessions := []session{
		encrypt(64), encrypt(1 << 10),
		{"dec1024", func(k *kernels.Kernel, feat isa.Feature) (*emu.Machine, error) {
			m, _, err := kernels.NewDecRun(k, feat, bytes(k.KeyBytes), blockIV(k, bytes), bytes(1<<10))
			return m, err
		}},
		{"setup", func(k *kernels.Kernel, feat isa.Feature) (*emu.Machine, error) {
			m, _, err := kernels.NewSetupRun(k, feat, bytes(k.KeyBytes), bytes(max(k.BlockBytes, 8)))
			return m, err
		}},
	}
	if !testing.Short() {
		sessions = append(sessions, encrypt(4<<10))
	}
	for _, name := range kernels.Names() {
		k, err := kernels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, feat := range []isa.Feature{isa.FeatNoRot, isa.FeatRot, isa.FeatOpt} {
			for _, s := range sessions {
				m, err := s.run(k, feat)
				if err != nil {
					t.Fatalf("%s/%v/%s: %v", name, feat, s.name, err)
				}
				tr, complete := emu.Record(m, 0)
				if !complete {
					t.Fatalf("%s/%v/%s: recording stopped: %v", name, feat, s.name, m.Err())
				}
				for _, cfg := range cfgs {
					t.Run(fmt.Sprintf("%s/%v/%s/%s", name, feat, s.name, cfg.Name), func(t *testing.T) {
						timeBothWays(t, cfg, func() Stream { return tr.Stream() })
					})
				}
				if s.name == "enc64" {
					// Cut the stream after each branch: a stream that ends on
					// a mispredicted branch ends when fetch resumes, which
					// can be after the branch commits.
					branch, err := BottleneckConfig("Branch")
					if err != nil {
						t.Fatal(err)
					}
					uops := decode(tr.Prog.Code, &branch)
					t.Run(fmt.Sprintf("%s/%v/%s/cut/%s", name, feat, s.name, branch.Name), func(t *testing.T) {
						end := 0
						for s := tr.Stream(); ; {
							recs, ok := s.Next()
							if !ok {
								break
							}
							for _, r := range recs {
								end++
								if n := end; uops[r.Idx].br != brNone {
									timeBothWays(t, branch, func() Stream { return tr.StreamAt(0, n) })
								}
							}
						}
					})
				}
			}
		}
	}

	if testing.Short() {
		return
	}
	// Live: the pass pulls emulator batches of emu.LiveBatchRecs records.
	k, err := kernels.Get("3des")
	if err != nil {
		t.Fatal(err)
	}
	key, iv, pt := bytes(k.KeyBytes), blockIV(k, bytes), bytes(4<<10)
	for _, cfg := range cfgs {
		t.Run("live/3des/rot/enc4096/"+cfg.Name, func(t *testing.T) {
			timeBothWays(t, cfg, func() Stream {
				m, _, err := kernels.NewRun(k, isa.FeatRot, key, iv, pt)
				if err != nil {
					t.Fatal(err)
				}
				return &MachineStream{M: m}
			})
		})
	}
}

// blockIV draws an IV for a block cipher; stream ciphers take none.
func blockIV(k *kernels.Kernel, bytes func(int) []byte) []byte {
	if k.BlockBytes > 1 {
		return bytes(k.BlockBytes)
	}
	return nil
}

package harness

import (
	"fmt"
	"math/rand"
	"strings"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
)

// Differential self-check: every AXP64 kernel, at every feature level, is
// run through the functional emulator on randomized sessions and its
// output compared byte-for-byte against the pure-Go golden cipher — the
// same cross-validation the test suite performs, packaged as a library
// call so cmd/simcheck (and CI) can run it against an installed binary.
// Every timing figure in this repository rests on the emulated streams
// being functionally correct; this is the check that keeps an emulator or
// kernel regression from producing plausible-looking cycle counts for a
// cipher that no longer encrypts.

// SelfCheckOptions configures a differential run. The zero value checks
// every cipher at every feature level with one randomized trial each.
type SelfCheckOptions struct {
	Ciphers  []string      // default: every registered kernel
	Feats    []isa.Feature // default: norot, rot, opt
	Trials   int           // randomized sessions per cipher x level; default 1
	Seed     int64         // base seed; trials derive their own from it
	MaxBytes int           // session length bound; default 512
	Decrypt  bool          // also decrypt the golden ciphertext and compare
}

// SelfCheckFailure is one divergence between the emulated kernel and the
// golden model.
type SelfCheckFailure struct {
	Cipher  string
	Feat    isa.Feature
	Mode    string // "encrypt" or "decrypt"
	Session int    // session bytes
	Seed    int64  // workload seed (replays the failure deterministically)
	Detail  string
}

func (f *SelfCheckFailure) Error() string {
	return fmt.Sprintf("%s/%v %s (session %d B, seed %d): %s",
		f.Cipher, f.Feat, f.Mode, f.Session, f.Seed, f.Detail)
}

// SelfCheckResult summarizes a differential run.
type SelfCheckResult struct {
	Runs     int // emulated sessions executed
	Failures []*SelfCheckFailure
}

// Err returns nil when every run matched, or an error naming the failures.
func (r *SelfCheckResult) Err() error {
	if len(r.Failures) == 0 {
		return nil
	}
	msgs := make([]string, len(r.Failures))
	for i, f := range r.Failures {
		msgs[i] = f.Error()
	}
	return fmt.Errorf("self-check: %d of %d runs diverged:\n  %s",
		len(r.Failures), r.Runs, strings.Join(msgs, "\n  "))
}

// sessionLen picks a randomized session length: at least one block, at
// most maxBytes, and always a whole number of blocks.
func sessionLen(rng *rand.Rand, blockBytes, maxBytes int) int {
	if blockBytes < 1 {
		blockBytes = 1
	}
	if maxBytes < blockBytes {
		maxBytes = blockBytes
	}
	return (1 + rng.Intn(maxBytes/blockBytes)) * blockBytes
}

// SelfCheck runs the differential harness and reports every divergence
// (it does not stop at the first, so one broken cipher cannot mask
// another). The returned error is non-nil only for harness-level problems
// — an unknown cipher name in opts, a kernel that fails to build;
// functional divergences are reported in the result.
func SelfCheck(opts SelfCheckOptions) (*SelfCheckResult, error) {
	ciphersToRun := opts.Ciphers
	if len(ciphersToRun) == 0 {
		ciphersToRun = kernels.Names()
	}
	feats := opts.Feats
	if len(feats) == 0 {
		feats = []isa.Feature{isa.FeatNoRot, isa.FeatRot, isa.FeatOpt}
	}
	trials := opts.Trials
	if trials <= 0 {
		trials = 1
	}
	maxBytes := opts.MaxBytes
	if maxBytes <= 0 {
		maxBytes = 512
	}

	res := &SelfCheckResult{}
	for _, cipher := range ciphersToRun {
		k, err := kernels.Get(cipher)
		if err != nil {
			return nil, err
		}
		for fi, feat := range feats {
			for trial := 0; trial < trials; trial++ {
				// Distinct seed per (cipher, feat, trial) so every cell
				// sees fresh key/IV/plaintext but reruns reproduce it.
				seed := opts.Seed + int64(trial)*1_000_003 + int64(fi)*31 + int64(len(cipher))
				rng := rand.New(rand.NewSource(seed ^ 0x5e1fc8ec))
				session := sessionLen(rng, k.BlockBytes, maxBytes)

				w, err := NewWorkload(cipher, session, seed)
				if err != nil {
					return nil, err
				}
				golden, err := k.Encrypt(w.Key, w.IV, w.Plain)
				if err != nil {
					return nil, err
				}

				res.Runs++
				if fail := runEncrypt(k, feat, w, golden); fail != nil {
					res.Failures = append(res.Failures, fail)
				}
				if opts.Decrypt && k.BuildDec != nil {
					res.Runs++
					if fail := runDecrypt(k, feat, w, golden); fail != nil {
						res.Failures = append(res.Failures, fail)
					}
				}
			}
		}
	}
	return res, nil
}

// diffBytes locates the first divergence between two equal-length buffers.
func diffBytes(got, want []byte) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("first divergence at byte %d: %#02x, want %#02x", i, got[i], want[i])
		}
	}
	return ""
}

// runEncrypt emulates one encryption session and compares it to the
// golden ciphertext.
func runEncrypt(k *kernels.Kernel, feat isa.Feature, w *Workload, golden []byte) *SelfCheckFailure {
	fail := func(detail string) *SelfCheckFailure {
		return &SelfCheckFailure{Cipher: w.Cipher, Feat: feat, Mode: "encrypt",
			Session: len(w.Plain), Seed: w.Seed, Detail: detail}
	}
	m, mem, err := kernels.NewRun(k, feat, w.Key, w.IV, w.Plain)
	if err != nil {
		return fail("prepare: " + err.Error())
	}
	m.Run(nil)
	if err := m.Err(); err != nil {
		return fail("emulation fault: " + err.Error())
	}
	if d := diffBytes(mem.ReadBytes(kernels.OutAddr, len(golden)), golden); d != "" {
		return fail("ciphertext: " + d)
	}
	return nil
}

// runDecrypt emulates decryption of the golden ciphertext and compares
// the recovered plaintext to the original session.
func runDecrypt(k *kernels.Kernel, feat isa.Feature, w *Workload, golden []byte) *SelfCheckFailure {
	fail := func(detail string) *SelfCheckFailure {
		return &SelfCheckFailure{Cipher: w.Cipher, Feat: feat, Mode: "decrypt",
			Session: len(w.Plain), Seed: w.Seed, Detail: detail}
	}
	m, mem, err := kernels.NewDecRun(k, feat, w.Key, w.IV, golden)
	if err != nil {
		return fail("prepare: " + err.Error())
	}
	m.Run(nil)
	if err := m.Err(); err != nil {
		return fail("emulation fault: " + err.Error())
	}
	if d := diffBytes(mem.ReadBytes(kernels.OutAddr, len(w.Plain)), w.Plain); d != "" {
		return fail("round-trip plaintext: " + d)
	}
	return nil
}

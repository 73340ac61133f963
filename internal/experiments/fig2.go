package experiments

import (
	"fmt"

	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/ooo"
	"cryptoarch/internal/pubkey"
)

// Fig2Sessions are the session lengths swept in Figure 2.
var Fig2Sessions = []int{1024, 2048, 4096, 8192, 16384, 32768, 65536}

// Non-crypto web-server/OS cost model for Figure 2. The paper's figure is
// Intel's measurement of a loaded iA32 web server; we model the non-crypto
// share as a fixed per-session cost plus a per-byte cost (documented
// substitution in DESIGN.md).
const (
	fig2OtherPerByte = 25.0    // cycles/byte of server+OS work
	fig2OtherPerSess = 250_000 // connection handling, fixed
)

// The handshake measurement's fixed parameters. They are hoisted to
// package level because the persistent result store folds them into the
// handshake cell's identity key (store.go): editing any of them must
// invalidate stored handshake results.
const (
	handshakeSeed       = 99
	handshakeCRTSpeedup = 4
)

// handshakeFeat is the ISA level the handshake kernel is assembled at.
var handshakeFeat = isa.FeatRot

// measureHandshake times one 1024-bit private-key modular exponentiation
// — the RSA operation that dominates SSL session establishment — on the
// baseline 4W model. Production RSA implementations use the Chinese
// Remainder Theorem (two half-size exponentiations), which is very close
// to 4x faster than the straight 1024-bit exponentiation our kernel
// performs, so the measured cycle count is scaled by that factor.
func measureHandshake() (uint64, error) {
	const crtSpeedup = handshakeCRTSpeedup
	w := pubkey.NewWorkload(handshakeSeed)
	m, _ := pubkey.NewRun(w, handshakeFeat, kernels.CtxAddr, kernels.RodataAddr)
	st, err := harness.TimeMachine(m, pubkey.CtxBytes, ooo.FourWide, "rsa", handshakeFeat, nil)
	if err != nil {
		return 0, err
	}
	return st.Cycles / crtSpeedup, nil
}

// HandshakeCycles returns (running at most once per cache generation) the
// Figure 2 handshake cost.
func HandshakeCycles() (uint64, error) {
	r := getCell(Cell{Kind: CellHandshake}, false)
	return r.n, r.err
}

// fig2Bulk lists the bulk ciphers modeled in Figure 2: 3DES (the SSL
// specification default) and RC4 (the fastest in the suite).
var fig2Bulk = []string{"3des", "rc4"}

// Fig2Cells declares the Figure 2 grid: the RSA handshake plus one timed
// session per bulk cipher.
func Fig2Cells() []Cell {
	cells := []Cell{{Kind: CellHandshake}}
	for _, cipher := range fig2Bulk {
		cells = append(cells, Cell{Kind: CellKernel, Cipher: cipher, Feat: isa.FeatRot, Cfg: ooo.FourWide, Session: SessionBytes, Seed: DefaultSeed})
	}
	return cells
}

// Fig2 reproduces Figure 2: the share of session time spent in public-key
// cipher code, private-key cipher code, and everything else, as a function
// of session length.
func Fig2() (*Report, error) {
	h, err := HandshakeCycles()
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:    "figure-2",
		Title: "SSL characterization by session length (4W model)",
		Note: fmt.Sprintf("Handshake = one simulated 1024-bit RSA private op with CRT (%d cycles); other = %.0f cyc/B + %d cyc/session.",
			h, fig2OtherPerByte, fig2OtherPerSess),
		Columns: []string{"Bulk cipher", "Session", "Public key", "Private key", "Other"},
	}
	for _, cipher := range fig2Bulk {
		st, err := timed(cipher, isa.FeatRot, ooo.FourWide, SessionBytes, DefaultSeed)
		if err != nil {
			return nil, err
		}
		cyclesPerByte := float64(st.Cycles) / SessionBytes
		for _, sess := range Fig2Sessions {
			priv := cyclesPerByte * float64(sess)
			other := fig2OtherPerByte*float64(sess) + fig2OtherPerSess
			total := float64(h) + priv + other
			r.Rows = append(r.Rows, []string{
				cipher,
				fmt.Sprintf("%dB", sess),
				fmt.Sprintf("%.1f%%", 100*float64(h)/total),
				fmt.Sprintf("%.1f%%", 100*priv/total),
				fmt.Sprintf("%.1f%%", 100*other/total),
			})
		}
	}
	return r, nil
}

package circuit_test

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/pdn"
)

const cycle = 1 / 3.3e9

func compilePDN(t testing.TB, cfg pdn.Config) *circuit.Compiled {
	t.Helper()
	cp, err := pdn.Compile(cfg, cycle)
	if err != nil {
		t.Fatal(err)
	}
	return cp.Circuit()
}

// TestShippedFactorPrograms runs the row-program oracle on every
// shipped PDN's factor and pins how sparse it is: the Bulldozer factor
// has 64 nonzero of its 210 off-diagonal entries, so a topology change
// that densifies it shows up here rather than as a slower replay.
func TestShippedFactorPrograms(t *testing.T) {
	for i, cfg := range pdn.Presets() {
		t.Run(cfg.Name, func(t *testing.T) {
			cp := compilePDN(t, cfg)
			nnz, off := circuit.FactorTerms(t, cp)
			t.Logf("%d of %d off-diagonal factor entries nonzero", nnz, off)
			if cfg.Name == pdn.Bulldozer().Name && (nnz != 64 || off != 210) {
				t.Errorf("Bulldozer factor: %d of %d off-diagonal entries nonzero, want 64 of 210", nnz, off)
			}
			circuit.CheckRowProgram(t, cp, int64(i))
		})
	}
}

// BenchmarkSolveBatchKernel times one in-place substitution per op
// through each kernel (see benchSolveBatchKernel).
func BenchmarkSolveBatchKernel(b *testing.B) {
	circuit.BenchSolveBatchKernel(b, compilePDN(b, pdn.Bulldozer()))
}

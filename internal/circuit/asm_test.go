package circuit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// These suites pin the kernel equivalence contracts. The exact step's
// row program (rowProg), in Go and in AVX2 assembly, must equal the
// dense serial solve lane by lane at every width, up to the sign of
// exact zeros; the ROM step's dispatch (AVX2 on amd64, pure Go under
// `noasm` or elsewhere) must be bit-identical to the pure-Go
// reference. CI runs them both with and without the noasm tag.

// testLU factors a random diagonally dominant n×n system.
func testLU(t testing.TB, n int, seed int64) *luReal {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = rng.NormFloat64()
		}
		a[i*n+i] += float64(n) + 1
	}
	lu, err := factorReal(a, n)
	if err != nil {
		t.Fatal(err)
	}
	lu.prog = lu.program()
	return lu
}

// sparsify zeroes about frac of f's off-diagonal entries after
// factoring, a tenth of them as −0, and rebuilds its row program.
func sparsify(f *luReal, frac float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := f.n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < frac {
				f.lu[i*n+j] = 0
				if rng.Intn(10) == 0 {
					f.lu[i*n+j] = math.Copysign(0, -1)
				}
			}
		}
	}
	f.prog = f.program()
}

// substKernels lists the row-program kernels this build can run.
func substKernels() []string {
	if haveAVX2 {
		return []string{"go", "asm"}
	}
	return []string{"go"}
}

// runSubst runs f's row program through the named kernel on y, which
// holds Pb for L lanes and receives x.
func runSubst(kernel string, f *luReal, idx []int, y []float64, L int) {
	p := &f.prog
	if kernel == "asm" {
		substAVX2(idx, p.coef, p.nFwd+p.nBack, p.nFwd, y, L)
		return
	}
	substGo(idx, p.coef, p.nFwd+p.nBack, p.nFwd, y, L)
}

// permuted returns Pb for L lanes of b held lane-minor.
func permuted(f *luReal, b []float64, L int) []float64 {
	y := make([]float64, len(b))
	for i, r := range f.perm {
		copy(y[i*L:i*L+L], b[r*L:r*L+L])
	}
	return y
}

// checkRowProgram is the row program's oracle: at every width 1–33,
// through every kernel of this build, each lane must match the dense
// serial solve of that lane — bit for bit where the solve's result is
// nonzero, and == (either sign) where it is zero. Right-hand sides
// mix both signs of zero into random values, and lane 0 is all zeros.
func checkRowProgram(t *testing.T, f *luReal, seed int64) {
	t.Helper()
	n := f.n
	rng := rand.New(rand.NewSource(seed))
	negZero := math.Copysign(0, -1)
	bl := make([]float64, n)
	xl := make([]float64, n)
	for L := 1; L <= 33; L++ {
		b := make([]float64, n*L)
		for i := range b {
			switch {
			case i%L == 0 || rng.Intn(8) == 0:
				b[i] = [2]float64{0, negZero}[rng.Intn(2)]
			default:
				b[i] = rng.NormFloat64()
			}
		}
		want := make([]float64, n*L)
		for l := 0; l < L; l++ {
			gather(bl, b, L, l)
			f.solve(bl, xl)
			scatter(want, xl, L, l)
		}
		idx := f.prog.scaled(nil, L)
		for _, k := range substKernels() {
			y := permuted(f, b, L)
			runSubst(k, f, idx, y, L)
			for i := 0; i < n; i++ {
				for l := 0; l < L; l++ {
					g, w := y[i*L+l], want[i*L+l]
					if g != w || (w != 0 && math.Float64bits(g) != math.Float64bits(w)) {
						t.Fatalf("n=%d %s L=%d lane %d row %d: program %v (%#x), dense solve %v (%#x)",
							n, k, L, l, i, g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			}
		}
	}
}

// factorTerms counts f's nonzero off-diagonal entries and all of its
// off-diagonal entries, and checks that the row program holds exactly
// the nonzero ones.
func factorTerms(t *testing.T, f *luReal) (nnz, offDiag int) {
	t.Helper()
	n := f.n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && f.lu[i*n+j] != 0 {
				nnz++
			}
		}
	}
	if terms := len(f.prog.coef) - f.prog.nBack; terms != nnz {
		t.Errorf("row program holds %d terms, factor has %d nonzero off-diagonal entries", terms, nnz)
	}
	return nnz, n*n - n
}

func TestSolveBatchDispatchBitIdentical(t *testing.T) {
	t.Logf("haveAVX2 = %v", haveAVX2)
	for _, n := range []int{1, 3, 15, 24} {
		f := testLU(t, n, int64(100+n))
		if nnz, off := factorTerms(t, f); nnz != off {
			t.Fatalf("n=%d: random factor has %d of %d off-diagonal entries nonzero", n, nnz, off)
		}
		checkRowProgram(t, f, int64(n))
	}
	for _, n := range []int{15, 24} {
		f := testLU(t, n, int64(200+n))
		sparsify(f, 0.7, int64(n))
		nnz, off := factorTerms(t, f)
		t.Logf("n=%d sparsified: %d of %d off-diagonal entries nonzero", n, nnz, off)
		checkRowProgram(t, f, int64(300+n))
	}
}

// romStepBatchGo is the pure-Go lane-major batch loop — the reference
// StepTraceBatch's dispatch is checked against.
func romStepBatchGo(rb *ROMBatch, dst, src [][]float64, mul, div []float64, n int) {
	L := rb.lanes
	muLane := rb.muLane
	for l := 0; l < L; l++ {
		gather(muLane, rb.mu, L, l)
		romStepKernel(rb.rom, muLane, rb.vstar[l], dst[l][:n], src[l], mul[l], div[l], n)
		scatter(rb.mu, muLane, L, l)
	}
}

func TestROMStepBatchDispatchBitIdentical(t *testing.T) {
	cp, rom, _, _ := romFixture(t, pdnLadder3)
	const steps = 500
	for _, lanes := range []int{1, 2, 4, 8, 16, 32, 6, 11} {
		src := batchDrive(lanes, steps)
		mul := make([]float64, lanes)
		div := make([]float64, lanes)
		got := make([][]float64, lanes)
		want := make([][]float64, lanes)
		rb := rom.NewBatch(lanes)
		ref := rom.NewBatch(lanes)
		for l := 0; l < lanes; l++ {
			mul[l] = 1e-12
			div[l] = 1e-10 * (1.2 + 0.02*float64(l))
			got[l] = make([]float64, steps)
			want[l] = make([]float64, steps)
			add := 0.1 + 0.05*float64(l)
			rb.LoadLane(l, cp.NewState(), add)
			ref.LoadLane(l, cp.NewState(), add)
		}
		rb.StepTraceBatch(got, src, mul, div, steps)
		romStepBatchGo(ref, want, src, mul, div, steps)
		for l := 0; l < lanes; l++ {
			for i := 0; i < steps; i++ {
				if got[l][i] != want[l][i] {
					t.Fatalf("lanes=%d lane %d step %d: dispatch %v != pure Go %v", lanes, l, i, got[l][i], want[l][i])
				}
			}
		}
		// End states must match too — the next chunk continues from mu.
		gm := make([]float64, rom.Order())
		wm := make([]float64, rom.Order())
		for l := 0; l < lanes; l++ {
			gv := rb.LaneModal(l, gm)
			wv := ref.LaneModal(l, wm)
			if gv != wv {
				t.Fatalf("lanes=%d lane %d: vstar %v != %v", lanes, l, gv, wv)
			}
			for i := range gm {
				if gm[i] != wm[i] {
					t.Fatalf("lanes=%d lane %d coord %d: mu %v != %v", lanes, l, i, gm[i], wm[i])
				}
			}
		}
	}
}

// benchSolveBatchKernel is BenchmarkSolveBatchKernel (which lives in
// pdnfactor_test.go to reach the shipped factor). go/ and asm/ rows
// run one solve through each kernel on a random dense 15×15 factor —
// the row program's worst case, with no zero to skip at the shipped
// PDN's MNA dimension; pdn/ rows run this build's dispatch on the
// shipped Bulldozer factor. Each op restores the right-hand side
// first, since the solve is in place.
func benchSolveBatchKernel(b *testing.B, bulldozer *luReal) {
	dense := testLU(b, 15, 42)
	run := func(name, kernel string, f *luReal, L int) {
		b.Run(name, func(b *testing.B) {
			if kernel == "asm" && !haveAVX2 {
				b.Skip("AVX2 kernels unavailable in this build")
			}
			rhs := make([]float64, f.n*L)
			rng := rand.New(rand.NewSource(9))
			for i := range rhs {
				rhs[i] = rng.NormFloat64()
			}
			y := make([]float64, len(rhs))
			idx := f.prog.scaled(nil, L)
			for i := 0; i < b.N; i++ {
				copy(y, rhs)
				if kernel == "" {
					f.prog.subst(idx, y, L)
				} else {
					runSubst(kernel, f, idx, y, L)
				}
			}
		})
	}
	for _, L := range []int{8, 32} {
		run(fmt.Sprintf("go/Lanes%d", L), "go", dense, L)
		run(fmt.Sprintf("asm/Lanes%d", L), "asm", dense, L)
	}
	for _, L := range []int{1, 8, 32} {
		run(fmt.Sprintf("pdn/Lanes%d", L), "", bulldozer, L)
	}
}

// BenchmarkROMStepBatchKernel compares the lane-major pure-Go modal
// kernel against the 4-lane AVX2 groups.
func BenchmarkROMStepBatchKernel(b *testing.B) {
	cp, rom, _, _ := romFixture(b, pdnLadder3)
	const steps = 65536
	for _, lanes := range []int{8, 32} {
		src := batchDrive(lanes, steps)
		dst := make([][]float64, lanes)
		mul := make([]float64, lanes)
		div := make([]float64, lanes)
		for l := 0; l < lanes; l++ {
			dst[l] = make([]float64, steps)
			mul[l], div[l] = 1, 1
		}
		mk := func() *ROMBatch {
			rb := rom.NewBatch(lanes)
			for l := 0; l < lanes; l++ {
				rb.LoadLane(l, cp.NewState(), 0.2)
			}
			return rb
		}
		b.Run(fmt.Sprintf("go/Lanes%d", lanes), func(b *testing.B) {
			rb := mk()
			b.SetBytes(int64(steps * 8 * lanes))
			for i := 0; i < b.N; i++ {
				romStepBatchGo(rb, dst, src, mul, div, steps)
			}
		})
		b.Run(fmt.Sprintf("asm/Lanes%d", lanes), func(b *testing.B) {
			if !haveAVX2 {
				b.Skip("AVX2 kernels unavailable in this build")
			}
			rb := mk()
			b.SetBytes(int64(steps * 8 * lanes))
			for i := 0; i < b.N; i++ {
				rb.StepTraceBatch(dst, src, mul, div, steps)
			}
		})
	}
}

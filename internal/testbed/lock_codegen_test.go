package testbed_test

import (
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/testbed"
)

// defaultShape is the genome shape of a default resonance search: a
// 36-cycle loop, half of it the high-power region in 6-cycle
// sub-blocks, the rest NOPs.
const (
	shapeK, shapeS, shapeLP = 6, 3, 17
	lockTestCycles          = 3000
)

// codeGen returns the default search's code generator for p.
func codeGen(p testbed.Platform) *core.CodeGen {
	var ops []*isa.Opcode
	for _, op := range core.DefaultOpcodeList() {
		if p.Chip.HasFMA || op.Class != isa.ClassFMA {
			ops = append(ops, op)
		}
	}
	return &core.CodeGen{Opcodes: ops, Width: p.Chip.DecodeWidth, LoopIters: 1 << 40, MemBytes: 4096}
}

// genomeRun builds a random default-shape genome and its 4-thread run.
func genomeRun(tb testing.TB, p testbed.Platform, cg *core.CodeGen, rng *rand.Rand, cycles uint64) (*asm.Program, testbed.RunConfig) {
	tb.Helper()
	prog, err := cg.Build("lock", cg.NewGenome(rng, shapeK, shapeS, shapeLP, 0.25))
	if err != nil {
		tb.Fatal(err)
	}
	threads, err := testbed.SpreadPlacement(p.Chip, prog, 4)
	if err != nil {
		tb.Fatal(err)
	}
	return prog, testbed.RunConfig{Threads: threads, MaxCycles: cycles}
}

// TestLockedCaptureRandomGenomes is the schedule lock's differential
// oracle: random default-shape genomes on Bulldozer and Phenom, plain,
// dithered and FP-throttled, must capture bit for bit as the full model
// does — under the Brent search and with locks forced at sampled
// boundaries whose timing recurs. Every genome must lock somewhere.
func TestLockedCaptureRandomGenomes(t *testing.T) {
	genomes := 6
	if testing.Short() {
		genomes = 2
	}
	for _, p := range []testbed.Platform{testbed.Bulldozer(), testbed.Phenom()} {
		cp, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		cg := codeGen(p)
		rng := rand.New(rand.NewSource(int64(len(p.Chip.Name))))
		for g := 0; g < genomes; g++ {
			_, rc := genomeRun(t, p, cg, rng, lockTestCycles)
			variants := []struct {
				name   string
				adjust func(*testbed.RunConfig)
			}{
				{"plain", func(*testbed.RunConfig) {}},
				{"throttle", func(rc *testbed.RunConfig) { rc.FPThrottle = 1 }},
				{"dither", func(rc *testbed.RunConfig) {
					plan, err := core.ExactDither([]int{rc.Threads[0].GlobalCore(p.Chip)}, 36, 2)
					if err != nil {
						t.Fatal(err)
					}
					rc.Dither = plan.Specs
				}},
			}
			for _, v := range variants {
				rc := rc
				v.adjust(&rc)
				name := p.Chip.Name + "/" + v.name
				brent := testbed.CheckLockedCapture(t, cp, rc)
				forced := testbed.CheckForcedLocks(t, cp, rc, 4)
				if v.name != "dither" && brent == 0 && forced == 0 {
					t.Errorf("%s genome %d: never locked", name, g)
				}
			}
		}
	}
}

// BenchmarkBuildTraceLocked times phase-1 capture of a default-shape
// genome (Bulldozer, 4 threads, 8000 cycles): one op is one capture,
// reported as ns per captured cycle alongside the fraction of cycles
// replayed under the schedule lock.
func BenchmarkBuildTraceLocked(b *testing.B) {
	p := testbed.Bulldozer()
	cp, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	if err := testbed.PinChipPool(cp); err != nil {
		b.Fatal(err)
	}
	_, rc := genomeRun(b, p, codeGen(p), rand.New(rand.NewSource(1)), 8000)
	before := cp.TraceStats()
	b.ReportAllocs()
	b.ResetTimer()
	cycles := 0
	for i := 0; i < b.N; i++ {
		n, err := testbed.Capture(cp, rc)
		if err != nil {
			b.Fatal(err)
		}
		cycles += n
	}
	b.StopTimer()
	after := cp.TraceStats()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
	b.ReportMetric(float64(after.LockedCycles-before.LockedCycles)/float64(cycles), "locked-frac")
}

package testbed

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// neverLock is a lock plan that probes nothing: the capture runs the
// full chip model on every cycle, which is the reference a locked
// capture must reproduce.
func neverLock(int, uint64) int { return 0 }

// captureWithPlan runs one phase-1 capture with the given lock plan
// (nil: the Brent search) and reports the cycles it replayed locked.
func (cp *CompiledPlatform) captureWithPlan(rc RunConfig, plan func(b int, fp uint64) int) (*chipTrace, uint64, error) {
	cp.lockPlan = plan
	defer func() { cp.lockPlan = nil }()
	before := cp.TraceStats().LockedCycles
	tr, err := cp.buildTrace(rc)
	return tr, cp.TraceStats().LockedCycles - before, err
}

// traceDiff describes the first difference between two captures, or
// returns "" when they are bit-identical in everything a capture
// yields: every per-cycle energy bit pattern and issue word, the end
// flags and counters, and the whole-trace periodic decision.
func traceDiff(a, b *chipTrace) string {
	if len(a.energy) != len(b.energy) || len(a.issues) != len(b.issues) {
		return fmt.Sprintf("length %d/%d vs %d/%d", len(a.energy), len(a.issues), len(b.energy), len(b.issues))
	}
	for i := range a.energy {
		if math.Float64bits(a.energy[i]) != math.Float64bits(b.energy[i]) {
			return fmt.Sprintf("cycle %d energy %v vs %v", i, a.energy[i], b.energy[i])
		}
		if a.issues[i] != b.issues[i] {
			return fmt.Sprintf("cycle %d issues %#x vs %#x", i, a.issues[i], b.issues[i])
		}
	}
	type fixed struct {
		done, unsupported, periodic  bool
		endStats, refStats, perStats any
		endRetired, refRet, perRet   uint64
		headLen, periodLen           int
		periodEnergy, maxEnergy      uint64
		periodIssues                 [isa.NumUnits]uint64
	}
	f := func(t *chipTrace) fixed {
		return fixed{t.done, t.unsupported, t.periodic, t.endStats, t.refStats, t.perStats,
			t.endRetired, t.refRetired, t.perRetired, t.headLen, t.periodLen,
			math.Float64bits(t.periodEnergy), math.Float64bits(t.maxEnergy), t.periodIssues}
	}
	if fa, fb := f(a), f(b); fa != fb {
		return fmt.Sprintf("end state %+v vs %+v", fa, fb)
	}
	return ""
}

// timingRecurrences captures rc on the full model and returns the trace
// and, for each boundary b, the distance to the next boundary with an
// equal lock-search fingerprint (0 when there is none): the candidate
// periods a forced probe at b can try.
func (cp *CompiledPlatform) timingRecurrences(rc RunConfig) (*chipTrace, []int, error) {
	fps := make([]uint64, rc.MaxCycles+1)
	tr, _, err := cp.captureWithPlan(rc, func(b int, fp uint64) int {
		fps[b] = fp
		return 0
	})
	if err != nil {
		return nil, nil, err
	}
	rec := make([]int, len(fps))
	next := map[uint64]int{}
	for b := len(tr.energy); b >= 1; b-- {
		if n, ok := next[fps[b]]; ok {
			rec[b] = n - b
		}
		next[fps[b]] = b
	}
	return tr, rec, nil
}

// sampleBoundaries picks up to n boundaries with a recurring
// fingerprint, evenly spread over the run.
func sampleBoundaries(rec []int, n int) []int {
	var all []int
	for b, p := range rec {
		if p > 0 {
			all = append(all, b)
		}
	}
	if len(all) <= n {
		return all
	}
	out := make([]int, n)
	for i := range out {
		out[i] = all[i*len(all)/n]
	}
	return out
}

// probeAt is the lock plan that probes period p at boundary b only.
func probeAt(b, p int) func(int, uint64) int {
	return func(bb int, _ uint64) int {
		if bb == b {
			return p
		}
		return 0
	}
}

// checkLockedCapture captures rc twice, without and with the schedule
// lock search, requires bit-identical traces and returns the locked
// cycles.
func checkLockedCapture(t testing.TB, cp *CompiledPlatform, rc RunConfig) uint64 {
	t.Helper()
	ref, _, err := cp.captureWithPlan(rc, neverLock)
	if err != nil {
		t.Fatal(err)
	}
	got, locked, err := cp.captureWithPlan(rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := traceDiff(ref, got); d != "" {
		t.Fatalf("locked capture differs from the full model (%d cycles locked): %s", locked, d)
	}
	return locked
}

// checkForcedLocks probes up to n sampled boundaries whose timing
// fingerprint recurs, each in its own capture, requires every capture
// to equal the full model bit for bit, and returns how many locked.
func checkForcedLocks(t testing.TB, cp *CompiledPlatform, rc RunConfig, n int) int {
	t.Helper()
	ref, rec, err := cp.timingRecurrences(rc)
	if err != nil {
		t.Fatal(err)
	}
	locks := 0
	for _, b := range sampleBoundaries(rec, n) {
		got, locked, err := cp.captureWithPlan(rc, probeAt(b, rec[b]))
		if err != nil {
			t.Fatal(err)
		}
		if d := traceDiff(ref, got); d != "" {
			t.Fatalf("lock probed at %d with period %d (%d cycles locked): %s", b, rec[b], locked, d)
		}
		if locked > 0 {
			locks++
		}
	}
	return locks
}

// TestLockedCaptureMatchesFull: hand-built dec/jnz loops capture
// bit-identically to the full model, alone and with dither injections,
// an FP throttle or a start skew, both under the Brent search and with
// locks forced at sampled boundaries. Undithered runs lock for most of
// the capture; a dithered chip's schedule repeats only once the dither
// has swept every alignment (2304 cycles here), past Brent's reach in
// 6000 cycles, so only forced probes lock it.
func TestLockedCaptureMatchesFull(t *testing.T) {
	for _, p := range []Platform{Bulldozer(), Phenom()} {
		name := p.Chip.Name
		cp, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		period := resonancePeriodCycles(p)
		threads, err := SpreadPlacement(p.Chip, mulLoop("lock", period), 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name   string
			brent  bool // the Brent search must lock
			adjust func(*RunConfig)
		}{
			{"plain", true, func(*RunConfig) {}},
			{"throttle", true, func(rc *RunConfig) { rc.FPThrottle = 1 }},
			{"dither", false, func(rc *RunConfig) {
				rc.Dither = []DitherSpec{{Core: threads[1].GlobalCore(p.Chip), PeriodCycles: uint64(2 * period), PadCycles: 1}}
			}},
			{"skew", true, func(rc *RunConfig) { rc.Threads[2].StartSkew = 7 }},
		} {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				rc := RunConfig{Threads: append([]ThreadSpec(nil), threads...), MaxCycles: 6000}
				tc.adjust(&rc)
				locked := checkLockedCapture(t, cp, rc)
				if tc.brent && locked < rc.MaxCycles/2 {
					t.Errorf("%d of %d cycles locked, want most of the run", locked, rc.MaxCycles)
				}
				if n := checkForcedLocks(t, cp, rc, 6); n == 0 {
					t.Errorf("no forced probe locked")
				}
			})
		}
	}
}

// TestLockRefusals: runs whose timing may depend on data, or whose
// steady state misses in L1, must never lock — and still capture
// exactly as the full model does.
func TestLockRefusals(t *testing.T) {
	p := Bulldozer()
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	body := func(b *asm.Builder) {
		for i := 0; i < 6; i++ {
			b.RR("mulpd", isa.XMM(i), isa.XMM(12+i%4))
			b.RR("add", isa.GPR(8+i%4), isa.GPR(6))
			b.Nop(2)
		}
	}
	iters := int64(1 << 40)
	build := func(name string, f func(b *asm.Builder)) *asm.Program {
		b := asm.NewBuilder(name)
		b.SetMem(64 << 10)
		b.InitToggle(16, 8)
		b.RI("movimm", isa.RCX, iters)
		b.RI("movimm", isa.RBP, 0)
		b.Label("loop")
		f(b)
		return b.MustBuild()
	}
	// The loop closer reads the flag of a data op.
	dataFlag := build("dataflag", func(b *asm.Builder) {
		body(b)
		b.RR("dec", isa.RCX, isa.RCX)
		b.RR("add", isa.GPR(8), isa.GPR(6))
		b.Branch("jnz", "loop")
	})
	// A memory base register is written inside the loop.
	baseWrite := build("basewrite", func(b *asm.Builder) {
		body(b)
		b.Load("load", isa.GPR(9), isa.RBP, 64)
		b.RR("add", isa.RBP, isa.GPR(6))
		b.RR("dec", isa.RCX, isa.RCX)
		b.Branch("jnz", "loop")
	})
	// Six loads to one L1 set (four ways): every iteration misses.
	l1 := p.Chip
	setStride := int32(l1.L1Bytes / l1.L1Ways)
	misses := build("misses", func(b *asm.Builder) {
		body(b)
		for i := 0; i < 6; i++ {
			b.Load("load", isa.GPR(9+i%4), isa.RBP, int32(i)*setStride)
		}
		b.RR("dec", isa.RCX, isa.RCX)
		b.Branch("jnz", "loop")
	})
	closed := func(b *asm.Builder) {
		body(b)
		b.RR("dec", isa.RCX, isa.RCX)
		b.Branch("jnz", "loop")
	}
	plain := build("plain", closed)
	// The loop counter runs out inside the run: the loop exits and
	// the program ends.
	iters = 150
	short := build("short", closed)
	for _, tc := range []struct {
		name   string
		prog   *asm.Program
		adjust func(*RunConfig)
		lock   bool
	}{
		{"plain", plain, nil, true},
		{"data-flag", dataFlag, nil, false},
		{"base-write", baseWrite, nil, false},
		{"L1-misses", misses, nil, false},
		{"counter-runs-out", short, nil, false},
		{"max-instrs", plain, func(rc *RunConfig) {
			for i := range rc.Threads {
				rc.Threads[i].MaxInstrs = 1 << 30
			}
		}, false},
		{"hetero", plain, func(rc *RunConfig) { rc.Threads[3].Program = baseWrite }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			threads, err := SpreadPlacement(p.Chip, tc.prog, 4)
			if err != nil {
				t.Fatal(err)
			}
			rc := RunConfig{Threads: threads, MaxCycles: 4000}
			if tc.adjust != nil {
				tc.adjust(&rc)
			}
			// Probe every boundary whose timing fingerprint recurs, at
			// the distance it recurs: a run that may not lock must
			// refuse each one.
			ref, rec, err := cp.timingRecurrences(rc)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range sampleBoundaries(rec, 16) {
				got, locked, err := cp.captureWithPlan(rc, probeAt(b, rec[b]))
				if err != nil {
					t.Fatal(err)
				}
				if d := traceDiff(ref, got); d != "" {
					t.Fatalf("probe at %d+%d: capture differs from the full model: %s", b, rec[b], d)
				}
				if locked > 0 && !tc.lock {
					t.Fatalf("probe at %d+%d locked %d cycles", b, rec[b], locked)
				}
			}
			if locked := checkLockedCapture(t, cp, rc); (locked > 0) != tc.lock {
				t.Fatalf("Brent search: %d cycles locked, want lock=%v", locked, tc.lock)
			}
		})
	}
}

// FuzzLockedCaptureEquivalence: a fuzzed loop body — opcodes, registers
// and NOP padding drawn from the input, closed by dec rcx; jnz — must
// capture bit-identically with and without the schedule lock, on four
// threads of Bulldozer, with the fuzzed FP throttle and dither period.
func FuzzLockedCaptureEquivalence(f *testing.F) {
	p := Bulldozer()
	cp, err := p.Compile()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(0), uint8(0))
	f.Add([]byte{9, 17, 33, 65, 129, 200, 3, 3, 3, 41}, uint8(1), uint8(40))
	f.Fuzz(func(t *testing.T, body []byte, throttle, dither uint8) {
		if len(body) > 64 {
			body = body[:64]
		}
		prog, ok := fuzzLoop(body)
		if !ok {
			return
		}
		threads, err := SpreadPlacement(p.Chip, prog, 4)
		if err != nil {
			t.Fatal(err)
		}
		rc := RunConfig{Threads: threads, MaxCycles: 2500, FPThrottle: int(throttle % 3)}
		if dither > 0 {
			rc.Dither = []DitherSpec{{Core: threads[0].GlobalCore(p.Chip), PeriodCycles: uint64(dither), PadCycles: 1}}
		}
		checkLockedCapture(t, cp, rc)
	})
}

// fuzzLoop builds a stressmark-shaped loop from fuzz bytes: each byte
// picks an opcode of the repertoire (or a NOP) and its registers, with
// loads and stores on the reserved base register.
func fuzzLoop(body []byte) (*asm.Program, bool) {
	var ops []*isa.Opcode
	for _, op := range isa.AllOpcodes() {
		switch op.Class {
		case isa.ClassBranch, isa.ClassBarrier:
			continue
		}
		ops = append(ops, op)
	}
	b := asm.NewBuilder("fuzz")
	b.SetMem(4096)
	b.InitToggle(16, 8)
	b.RI("movimm", isa.RCX, 1<<40)
	b.RI("movimm", isa.RBP, 0)
	b.Label("loop")
	for i, x := range body {
		if x&7 == 7 {
			b.Nop(1)
			continue
		}
		op := ops[int(x)%len(ops)]
		gpr := op.RegKind == isa.RegGPR
		dst, src := isa.XMM(int(x>>3)%12), isa.XMM(12+i%4)
		if gpr {
			dst, src = isa.GPR(8+int(x>>3)%8), isa.GPR(6+i%2)
		}
		in := isa.Instruction{Op: op}
		switch op.Shape {
		case isa.ShapeRR:
			in.Dst, in.Src1 = dst, src
		case isa.ShapeRRR:
			in.Dst, in.Src1, in.Src2 = dst, src, isa.XMM(12+(i+1)%4)
		case isa.ShapeRI:
			in.Dst, in.Imm = dst, int64(x)
		case isa.ShapeLoad:
			in.Dst, in.MemBase, in.MemDisp = dst, isa.RBP, int32(64*i%4096)
		case isa.ShapeStore:
			in.Src1, in.MemBase, in.MemDisp = dst, isa.RBP, int32(64*i%4096)
		default:
			b.Nop(1)
			continue
		}
		b.Raw(in)
	}
	b.RR("dec", isa.RCX, isa.RCX)
	b.Branch("jnz", "loop")
	prog, err := b.Build()
	return prog, err == nil
}

package cpu

import (
	"math"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/uarch"
)

// TestCheckLoop pins the schedule lock's static check: which loops it
// proves data-independent and which counter registers it finds.
func TestCheckLoop(t *testing.T) {
	prologue := func(b *asm.Builder) {
		b.SetMem(4096)
		b.RI("movimm", isa.RCX, 1<<40)
		b.RI("movimm", isa.RBP, 0)
		b.Label("loop")
		b.RR("mulpd", isa.XMM(0), isa.XMM(12))
		b.Load("load", isa.GPR(8), isa.RBP, 64)
		b.RR("add", isa.GPR(9), isa.GPR(6))
	}
	for _, tc := range []struct {
		name string
		body func(b *asm.Builder)
		ok   bool
	}{
		{"dec-jnz", func(b *asm.Builder) {
			b.RR("dec", isa.RCX, isa.RCX)
			b.Branch("jnz", "loop")
		}, true},
		{"jmp", func(b *asm.Builder) { b.Branch("jmp", "loop") }, true},
		{"flag-from-data-op", func(b *asm.Builder) {
			b.RR("dec", isa.RCX, isa.RCX)
			b.RR("add", isa.GPR(10), isa.GPR(6))
			b.Branch("jnz", "loop")
		}, false},
		{"counter-written", func(b *asm.Builder) {
			b.RR("add", isa.RCX, isa.GPR(6))
			b.RR("dec", isa.RCX, isa.RCX)
			b.Branch("jnz", "loop")
		}, false},
		{"base-written", func(b *asm.Builder) {
			b.RR("add", isa.RBP, isa.GPR(6))
			b.RR("dec", isa.RCX, isa.RCX)
			b.Branch("jnz", "loop")
		}, false},
		{"jnz-is-a-target", func(b *asm.Builder) {
			b.RR("dec", isa.RCX, isa.RCX)
			b.Label("closer")
			b.Branch("jnz", "loop")
			b.Branch("jmp", "closer")
		}, false},
		{"no-loop", func(b *asm.Builder) { b.Nop(1) }, false},
	} {
		b := asm.NewBuilder(tc.name)
		prologue(b)
		tc.body(b)
		p, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		th, err := NewThread(p, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if th.loop.ok != tc.ok {
			t.Errorf("%s: static check %v, want %v", tc.name, th.loop.ok, tc.ok)
		}
		wantCounter := tc.ok && tc.name == "dec-jnz"
		if got := th.loop.counter[isa.RCX.FlatIndex()]; tc.ok && got != wantCounter {
			t.Errorf("%s: rcx counter %v, want %v", tc.name, got, wantCounter)
		}
	}
}

// lockstepCompare steps a full chip and a chip that probes for a
// schedule lock from boundary start on, testing the probe as a period
// at every later boundary, and requires every observable to match cycle
// by cycle: the cycle result bit for bit, StateFingerprint, Stats and
// the retired counts. It returns the boundary the lock took hold at
// (-1: never). Like buildTrace, it calls Done before each cycle and
// probes after it, so both ends of a period see the same phase.
func lockstepCompare(t *testing.T, full, locked *Chip, cycles, start int) int {
	t.Helper()
	at, probing := -1, false
	for cyc := 0; cyc < cycles; cyc++ {
		if full.Done() != locked.Done() {
			t.Fatalf("cycle %d: Done %v vs %v", cyc, full.Done(), locked.Done())
		}
		if full.Done() {
			break
		}
		a, b := full.Step(), locked.Step()
		if math.Float64bits(a.EnergyPJ) != math.Float64bits(b.EnergyPJ) || a.UnitIssues != b.UnitIssues || a.Decoded != b.Decoded {
			t.Fatalf("cycle %d (locked at %d): result %+v vs %+v", cyc, at, a, b)
		}
		if fa, fb := full.StateFingerprint(), locked.StateFingerprint(); fa != fb {
			t.Fatalf("cycle %d (locked at %d): fingerprint %#x vs %#x", cyc, at, fa, fb)
		}
		if sa, sb := full.Stats(), locked.Stats(); sa != sb || full.Retired() != locked.Retired() {
			t.Fatalf("cycle %d (locked at %d): stats %+v/%d vs %+v/%d", cyc, at, sa, full.Retired(), sb, locked.Retired())
		}
		for g := 0; g < full.Config().Threads(); g++ {
			if ra, rb := full.CoreRetired(g), locked.CoreRetired(g); ra != rb {
				t.Fatalf("cycle %d (locked at %d): core %d retired %d vs %d", cyc, at, g, ra, rb)
			}
		}
		if probing && locked.TryLock() {
			probing = false
		}
		if at < 0 && locked.Locked() {
			at = cyc + 1
		}
		if cyc+1 == start {
			probing = locked.BeginLockProbe(uint64(cycles - start))
		}
	}
	return at
}

// TestLockedChipMatchesFullChip runs the golden capture scenarios, and
// an FMA/memory loop under a power model whose constants use every
// mantissa bit (so a reordered float addition shows), twice side by
// side: a chip that takes a schedule lock must stay indistinguishable
// from the full model on every observable, whatever cycle the probe
// starts at.
func TestLockedChipMatchesFullChip(t *testing.T) {
	scenarios := equivScenarios()
	ugly := power.BulldozerModel()
	ugly.ClockPJPerModuleCycle *= math.Pi / 3
	ugly.CorePJPerActiveCycle *= math.E / 2
	ugly.FrontEndPJPerOp *= math.Sqrt2
	ugly.SchedPJPerIssue *= math.Phi
	ugly.FPIdlePJPerCycle *= math.Ln2
	scenarios = append(scenarios, equivScenario{name: "ugly-power", cycles: 4000, setup: func(t *testing.T) *Chip {
		prog := mustProgram(t, "ugly", func(b *asm.Builder) {
			b.SetMem(4096)
			b.InitToggle(16, 8)
			b.RI("movimm", isa.RCX, 1<<30)
			b.Label("loop")
			for i := 0; i < 3; i++ {
				b.RRR("vfmadd132pd", isa.XMM(i), isa.XMM(12+i%2), isa.XMM(14))
				b.Load("load", isa.GPR(8+i), isa.RBP, int32(64*i))
				b.RR("add", isa.GPR(11+i), isa.GPR(6))
				b.Nop(1)
			}
			b.Store("store", isa.RBP, 512, isa.GPR(9))
			b.RR("dec", isa.RCX, isa.RCX)
			b.Branch("jnz", "loop")
		})
		ch, err := NewChip(uarch.Bulldozer(), ugly)
		if err != nil {
			t.Fatal(err)
		}
		attachAll(t, ch, prog, 0)
		return ch
	}})
	locks := 0
	for _, sc := range scenarios {
		for _, start := range []int{200, 901, 1777} {
			at := lockstepCompare(t, sc.setup(t), sc.setup(t), sc.cycles, start)
			t.Logf("%s, probe from %d: locked at %d", sc.name, start, at)
			if at >= 0 {
				locks++
			}
		}
	}
	if locks < 6 {
		t.Errorf("only %d lockstep runs locked", locks)
	}
}

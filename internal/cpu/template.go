package cpu

import (
	"repro/internal/asm"
	"repro/internal/isa"
)

// This file is the capture-side fast path's front half: every static
// instruction of a program is compiled once, at NewThread, into a flat
// uopTemplate — operand register indices, branch kind, energy and
// latency constants, dependency/flag behaviour and a pre-resolved exec
// kernel — so neither Thread.step nor the chip's decode/issue/execute
// stages re-interpret isa.Instruction fields per dynamic instance.
// Templates change scheduling-irrelevant representation only: the
// golden and randomized equivalence tests hold the template path
// bit-identical to the reference interpreter.

// SrcA selection (the toggle-accounting primary source), mirroring the
// precedence of the interpreter: explicit source, else old destination,
// else loaded memory value.
const (
	srcANone uint8 = iota
	srcASrc1
	srcADstOld
	srcAMem
)

// Branch kinds. brOther covers hypothetical conditional opcodes the
// interpreter treats as always-taken.
const (
	brNone uint8 = iota
	brJmp
	brCond
	brOther
)

// uopTemplate is the pre-decoded form of one static instruction.
type uopTemplate struct {
	in   *isa.Instruction
	exec isa.ExecFn
	pc   int32 // index of the static instruction

	class isa.Class
	unit  isa.Unit

	// Register-file flat indices; -1 when the operand is absent.
	dstIdx    int16 // architectural write target (Dest())
	dstOldIdx int16 // implicit dst read of two-operand forms
	src1Idx   int16
	src2Idx   int16
	baseIdx   int16 // address base of memory-shaped ops

	// Rename sources in program order (dst-as-src, src1, src2, base).
	srcRegs [4]int16
	nsrc    uint8

	srcASel   uint8
	dstIsSrc  bool
	flagWrite bool
	isMem     bool
	isLoad    bool
	isStore   bool
	isFP      bool

	branchKind uint8
	backBranch bool
	inLoop     bool // in the steady-state loop (checkLoop)
	target     int
	btHash     uint32 // predictor index base (static per branch site)

	disp uint64 // sign-extended MemDisp

	barrierID   int64
	barrierSlot int32 // chip barrier-registry slot, filled at Attach

	energyPJ   float64
	oneMinusTF float64 // 1 - ToggleFraction, folded once at compile
	toggleTF   float64
	latency    uint64
	recipTP    uint64
}

// compileTemplates pre-decodes every instruction of p.
func compileTemplates(p *asm.Program) []uopTemplate {
	tmpl := make([]uopTemplate, len(p.Code))
	for pc := range p.Code {
		in := &p.Code[pc]
		op := in.Op
		t := &tmpl[pc]
		t.in = in
		t.pc = int32(pc)
		t.exec = isa.KernelOf(in)
		t.class = op.Class
		t.unit = op.Unit
		t.isFP = op.Unit == isa.UnitFPU
		t.isMem = op.Class.IsMem()
		t.isLoad = op.Class == isa.ClassLoad
		t.isStore = op.Class == isa.ClassStore
		t.energyPJ = op.EnergyPJ
		t.oneMinusTF = 1 - op.ToggleFraction
		t.toggleTF = op.ToggleFraction
		t.latency = uint64(op.Latency)
		t.recipTP = uint64(op.RecipThroughput)
		t.dstIdx, t.dstOldIdx, t.src1Idx, t.src2Idx, t.baseIdx = -1, -1, -1, -1, -1
		t.barrierSlot = -1

		if d := in.Dest(); d.Valid() {
			t.dstIdx = int16(d.FlatIndex())
			t.flagWrite = d.Kind == isa.RegGPR && flagWriting(op.Class)
		}
		t.dstIsSrc = op.DstIsSrc && in.Dst.Valid()
		if t.dstIsSrc {
			t.dstOldIdx = int16(in.Dst.FlatIndex())
		}
		if in.Src1.Valid() {
			t.src1Idx = int16(in.Src1.FlatIndex())
		}
		if in.Src2.Valid() {
			t.src2Idx = int16(in.Src2.FlatIndex())
		}
		if in.MemBase.Valid() {
			t.baseIdx = int16(in.MemBase.FlatIndex())
			t.disp = uint64(int64(in.MemDisp))
		}

		switch {
		case t.src1Idx >= 0:
			t.srcASel = srcASrc1
		case t.dstIsSrc:
			t.srcASel = srcADstOld
		case t.isLoad:
			t.srcASel = srcAMem
		default:
			t.srcASel = srcANone
		}

		n := 0
		if t.dstIsSrc {
			t.srcRegs[n] = t.dstOldIdx
			n++
		}
		if t.src1Idx >= 0 {
			t.srcRegs[n] = t.src1Idx
			n++
		}
		if t.src2Idx >= 0 {
			t.srcRegs[n] = t.src2Idx
			n++
		}
		if t.baseIdx >= 0 {
			t.srcRegs[n] = t.baseIdx
			n++
		}
		t.nsrc = uint8(n)

		switch op.Class {
		case isa.ClassBranch:
			switch op.Name {
			case "jmp":
				t.branchKind = brJmp
			case "jnz":
				t.branchKind = brCond
			default:
				t.branchKind = brOther
			}
			t.target = in.Target
			t.backBranch = in.Target <= pc
			h := uint32(in.Target)
			for _, r := range in.Label {
				h = h*31 + uint32(r)
			}
			t.btHash = h
		case isa.ClassBarrier:
			t.barrierID = in.Imm
		}
	}
	return tmpl
}

// loopCheck is the static half of the schedule lock (lock.go): a proof,
// made once per program when its templates are compiled, that the
// steady-state loop's timing cannot depend on data values. The runtime
// half re-checks the loop counters against the cycles left when a lock
// is taken.
type loopCheck struct {
	// ok: the program has a steady-state loop and it passes every rule
	// below; the loop's instructions carry uopTemplate.inLoop.
	ok bool
	// counter marks the loop-counter registers: every conditional
	// branch in the loop reads the zero flag of a dec of one of them.
	counter [isa.TotalRegs]bool
}

// isCounterDec reports whether t decrements a GPR by one and sets the
// zero flag from the result, as the loop closer's dec rcx does.
func isCounterDec(t *uopTemplate) bool {
	return t.in.Op.Name == "dec" && t.flagWrite && t.dstIsSrc && t.dstOldIdx == t.dstIdx
}

// checkLoop finds the steady-state loop — the cycle the program's
// control flow enters when every branch is taken — and checks that its
// timing is data-independent:
//   - every conditional branch is reached only by falling through from a
//     dec of a counter register, which is the only flag it reads;
//   - no loop instruction writes a counter register except such decs;
//   - no loop instruction writes a register any loop instruction uses
//     as a memory base, so every access hits one fixed address;
//   - latencies and issue intervals are template constants by
//     construction, so they need no check.
//
// While a counter stays above zero every conditional branch is taken,
// so the pc stream from any loop pc is fixed. The runtime check that no
// counter can reach zero inside the locked window is lock.go's.
func checkLoop(tmpl []uopTemplate) loopCheck {
	var lc loopCheck
	n := len(tmpl)
	next := func(pc int) int {
		if tmpl[pc].branchKind != brNone {
			return tmpl[pc].target
		}
		return pc + 1
	}
	// n steps of the all-taken walk from pc 0 end inside its cycle,
	// unless the walk leaves the program first.
	pc := 0
	for i := 0; i < n; i++ {
		if pc < 0 || pc >= n {
			return lc
		}
		pc = next(pc)
	}
	if pc < 0 || pc >= n {
		return lc
	}
	for p := pc; !tmpl[p].inLoop; p = next(p) {
		tmpl[p].inLoop = true
	}
	for p := range tmpl {
		t := &tmpl[p]
		if !t.inLoop || t.branchKind != brCond {
			continue
		}
		if p == 0 || !tmpl[p-1].inLoop || !isCounterDec(&tmpl[p-1]) || isBranchTarget(tmpl, p) {
			return lc
		}
		lc.counter[tmpl[p-1].dstIdx] = true
	}
	var written, otherWrite [isa.TotalRegs]bool
	for p := range tmpl {
		t := &tmpl[p]
		if !t.inLoop || t.dstIdx < 0 {
			continue
		}
		written[t.dstIdx] = true
		if !isCounterDec(t) {
			otherWrite[t.dstIdx] = true
		}
	}
	for p := range tmpl {
		t := &tmpl[p]
		if t.inLoop && t.baseIdx >= 0 && written[t.baseIdx] {
			return lc
		}
	}
	for r, isCounter := range lc.counter {
		if isCounter && otherWrite[r] {
			return lc
		}
	}
	lc.ok = true
	return lc
}

// isBranchTarget reports whether any branch of the program jumps to pc.
func isBranchTarget(tmpl []uopTemplate, pc int) bool {
	for i := range tmpl {
		if tmpl[i].branchKind != brNone && tmpl[i].target == pc {
			return true
		}
	}
	return false
}

package cpu

import (
	"encoding/binary"
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
)

// Uop is one dynamic micro-op produced by a thread's functional
// execution, carrying the real operand/result values the power model
// needs for data-toggle energy.
type Uop struct {
	In *isa.Instruction
	// SrcA is the primary source value and Result the computed result
	// (both zero for NOPs/branches/stores-of-nothing).
	SrcA   isa.Value
	Result isa.Value
	// Addr is the global effective address for memory ops.
	Addr uint64
	// Taken and BackBranch describe branch behaviour.
	Taken      bool
	BackBranch bool
	// BarrierID is ≥0 for barrier uops, -1 otherwise.
	BarrierID int64
	// Seq is the dynamic instruction number within the thread.
	Seq uint64

	// tpl is the pre-decoded template of the static instruction; the
	// timing model reads opcode metadata from it instead of In.Op.
	tpl *uopTemplate

	// memLevel is filled in by the timing model when the access is
	// issued (which cache level serviced it).
	memLevel memLevel
}

const defaultMemBytes = 4096

// Thread functionally executes a program in order, producing the uop
// stream the timing model consumes. It owns the architectural register
// file and a private data segment; a per-thread global address base
// keeps different threads' lines distinct in the shared caches.
type Thread struct {
	prog *asm.Program
	tmpl []uopTemplate
	loop loopCheck
	pc   int
	regs [isa.TotalRegs]isa.Value
	mem  []byte
	// zeroFlag models the subset of RFLAGS jnz consumes: set by the
	// most recent flag-writing integer op.
	zeroFlag bool

	globalBase uint64
	seq        uint64
	maxInstrs  uint64 // 0 = unbounded
	done       bool

	// buffered lookahead for the decoder
	cur    Uop
	curOK  bool
	primed bool
}

// NewThread prepares a thread for the given program. maxInstrs bounds
// dynamic instruction count (0 = run until the program ends naturally).
func NewThread(p *asm.Program, maxInstrs uint64) (*Thread, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	memBytes := p.MemBytes
	if memBytes <= 0 {
		memBytes = defaultMemBytes
	}
	// Round to a multiple of 16 so 128-bit accesses can wrap cleanly.
	memBytes = (memBytes + 15) &^ 15
	t := &Thread{prog: p, tmpl: compileTemplates(p), mem: make([]byte, memBytes), maxInstrs: maxInstrs}
	t.loop = checkLoop(t.tmpl)
	for r, v := range p.InitRegs {
		t.regs[r.FlatIndex()] = v
	}
	return t, nil
}

// SetGlobalBase assigns the thread's base in the global physical
// address space used by the shared caches.
func (t *Thread) SetGlobalBase(base uint64) { t.globalBase = base }

// Program returns the program under execution.
func (t *Thread) Program() *asm.Program { return t.prog }

// Done reports whether the stream is exhausted.
func (t *Thread) Done() bool {
	t.prime()
	return !t.curOK
}

// Peek returns the next uop without consuming it.
func (t *Thread) Peek() (*Uop, bool) {
	t.prime()
	if !t.curOK {
		return nil, false
	}
	return &t.cur, true
}

// Consume advances past the uop returned by Peek.
func (t *Thread) Consume() {
	t.prime()
	t.primed = false
}

func (t *Thread) prime() {
	if t.primed {
		return
	}
	t.curOK = t.step(&t.cur)
	t.primed = true
}

// Retired returns the dynamic instruction count so far.
func (t *Thread) Retired() uint64 { return t.seq }

// PC returns the current program counter: the index of the next
// instruction the thread will execute (past any primed lookahead).
func (t *Thread) PC() int { return t.pc }

// stateFP folds the thread's control state — program counter, decode
// lookahead and flag state — into the chip fingerprint. Architectural
// register values and the monotone seq counter are deliberately
// excluded: the fingerprint only needs to recur when the control state
// does, and the trace verification pass is the correctness gate.
func (t *Thread) stateFP() uint64 {
	fp := uint64(t.pc)<<4 | 1
	if t.primed {
		fp |= 1 << 1
	}
	if t.curOK {
		fp |= 1 << 2
	}
	if t.zeroFlag {
		fp |= 1 << 3
	}
	return fp
}

// step executes one instruction functionally, driven entirely by the
// pre-decoded template of the static instruction at pc, and writes the
// uop into *u (the lookahead slot) in place. It reports false, leaving
// *u untouched, once the stream is exhausted.
func (t *Thread) step(u *Uop) bool {
	if t.done || t.pc < 0 || t.pc >= len(t.tmpl) ||
		(t.maxInstrs > 0 && t.seq >= t.maxInstrs) {
		t.done = true
		return false
	}
	tpl := &t.tmpl[t.pc]
	*u = Uop{In: tpl.in, tpl: tpl, BarrierID: -1, Seq: t.seq}
	if tpl.class == isa.ClassBarrier {
		u.BarrierID = tpl.barrierID
	}
	if tpl.branchKind != brNone {
		u.BackBranch = tpl.backBranch
	}
	u.Addr, u.Taken, u.SrcA, u.Result = t.exec(tpl)
	return true
}

// exec is the functional semantics of step: it executes the
// instruction at pc (whose template is tpl), advances pc and seq, and
// returns the uop's global address, branch outcome, toggle source and
// result. The schedule-locked replay (lock.go) calls it directly, as it
// needs only the data.
func (t *Thread) exec(tpl *uopTemplate) (addr uint64, taken bool, srcA, result isa.Value) {
	t.seq++

	// Resolve address for memory-shaped ops.
	var localAddr uint64
	if tpl.baseIdx >= 0 {
		localAddr = (t.regs[tpl.baseIdx].Lo + tpl.disp) % uint64(len(t.mem))
		localAddr &^= 15
		addr = t.globalBase + localAddr
	}

	var dstOld, src1, src2, memv isa.Value
	if tpl.dstIsSrc {
		dstOld = t.regs[tpl.dstOldIdx]
	}
	if tpl.src1Idx >= 0 {
		src1 = t.regs[tpl.src1Idx]
	}
	if tpl.src2Idx >= 0 {
		src2 = t.regs[tpl.src2Idx]
	}

	switch tpl.class {
	case isa.ClassLoad:
		memv = t.load(localAddr)
	case isa.ClassStore:
		t.store(localAddr, src1)
	}

	// Primary source for toggle accounting: prefer an explicit source,
	// else the old destination, else the memory value.
	switch tpl.srcASel {
	case srcASrc1:
		srcA = src1
	case srcADstOld:
		srcA = dstOld
	case srcAMem:
		srcA = memv
	}

	if tpl.branchKind != brNone {
		taken = tpl.branchKind != brCond || !t.zeroFlag
		if taken {
			t.pc = tpl.target
		} else {
			t.pc++
		}
		return addr, taken, srcA, result
	}

	result = tpl.exec(dstOld, src1, src2, t.globalBase+localAddr, memv)
	if tpl.dstIdx >= 0 {
		t.regs[tpl.dstIdx] = result
		if tpl.flagWrite {
			t.zeroFlag = result.Lo == 0
		}
	}
	t.pc++
	return addr, taken, srcA, result
}

// flagWriting reports whether the class updates the zero flag, matching
// x86 where arithmetic/logic ops set flags but moves and loads do not.
func flagWriting(c isa.Class) bool {
	switch c {
	case isa.ClassIntALU, isa.ClassIntMul, isa.ClassIntDiv:
		return true
	}
	return false
}

func (t *Thread) load(addr uint64) isa.Value {
	if addr+16 <= uint64(len(t.mem)) {
		return isa.Value{
			Lo: binary.LittleEndian.Uint64(t.mem[addr:]),
			Hi: binary.LittleEndian.Uint64(t.mem[addr+8:]),
		}
	}
	return isa.Value{}
}

func (t *Thread) store(addr uint64, v isa.Value) {
	if addr+16 <= uint64(len(t.mem)) {
		binary.LittleEndian.PutUint64(t.mem[addr:], v.Lo)
		binary.LittleEndian.PutUint64(t.mem[addr+8:], v.Hi)
	}
}

// Reg returns the current architectural value of a register (testing
// and debugging aid).
func (t *Thread) Reg(r isa.Reg) (isa.Value, error) {
	if !r.Valid() {
		return isa.Value{}, fmt.Errorf("cpu: invalid register")
	}
	return t.regs[r.FlatIndex()], nil
}

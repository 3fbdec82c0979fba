package circuit

import (
	"fmt"
	"math"
)

// Compiled is the immutable, shareable part of a fixed-step trapezoidal
// transient simulation: the circuit topology with branch unknowns
// assigned, the factored trapezoidal system matrix, and the DC operating
// point captured as the canonical initial state. Compiling is the
// expensive step (two dense factorisations); once compiled, any number
// of independent Transient states can be spun up, reset, or cloned from
// it at the cost of a few slice copies. A Compiled is safe for
// concurrent use by any number of Transient states.
type Compiled struct {
	c *Circuit
	h float64 // step size, seconds

	n      int // total unknowns: (nodes-1) + branches
	nv     int // voltage unknowns (nodes-1)
	lu     *luReal
	capIdx []int // element indices of capacitors

	// Initial state at the DC operating point, copied into every fresh
	// or reset Transient.
	x0       []float64
	capV0    []float64
	capI0    []float64
	indI0    []float64
	sources0 []float64

	// Precompiled records for the replay step kernel (stepTrace): the
	// RHS assembly flattened into resolved indices and precomputed
	// companion conductances (2C/h, 2L/h), in the exact element order
	// Step uses, plus the companion-update passes in their own orders.
	// Stamping the same additions in the same order with the same
	// constants keeps StepTrace equal to a Step loop.
	stepOps []stepOp // RHS assembly, element order (R elements skipped)
	capOps  []stepOp // capacitor companion updates, capIdx order
	indOps  []stepOp // inductor companion updates, element order
}

// stepOp is one flattened element record for the trace kernel. Node
// indices are pre-shifted into unknown-vector indices (-1 = ground).
// The kernel stamps the RHS straight into the factor's row order, so
// stamp records also carry their writes' permuted slots.
type stepOp struct {
	kind        elemKind
	ia, ib      int
	br          int     // branch unknown for L and V elements
	pa, pb, pbr int     // ia, ib, br as permuted RHS slots (-1 = ground)
	ei          int     // element index into sources/capV/capI/indI
	g           float64 // 2C/h (capacitors) or 2L/h (inductors)
}

// Transient is a live fixed-step trapezoidal transient simulation: the
// mutable state (solution vector, companion-model history, live source
// values) advancing over a shared Compiled system. Each Step solves one
// right-hand side, so long runs cost O(n²) per step on the (tiny) MNA
// system. Distinct Transient states over one Compiled are independent
// and may step concurrently.
type Transient struct {
	cp *Compiled
	stepState
	time float64
}

// stepState is the mutable part of a simulation, each slice held
// lane-minor ([i*L + l] is element i of lane l). At one lane that is
// the plain per-element layout, which is how a Transient holds it.
type stepState struct {
	rhs     []float64
	x       []float64
	sources []float64 // live source values, indexed by element

	// Companion state.
	capV []float64 // previous branch voltage per capacitor element index
	capI []float64 // previous branch current per capacitor
	indI []float64 // previous current per inductor (indexed by element)
}

// newStepState allocates the state of `lanes` lanes over cp.
func newStepState(cp *Compiled, lanes int) stepState {
	ne := len(cp.sources0)
	return stepState{
		rhs:     make([]float64, cp.n*lanes),
		x:       make([]float64, cp.n*lanes),
		sources: make([]float64, ne*lanes),
		capV:    make([]float64, ne*lanes),
		capI:    make([]float64, ne*lanes),
		indI:    make([]float64, ne*lanes),
	}
}

// Compile assigns branch unknowns, solves the DC operating point of the
// initial source values (capacitors open, inductors shorted), and
// factors the trapezoidal system matrix for step size h seconds. The
// circuit must not be modified afterwards.
func Compile(c *Circuit, h float64) (*Compiled, error) {
	if h <= 0 {
		return nil, fmt.Errorf("circuit: step size must be positive, got %g", h)
	}
	cp := &Compiled{c: c, h: h, nv: c.nodes - 1}
	// Assign branch unknowns: one per V source and inductor.
	branches := 0
	for i := range c.elements {
		e := &c.elements[i]
		if e.kind == kindV || e.kind == kindL {
			e.branch = cp.nv + branches
			branches++
		}
	}
	cp.n = cp.nv + branches
	cp.sources0 = make([]float64, len(c.elements))
	cp.capV0 = make([]float64, len(c.elements))
	cp.capI0 = make([]float64, len(c.elements))
	cp.indI0 = make([]float64, len(c.elements))
	for i := range c.elements {
		cp.sources0[i] = c.elements[i].val
		if c.elements[i].kind == kindC {
			cp.capIdx = append(cp.capIdx, i)
		}
	}

	if err := cp.initDC(); err != nil {
		return nil, err
	}

	// Build and factor the trapezoidal system matrix.
	a := make([]float64, cp.n*cp.n)
	stampG := func(na, nb Node, g float64) {
		ia, ib := int(na)-1, int(nb)-1
		if ia >= 0 {
			a[ia*cp.n+ia] += g
		}
		if ib >= 0 {
			a[ib*cp.n+ib] += g
		}
		if ia >= 0 && ib >= 0 {
			a[ia*cp.n+ib] -= g
			a[ib*cp.n+ia] -= g
		}
	}
	for i := range c.elements {
		e := &c.elements[i]
		switch e.kind {
		case kindR:
			stampG(e.a, e.b, 1/e.val)
		case kindC:
			stampG(e.a, e.b, 2*e.val/h)
		case kindL:
			ia, ib, br := int(e.a)-1, int(e.b)-1, e.branch
			if ia >= 0 {
				a[ia*cp.n+br] += 1
				a[br*cp.n+ia] += 1
			}
			if ib >= 0 {
				a[ib*cp.n+br] -= 1
				a[br*cp.n+ib] -= 1
			}
			a[br*cp.n+br] -= 2 * e.val / h
		case kindV:
			ia, ib, br := int(e.a)-1, int(e.b)-1, e.branch
			if ia >= 0 {
				a[ia*cp.n+br] += 1
				a[br*cp.n+ia] += 1
			}
			if ib >= 0 {
				a[ib*cp.n+br] -= 1
				a[br*cp.n+ib] -= 1
			}
		case kindI:
			// RHS only.
		}
	}
	lu, err := factorReal(a, cp.n)
	if err != nil {
		return nil, fmt.Errorf("circuit: transient matrix: %w", err)
	}
	lu.prog = lu.program()
	cp.lu = lu
	cp.buildStepOps()
	return cp, nil
}

// buildStepOps flattens the element list into the kernel records used
// by StepTrace, preserving Step's iteration orders exactly.
func (cp *Compiled) buildStepOps() {
	c := cp.c
	slot := func(i int) int { // unknown i's row in the permuted RHS
		for k, r := range cp.lu.perm {
			if r == i {
				return k
			}
		}
		return -1 // ground
	}
	rec := func(e *element, i int) stepOp {
		op := stepOp{kind: e.kind, ia: int(e.a) - 1, ib: int(e.b) - 1, br: e.branch, ei: i}
		op.pa, op.pb, op.pbr = slot(op.ia), slot(op.ib), slot(op.br)
		switch e.kind {
		case kindC, kindL:
			op.g = 2 * e.val / cp.h
		}
		return op
	}
	for i := range c.elements {
		e := &c.elements[i]
		if e.kind == kindR {
			continue // resistors live in the factored matrix only
		}
		cp.stepOps = append(cp.stepOps, rec(e, i))
		if e.kind == kindL {
			cp.indOps = append(cp.indOps, rec(e, i))
		}
	}
	for _, i := range cp.capIdx {
		cp.capOps = append(cp.capOps, rec(&c.elements[i], i))
	}
}

// NewTransient compiles the circuit for step size h seconds and returns
// a fresh simulation state at the DC operating point of the initial
// source values. Equivalent to Compile followed by NewState; callers
// that run one circuit repeatedly should Compile once and reuse it.
func NewTransient(c *Circuit, h float64) (*Transient, error) {
	cp, err := Compile(c, h)
	if err != nil {
		return nil, err
	}
	return cp.NewState(), nil
}

// initDC solves the DC operating point: capacitors removed, inductors
// replaced by 0 V sources (shorts) whose branch currents we keep.
func (cp *Compiled) initDC() error {
	c := cp.c
	n := cp.n
	a := make([]float64, n*n)
	b := make([]float64, n)
	stampG := func(na, nb Node, g float64) {
		ia, ib := int(na)-1, int(nb)-1
		if ia >= 0 {
			a[ia*n+ia] += g
		}
		if ib >= 0 {
			a[ib*n+ib] += g
		}
		if ia >= 0 && ib >= 0 {
			a[ia*n+ib] -= g
			a[ib*n+ia] -= g
		}
	}
	for i := range c.elements {
		e := &c.elements[i]
		switch e.kind {
		case kindR:
			stampG(e.a, e.b, 1/e.val)
		case kindC:
			// Open at DC. To keep the matrix non-singular when a node
			// connects only to capacitors, add a negligible leakage.
			stampG(e.a, e.b, 1e-12)
		case kindL, kindV:
			ia, ib, br := int(e.a)-1, int(e.b)-1, e.branch
			if ia >= 0 {
				a[ia*n+br] += 1
				a[br*n+ia] += 1
			}
			if ib >= 0 {
				a[ib*n+br] -= 1
				a[br*n+ib] -= 1
			}
			if e.kind == kindV {
				b[br] = cp.sources0[i]
			} // inductor: 0 V short
		case kindI:
			ia, ib := int(e.a)-1, int(e.b)-1
			if ia >= 0 {
				b[ia] -= cp.sources0[i]
			}
			if ib >= 0 {
				b[ib] += cp.sources0[i]
			}
		}
	}
	lu, err := factorReal(a, n)
	if err != nil {
		return fmt.Errorf("circuit: DC matrix: %w", err)
	}
	cp.x0 = make([]float64, n)
	lu.solve(b, cp.x0)
	// Capture companion state from the DC solution.
	nodeV := func(nd Node) float64 {
		if nd == Ground {
			return 0
		}
		return cp.x0[int(nd)-1]
	}
	for _, i := range cp.capIdx {
		e := &c.elements[i]
		cp.capV0[i] = nodeV(e.a) - nodeV(e.b)
		cp.capI0[i] = 0
	}
	for i := range c.elements {
		e := &c.elements[i]
		if e.kind == kindL {
			cp.indI0[i] = cp.x0[e.branch]
		}
	}
	return nil
}

// NewState returns a fresh simulation state at the compiled DC
// operating point. This is the cheap per-run path: a handful of slice
// allocations, no factorisation.
func (cp *Compiled) NewState() *Transient {
	t := &Transient{cp: cp, stepState: newStepState(cp, 1)}
	t.Reset()
	return t
}

// StepSize returns the compiled integration step in seconds.
func (cp *Compiled) StepSize() float64 { return cp.h }

// Compiled returns the shared compiled system this state advances over.
func (t *Transient) Compiled() *Compiled { return t.cp }

// Reset restores the state to the compiled DC operating point without
// allocating, so pooled states can be reused across runs. A reset state
// is bit-identical to a freshly built one.
func (t *Transient) Reset() {
	copy(t.x, t.cp.x0)
	copy(t.sources, t.cp.sources0)
	copy(t.capV, t.cp.capV0)
	copy(t.capI, t.cp.capI0)
	copy(t.indI, t.cp.indI0)
	for i := range t.rhs {
		t.rhs[i] = 0
	}
	t.time = 0
}

// Clone returns an independent copy of the state sharing the same
// compiled system. Cloning a settled state and stepping the copy leaves
// the original untouched — the mechanism behind supply-settle caching.
func (t *Transient) Clone() *Transient {
	out := t.cp.NewState()
	out.CopyStateFrom(t)
	return out
}

// CopyStateFrom overwrites this state with src's. Both must share one
// Compiled; it panics otherwise (mixed topologies have incompatible
// state vectors).
func (t *Transient) CopyStateFrom(src *Transient) {
	if t.cp != src.cp {
		panic("circuit: CopyStateFrom across different compiled systems")
	}
	copy(t.x, src.x)
	copy(t.sources, src.sources)
	copy(t.capV, src.capV)
	copy(t.capI, src.capI)
	copy(t.indI, src.indI)
	t.time = src.time
}

// SetSource updates a named V or I source's value for subsequent steps.
func (t *Transient) SetSource(name string, value float64) error {
	i, err := t.cp.c.findSource(name)
	if err != nil {
		return err
	}
	t.sources[i] = value
	return nil
}

// MustSetSource panics on unknown source names; use for hot loops where
// the name was validated up front.
func (t *Transient) MustSetSource(name string, value float64) {
	if err := t.SetSource(name, value); err != nil {
		panic(err)
	}
}

// SourceRef resolves a source name to an opaque index for per-step
// updates without map lookups.
func (t *Transient) SourceRef(name string) (int, error) { return t.cp.c.findSource(name) }

// SetSourceRef updates a source by reference from SourceRef.
func (t *Transient) SetSourceRef(ref int, value float64) { t.sources[ref] = value }

// Time returns the current simulation time in seconds.
func (t *Transient) Time() float64 { return t.time }

// Step advances the simulation by one time step.
func (t *Transient) Step() {
	cp := t.cp
	b := t.rhs
	for i := range b {
		b[i] = 0
	}
	c := cp.c
	for i := range c.elements {
		e := &c.elements[i]
		switch e.kind {
		case kindC:
			g := 2 * e.val / cp.h
			ieq := g*t.capV[i] + t.capI[i]
			ia, ib := int(e.a)-1, int(e.b)-1
			if ia >= 0 {
				b[ia] += ieq
			}
			if ib >= 0 {
				b[ib] -= ieq
			}
		case kindL:
			b[e.branch] = -(2*e.val/cp.h)*t.indI[i] - t.branchVoltagePrev(e)
		case kindV:
			b[e.branch] = t.sources[i]
		case kindI:
			ia, ib := int(e.a)-1, int(e.b)-1
			if ia >= 0 {
				b[ia] -= t.sources[i]
			}
			if ib >= 0 {
				b[ib] += t.sources[i]
			}
		}
	}
	cp.lu.solve(b, t.x)
	t.time += cp.h
	// Update companion state.
	for _, i := range cp.capIdx {
		e := &c.elements[i]
		vNew := t.nodeV(e.a) - t.nodeV(e.b)
		g := 2 * e.val / cp.h
		iNew := g*(vNew-t.capV[i]) - t.capI[i]
		t.capV[i], t.capI[i] = vNew, iNew
	}
	for i := range c.elements {
		e := &c.elements[i]
		if e.kind == kindL {
			t.indI[i] = t.x[e.branch]
		}
	}
}

func (t *Transient) nodeV(nd Node) float64 {
	if nd == Ground {
		return 0
	}
	return t.x[int(nd)-1]
}

// branchVoltagePrev returns the element's branch voltage at the
// previous solution (used for the inductor companion RHS).
func (t *Transient) branchVoltagePrev(e *element) float64 {
	return t.nodeV(e.a) - t.nodeV(e.b)
}

// V returns the most recent voltage at a node.
func (t *Transient) V(nd Node) float64 { return t.nodeV(nd) }

// StepTrace advances the simulation len(src) steps in one call: step s
// drives source ref with src[s]*mul/div + add and records node nd's
// voltage into dst[s]. It is the one-lane call of the replay step
// kernel TransientBatch.StepTraceBatch runs (stepTrace): no per-step
// method dispatch, no allocation, indices and companion conductances
// resolved at compile time. The arithmetic replicates SetSourceRef +
// Step + V (same addends, same order, same precomputed constants) and
// skips only the factor's exact zeros, so every output and state value
// equals the per-cycle loop's — bit for bit, up to the sign of an
// exact zero (see rowProg).
//
// The (mul, div, add) form exists so the testbed can reproduce its
// amps conversion energy*1e-12/(dt*supply) + leakage without a
// per-cycle closure; pass (1, 1, 0) to feed src through unchanged.
func (t *Transient) StepTrace(nd Node, ref int, dst, src []float64, mul, div, add float64) {
	n := len(src)
	if len(dst) < n {
		panic("circuit: StepTrace dst shorter than src")
	}
	tm := [1]float64{t.time}
	t.cp.stepTrace(&t.stepState, 1, t.cp.lu.prog.idx, tm[:], nd, ref,
		[][]float64{dst}, [][]float64{src}, []float64{mul}, []float64{div}, []float64{add}, n)
	t.time = tm[0]
}

// StateDim returns the length of the dynamic-state vector exchanged by
// StateVec/SetStateVec: the MNA solution plus the capacitor and
// inductor companion histories.
func (cp *Compiled) StateDim() int { return cp.n + 2*len(cp.capOps) + len(cp.indOps) }

// StateDim returns the length of this state's dynamic-state vector.
func (t *Transient) StateDim() int { return t.cp.StateDim() }

// StateVec copies the complete dynamic state into dst (length ≥
// StateDim): the solution vector x, then (capV, capI) per capacitor,
// then indI per inductor. Together with the live source values — which
// the caller holds fixed or re-drives per step — this vector fully
// determines all future steps: the step map is affine in it, which is
// what lets the trace-replay engine build an exact per-period linear
// model of the network (source values and simulation time are
// deliberately excluded; neither feeds the dynamics).
func (t *Transient) StateVec(dst []float64) {
	cp := t.cp
	i := copy(dst, t.x)
	for oi := range cp.capOps {
		ei := cp.capOps[oi].ei
		dst[i] = t.capV[ei]
		dst[i+1] = t.capI[ei]
		i += 2
	}
	for oi := range cp.indOps {
		dst[i] = t.indI[cp.indOps[oi].ei]
		i++
	}
}

// SetStateVec overwrites the dynamic state from a vector laid out as by
// StateVec.
func (t *Transient) SetStateVec(src []float64) {
	cp := t.cp
	i := copy(t.x, src[:cp.n])
	for oi := range cp.capOps {
		ei := cp.capOps[oi].ei
		t.capV[ei] = src[i]
		t.capI[ei] = src[i+1]
		i += 2
	}
	for oi := range cp.indOps {
		t.indI[cp.indOps[oi].ei] = src[i]
		i++
	}
}

// MaxStateDelta returns the largest elementwise difference between this
// state and o across the solution vector, companion history and live
// sources, scaled relative for magnitudes above 1. Both states must
// share one Compiled. The trace-replay early exit uses it to decide
// when the PDN response over one drive period has converged.
func (t *Transient) MaxStateDelta(o *Transient) float64 {
	if t.cp != o.cp {
		panic("circuit: MaxStateDelta across different compiled systems")
	}
	var d float64
	acc := func(a, b []float64) {
		for i := range a {
			diff := math.Abs(a[i] - b[i])
			if s := math.Max(math.Abs(a[i]), math.Abs(b[i])); s > 1 {
				diff /= s
			}
			if diff > d {
				d = diff
			}
		}
	}
	acc(t.x, o.x)
	acc(t.capV, o.capV)
	acc(t.capI, o.capI)
	acc(t.indI, o.indI)
	acc(t.sources, o.sources)
	return d
}

// BranchCurrent returns the most recent current through a named V
// source or inductor (positive a→b).
func (t *Transient) BranchCurrent(name string) (float64, error) {
	c := t.cp.c
	for i := range c.elements {
		e := &c.elements[i]
		if e.name == name && (e.kind == kindV || e.kind == kindL) {
			return t.x[e.branch], nil
		}
	}
	return 0, fmt.Errorf("circuit: no branch named %q", name)
}

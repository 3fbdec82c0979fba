package circuit

import (
	"math"
	"math/rand"
	"testing"
)

// batchDrive builds per-lane source traces with distinct shapes so
// lane mix-ups show up as bitwise mismatches.
func batchDrive(lanes, steps int) [][]float64 {
	rng := rand.New(rand.NewSource(7))
	src := make([][]float64, lanes)
	for l := range src {
		s := make([]float64, steps)
		phase := rng.Float64() * 2 * math.Pi
		amp := 1 + rng.Float64()*4
		for i := range s {
			s[i] = amp * (1 + math.Sin(phase+float64(i)/float64(3+l)))
		}
		src[l] = s
	}
	return src
}

// serialLaneRun replays one lane through the per-cycle oracle loop
// (SetSourceRef + Step + V) from the DC operating point, returning the
// voltage trace and end state.
func serialLaneRun(cp *Compiled, out Node, ref int, src []float64, mul, div, add float64) ([]float64, []float64) {
	tr := cp.NewState()
	dst := make([]float64, len(src))
	for s, v := range src {
		tr.SetSourceRef(ref, v*mul/div+add)
		tr.Step()
		dst[s] = tr.V(out)
	}
	end := make([]float64, tr.StateDim())
	tr.StateVec(end)
	return dst, end
}

func TestStepTraceBatchBitIdenticalToSerial(t *testing.T) {
	c, out := rlcLadder()
	cp, err := Compile(c, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	probe := cp.NewState()
	ref, err := probe.SourceRef("sink")
	if err != nil {
		t.Fatal(err)
	}
	const steps = 400
	for _, lanes := range []int{1, 2, 3, 8} {
		src := batchDrive(lanes, steps)
		mul := make([]float64, lanes)
		div := make([]float64, lanes)
		add := make([]float64, lanes)
		dst := make([][]float64, lanes)
		tb := cp.NewBatch(lanes)
		states := make([]*Transient, lanes)
		for l := 0; l < lanes; l++ {
			mul[l] = 1e-12
			div[l] = 1e-10 * (1.1 + 0.01*float64(l)) // distinct per-lane supply
			add[l] = 0.25 + 0.03*float64(l)
			dst[l] = make([]float64, steps)
			states[l] = cp.NewState()
			tb.LoadLane(l, states[l])
		}
		tb.StepTraceBatch(out, ref, dst, src, mul, div, add, steps)
		for l := 0; l < lanes; l++ {
			wantV, wantEnd := serialLaneRun(cp, out, ref, src[l], mul[l], div[l], add[l])
			for i := range wantV {
				if dst[l][i] != wantV[i] {
					t.Fatalf("lanes=%d lane %d step %d: batch %v != serial %v", lanes, l, i, dst[l][i], wantV[i])
				}
			}
			got := make([]float64, tb.cp.StateDim())
			tb.LaneStateVec(l, got)
			for i := range wantEnd {
				if got[i] != wantEnd[i] {
					t.Fatalf("lanes=%d lane %d end state[%d]: batch %v != serial %v", lanes, l, i, got[i], wantEnd[i])
				}
			}
			// StoreLane round trip must reproduce the serial Transient.
			tb.StoreLane(l, states[l])
			chk := make([]float64, states[l].StateDim())
			states[l].StateVec(chk)
			for i := range wantEnd {
				if chk[i] != wantEnd[i] {
					t.Fatalf("lanes=%d lane %d StoreLane state[%d] mismatch", lanes, l, i)
				}
			}
		}
	}
}

func TestStepTraceBatchDropLaneMidStream(t *testing.T) {
	c, out := rlcLadder()
	cp, err := Compile(c, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	probe := cp.NewState()
	ref, err := probe.SourceRef("sink")
	if err != nil {
		t.Fatal(err)
	}
	const lanes = 4
	const steps = 300
	src := batchDrive(lanes, steps)
	mul := []float64{1, 1, 1, 1}
	div := []float64{1, 1, 1, 1}
	add := []float64{0, 0, 0, 0}
	dst := make([][]float64, lanes)
	tb := cp.NewBatch(lanes)
	for l := 0; l < lanes; l++ {
		dst[l] = make([]float64, steps)
		tb.LoadLane(l, cp.NewState())
	}
	// First half with all lanes, then retire lane 1 (lane 3 swaps into
	// its slot) and finish the survivors.
	half := steps / 2
	tb.StepTraceBatch(out, ref, dst, src, mul, div, add, half)
	tb.DropLane(1)
	dst[1], src[1] = dst[3], src[3]
	rest := make([][]float64, 3)
	restSrc := make([][]float64, 3)
	for l := 0; l < 3; l++ {
		rest[l] = dst[l][half:]
		restSrc[l] = src[l][half:]
	}
	tb.StepTraceBatch(out, ref, rest, restSrc, mul, div, add, steps-half)
	for _, l := range []int{0, 2, 3} {
		wantV, _ := serialLaneRun(cp, out, ref, src[l], mul[0], div[0], add[0])
		got := dst[l] // dst[1] aliases dst[3]: lane 3 finished in slot 1
		for i := range wantV {
			if got[i] != wantV[i] {
				t.Fatalf("lane %d step %d after DropLane: %v != %v", l, i, got[i], wantV[i])
			}
		}
	}
	if tb.Lanes() != 3 {
		t.Fatalf("Lanes() = %d after one drop from 4", tb.Lanes())
	}
}

func TestSetLaneStateVecMatchesSetStateVec(t *testing.T) {
	c, out := rlcLadder()
	cp, err := Compile(c, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	probe := cp.NewState()
	ref, err := probe.SourceRef("sink")
	if err != nil {
		t.Fatal(err)
	}
	// Advance a serial state, perturb its state vector, continue — the
	// affine-probe pattern — and check the batch path reproduces it.
	const pre, post = 120, 80
	src := batchDrive(1, pre+post)[0]
	st := cp.NewState()
	dst := make([]float64, pre)
	st.StepTrace(out, ref, dst, src[:pre], 1, 1, 0)
	dim := st.StateDim()
	vec := make([]float64, dim)
	st.StateVec(vec)
	vec[2] += 1 // unit perturbation
	st.SetStateVec(vec)
	wantV := make([]float64, post)
	st.StepTrace(out, ref, wantV, src[pre:], 1, 1, 0)

	st2 := cp.NewState()
	dst2 := make([]float64, pre)
	st2.StepTrace(out, ref, dst2, src[:pre], 1, 1, 0)
	tb := cp.NewBatch(1)
	tb.LoadLane(0, st2)
	tb.SetLaneStateVec(0, vec)
	gotV := [][]float64{make([]float64, post)}
	tb.StepTraceBatch(out, ref, gotV, [][]float64{src[pre:]}, []float64{1}, []float64{1}, []float64{0}, post)
	for i := range wantV {
		if gotV[0][i] != wantV[i] {
			t.Fatalf("step %d: perturbed batch %v != serial %v", i, gotV[0][i], wantV[i])
		}
	}
}

// TestStepTraceAllocs is the replay kernel's allocation gate: after
// construction, neither the one-lane StepTrace nor a batch's
// StepTraceBatch may allocate. Allocation counts do not depend on the
// machine, so this runs on every go test, like the capture gate.
func TestStepTraceAllocs(t *testing.T) {
	c, out := rlcLadder()
	cp, err := Compile(c, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cp.NewState().SourceRef("sink")
	if err != nil {
		t.Fatal(err)
	}
	const steps = 256
	tr := cp.NewState()
	src := batchDrive(1, steps)[0]
	dst := make([]float64, steps)
	if n := testing.AllocsPerRun(20, func() {
		tr.StepTrace(out, ref, dst, src, 1e-12, 1e-10, 0.2)
	}); n != 0 {
		t.Errorf("Transient.StepTrace allocates %v times per call, want 0", n)
	}
	for _, lanes := range []int{1, 5, 8, 32} {
		tb := cp.NewBatch(lanes)
		srcs := batchDrive(lanes, steps)
		dsts := make([][]float64, lanes)
		mul := make([]float64, lanes)
		div := make([]float64, lanes)
		add := make([]float64, lanes)
		for l := range dsts {
			dsts[l] = make([]float64, steps)
			mul[l], div[l], add[l] = 1e-12, 1e-10, 0.2
		}
		if n := testing.AllocsPerRun(20, func() {
			tb.StepTraceBatch(out, ref, dsts, srcs, mul, div, add, steps)
		}); n != 0 {
			t.Errorf("lanes=%d: StepTraceBatch allocates %v times per call, want 0", lanes, n)
		}
	}
}

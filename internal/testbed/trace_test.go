package testbed

import "testing"

// maxBuildTraceAllocs bounds the allocations of one full phase-1
// capture of four threads with a warm chip pool: the trace header and
// its two pre-sized streams, and per thread the Thread, its data
// segment, its uop templates and their exec kernels (19 in all). The
// per-cycle loop itself must contribute nothing, so the count is
// independent of MaxCycles.
const maxBuildTraceAllocs = 20

// TestBuildTraceAllocs is the testbed half of the deterministic capture
// allocation gate: an 8k-cycle dec/jnz run (which never verifies
// periodic, so the chip steps every cycle) allocates a fixed small
// count, not a count that grows with the cycles stepped.
func TestBuildTraceAllocs(t *testing.T) {
	p := Bulldozer()
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	threads, err := SpreadPlacement(p.Chip, mulLoop("allocs", resonancePeriodCycles(p)), 4)
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Threads: threads, MaxCycles: 8000}
	// Pin the pool to one chip: a collection (or the race detector's
	// random pool drops) would otherwise charge a whole NewChip to
	// whichever run found the pool empty.
	chip, err := cp.getChip()
	if err != nil {
		t.Fatal(err)
	}
	cp.chips.New = func() any { return chip }
	var tr *chipTrace
	n := testing.AllocsPerRun(10, func() {
		if tr, err = cp.buildTrace(rc); err != nil {
			t.Fatal(err)
		}
	})
	if tr.periodic || tr.done || len(tr.energy) != int(rc.MaxCycles) {
		t.Fatalf("trace periodic=%v done=%v len=%d, want a full %d-cycle aperiodic trace",
			tr.periodic, tr.done, len(tr.energy), rc.MaxCycles)
	}
	t.Logf("buildTrace: %v allocs per 8k-cycle capture", n)
	if n > maxBuildTraceAllocs {
		t.Errorf("buildTrace allocates %v times per 8k-cycle capture, want ≤ %d", n, maxBuildTraceAllocs)
	}
}

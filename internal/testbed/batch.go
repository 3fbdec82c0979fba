package testbed

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pdn"
)

// This file is the generation-batched evaluation pipeline: the GA hands
// the testbed a whole generation's run configs at once and the
// evaluator exploits the batch shape that per-candidate Run calls
// cannot see. Stage 1 dedupes the configs down to distinct chip traces
// and captures the missing ones on a worker pool (the expensive chip
// simulation runs once per distinct program, not once per candidate).
// Stage 2 replays the ready traces through the multi-lane PDN kernel —
// pdn.Batch advances up to `lanes` candidate networks per pass over the
// shared factorization — with runs that need the serial machinery
// (sample consumers, periodic affine replays, exact-loop configs)
// dispatched as solo jobs on the same pool.
//
// Every measurement is bit-identical to CompiledPlatform.Run of the
// same config: lane replays fold through the same replayFold in the
// same per-cycle order over bit-identical kernel output, and everything
// else literally calls the serial path.

// DefaultBatchLanes is the fixed lane width callers may pass when they
// want to bypass automatic selection. Eight lanes fill the exact
// kernel's widest register block and get most of its per-lane gain on
// the PDN-sized systems this repo ships — but fixing the width can
// idle workers when a generation doesn't split evenly (see autoLanes),
// which is why lanes <= 0 selects the width automatically instead of
// defaulting here.
const DefaultBatchLanes = 8

// maxBatchLanes bounds the lane width; the exact kernel's per-lane
// cost is nearly flat from 16 lanes on.
const maxBatchLanes = 32

// BatchRunner is a Runner that can evaluate a whole generation at once.
// The GA feeds it populations when available; decorators that cannot
// batch (e.g. fault injectors, which perturb runs individually) simply
// don't implement it and the GA stays per-candidate.
type BatchRunner interface {
	Runner
	// MeasureBatch measures every config, returning slot-aligned
	// measurements and errors (exactly one of ms[i], errs[i] is
	// non-nil). lanes <= 0 selects the lane width automatically from
	// the batch shape and a per-platform kernel calibration; workers
	// <= 0 selects GOMAXPROCS. The width never affects results, only
	// throughput.
	MeasureBatch(rcs []RunConfig, lanes, workers int) ([]*Measurement, []error)
}

// ContextBatchRunner is a BatchRunner whose batch call honours
// cancellation: once ctx is cancelled, no further work units are
// started, in-flight units finish (the simulator is CPU-bound and
// always terminates), and every slot the batch never resolved carries
// ctx.Err(). CompiledPlatform implements it; so does the distributed
// coordinator, which uses cancellation to stop waiting on workers.
type ContextBatchRunner interface {
	BatchRunner
	MeasureBatchContext(ctx context.Context, rcs []RunConfig, lanes, workers int) ([]*Measurement, []error)
}

var _ ContextBatchRunner = (*CompiledPlatform)(nil)

// runParallel runs job(0..n-1) on up to `workers` goroutines.
func runParallel(workers, n int, job func(int)) {
	runParallelCtx(context.Background(), workers, n, job)
}

// runParallelCtx is runParallel with cooperative cancellation: workers
// stop claiming new jobs once ctx is cancelled, so at most `workers`
// in-flight jobs run to completion and the rest never start. No
// goroutine outlives the call.
func runParallelCtx(ctx context.Context, workers, n int, job func(int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}

// laneJob is one candidate replay eligible for the multi-lane kernel:
// a ready non-periodic trace with no sample consumers attached.
type laneJob struct {
	slot    int
	rc      RunConfig
	tr      *chipTrace
	memoKey string
}

// MeasureBatch measures a generation of run configs through the
// two-stage pipeline. See the file comment for the stages; per-slot
// results are bit-identical to cp.Run(rcs[i]) run in isolation, and the
// slot order never affects any result.
func (cp *CompiledPlatform) MeasureBatch(rcs []RunConfig, lanes, workers int) ([]*Measurement, []error) {
	return cp.MeasureBatchContext(context.Background(), rcs, lanes, workers)
}

// MeasureBatchContext is MeasureBatch with cooperative cancellation.
// Slots resolved before the cancellation keep their (bit-identical)
// results; every slot the pipeline never reached reports ctx.Err()
// instead, so a caller abandoning the batch (a worker whose lease was
// revoked, a shutting-down coordinator) discards partial work cleanly.
// Captures already in flight run to completion — the simulator is
// CPU-bound and bounded — so no goroutine outlives the call.
func (cp *CompiledPlatform) MeasureBatchContext(ctx context.Context, rcs []RunConfig, lanes, workers int) ([]*Measurement, []error) {
	autoWidth := lanes <= 0
	if lanes > maxBatchLanes {
		lanes = maxBatchLanes
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(rcs)
	ms := make([]*Measurement, n)
	errs := make([]error, n)
	cp.traces.noteBatchRuns(n)

	// Classify each slot. Slots that share a finished-measurement memo
	// key are evaluated once (dups serve from the memo afterwards);
	// slots that share a trace key share one capture.
	exact := make([]int, 0, n)          // slots for the reference cycle loop
	memoRep := make(map[string]int, n)  // memoKey -> representative slot
	dupOf := make(map[int]int, n)       // duplicate slot -> representative
	groups := make(map[string][]int, n) // traceKey -> member slots
	memoKeys := make([]string, n)       // per-slot memo key ("" = not memoable)
	var keys []string                   // group keys in first-seen order
	for i, rc := range rcs {
		if err := rc.Validate(); err != nil {
			errs[i] = err
			continue
		}
		if !cp.replayEligible(rc) {
			exact = append(exact, i)
			continue
		}
		key, ok := traceKey(rc)
		if !ok {
			exact = append(exact, i)
			continue
		}
		if memoable := !rc.RecordWaveform && rc.TriggerThreshold <= 0 && rc.Histogram == nil; memoable {
			mk := replayMemoKey(key, rc)
			memoKeys[i] = mk
			if m, ok := cp.traces.getResult(mk); ok {
				ms[i] = &m
				continue
			}
			if rep, seen := memoRep[mk]; seen {
				dupOf[i] = rep
				continue
			}
			memoRep[mk] = i
		}
		if _, seen := groups[key]; !seen {
			keys = append(keys, key)
		}
		groups[key] = append(groups[key], i)
	}

	// Stage 1: resolve each group's trace — one cache lookup per group
	// (siblings would all have hit, so they count as hits), then a
	// worker pool captures the missing ones.
	ready := make(map[string]*chipTrace, len(groups))
	var missing []string
	for _, key := range keys {
		members := groups[key]
		if tr := cp.traces.get(key); tr != nil {
			ready[key] = tr
			for range members[1:] {
				cp.traces.noteHit()
			}
		} else {
			missing = append(missing, key)
		}
	}
	var readyMu sync.Mutex
	runParallelCtx(ctx, workers, len(missing), func(gi int) {
		key := missing[gi]
		members := groups[key]
		tr, err := cp.resolveTrace(key, rcs[members[0]])
		if err != nil {
			for _, i := range members {
				errs[i] = err
			}
			return
		}
		cp.traces.put(key, tr)
		readyMu.Lock()
		ready[key] = tr
		readyMu.Unlock()
		for range members[1:] {
			cp.traces.noteHit()
		}
	})

	// Stage 2: schedule replays. Non-periodic traces with no sample
	// consumers ride the multi-lane kernel; periodic traces (served by
	// the affine early exit), consumer runs, and post-build unsupported
	// traces take the serial paths. Lane jobs are sorted longest-first
	// and chunked at the lane width so each kernel pass stays wide.
	var laneJobs []laneJob
	var solo []int // slots replayed serially
	for _, key := range keys {
		tr := ready[key]
		if tr == nil {
			continue // capture failed; members already hold the error
		}
		for _, i := range groups[key] {
			switch {
			case tr.unsupported:
				exact = append(exact, i)
			case tr.periodic || memoKeys[i] == "":
				solo = append(solo, i)
			default:
				laneJobs = append(laneJobs, laneJob{slot: i, rc: rcs[i], tr: tr, memoKey: memoKeys[i]})
			}
		}
	}
	sort.SliceStable(laneJobs, func(a, b int) bool {
		return len(laneJobs[a].tr.energy) > len(laneJobs[b].tr.energy)
	})
	if autoWidth {
		lanes = autoLanes(len(laneJobs), workers)
	}
	nGroups := (len(laneJobs) + lanes - 1) / lanes
	tasks := nGroups + len(solo) + len(exact)
	runParallelCtx(ctx, workers, tasks, func(t int) {
		switch {
		case t < nGroups:
			lo := t * lanes
			hi := lo + lanes
			if hi > len(laneJobs) {
				hi = len(laneJobs)
			}
			cp.replayLanes(laneJobs[lo:hi], ms, errs)
		case t < nGroups+len(solo):
			i := solo[t-nGroups]
			m, err := cp.replay(ready[mustTraceKey(rcs[i])], rcs[i])
			if err == nil && memoKeys[i] != "" {
				cp.traces.putResult(memoKeys[i], *m)
			}
			ms[i], errs[i] = m, err
		default:
			i := exact[t-nGroups-len(solo)]
			ms[i], errs[i] = cp.runExact(rcs[i])
		}
	})

	// A cancelled batch leaves unreached slots unresolved; stamp them
	// with the cancellation before the duplicate pass so dups of an
	// unresolved representative inherit it instead of dereferencing nil.
	if err := ctx.Err(); err != nil {
		for i := range rcs {
			if ms[i] == nil && errs[i] == nil {
				if _, dup := dupOf[i]; !dup {
					errs[i] = err
				}
			}
		}
	}

	// Serve memo duplicates from their representative's finished
	// measurement (via the memo, so the hit counts as it would have
	// serially; fall back to a direct copy if the memo evicted it).
	for i, rep := range dupOf {
		if errs[rep] != nil {
			errs[i] = errs[rep]
			continue
		}
		if m, ok := cp.traces.getResult(memoKeys[i]); ok {
			ms[i] = &m
			continue
		}
		m := *ms[rep]
		ms[i] = &m
	}
	return ms, errs
}

// mustTraceKey re-derives the trace key for a slot already classified
// as replay-eligible with a supported key.
func mustTraceKey(rc RunConfig) string {
	key, ok := traceKey(rc)
	if !ok {
		panic("testbed: trace key vanished between classification and replay")
	}
	return key
}

// replayLanes replays up to maxBatchLanes candidate traces in lockstep
// through the multi-lane PDN kernel — the exact kernel by default, the
// reduced-order kernel when the platform tolerance admits the whole
// batch — writing slot results into ms/errs. Each lane folds the
// kernel's voltage stream through the same replayFold as the serial
// replay; on the exact kernel a lane result matches cp.replay of the
// same job bit for bit, and on the ROM it matches the serial ROM
// replay bit for bit (one lane's over-tolerance trace can demote a
// batch to exact while the serial path would have taken the ROM, so
// with ROMTolV enabled batch-vs-serial agreement is to the declared
// tolerance, not bitwise — exactly the contract ROMTolV states).
// Lanes retire independently as their traces run out (swap-remove,
// mirroring pdn.Batch.DropLane). A single-job group falls back to the
// serial replay: a one-lane kernel pass costs more than the tuned
// single-lane StepTrace.
func (cp *CompiledPlatform) replayLanes(jobs []laneJob, ms []*Measurement, errs []error) {
	L := len(jobs)
	if L == 0 {
		return
	}
	cp.traces.noteLaneBatch(L)
	if L == 1 {
		j := jobs[0]
		m, err := cp.replay(j.tr, j.rc)
		if err == nil {
			cp.traces.putResult(j.memoKey, *m)
		}
		ms[j.slot], errs[j.slot] = m, err
		return
	}
	defer cp.traces.addReplayNS(time.Now())
	p := cp.p
	dt := p.Chip.CycleSeconds()
	vNom := p.PDN.VNom

	type lane struct {
		job  laneJob
		fold *replayFold
		N    uint64
		cyc  uint64
		vbuf []float64
	}
	states := make([]*lane, L)
	muls := make([]float64, L)
	divs := make([]float64, L)
	adds := make([]float64, L)
	dsts := make([][]float64, L)
	srcs := make([][]float64, L)
	for l, j := range jobs {
		supply := vNom
		if j.rc.SupplyVolts > 0 {
			supply = j.rc.SupplyVolts
		}
		m := &Measurement{MinV: supply}
		states[l] = &lane{
			job:  j,
			fold: &replayFold{p: p, m: m, vNom: vNom, warm: j.rc.WarmupCycles},
			N:    uint64(len(j.tr.energy)),
			vbuf: cp.getVBuf(replayChunk),
		}
		muls[l], divs[l], adds[l] = 1e-12, dt*supply, p.Power.LeakageAmps(p.Chip.Modules, supply)
	}
	// Kernel choice is batch-level, all-or-nothing: every lane job is a
	// non-periodic full stream (periodic traces went solo), so the batch
	// rides the reduced-order kernel only when the platform tolerance
	// admits every lane's peak drive. Mixing kernels per lane would
	// complicate retirement for no gain — a single over-tolerance lane
	// is rare (it implies an outlier trace amplitude).
	var pb *pdn.Batch
	var rb *pdn.ROMBatch
	useROM := cp.p.ROMTolV > 0
	for l, j := range jobs {
		if !useROM {
			break
		}
		useROM = cp.romOK(j.tr, divs[l], adds[l])
	}
	if useROM {
		rb, _ = cp.net.NewROMBatch(L) // romOK verified the ROM compiles
	} else {
		pb = cp.net.NewBatch(L)
	}
	cp.traces.noteReplays(L, useROM)
	for l, j := range jobs {
		net := cp.getNet(j.rc.SupplyVolts)
		if rb != nil {
			rb.LoadLane(l, net, adds[l])
		} else {
			pb.LoadLane(l, net)
		}
		cp.net.Put(net)
	}
	finish := func(st *lane) {
		st.fold.finish(st.job.tr, st.N, dt)
		cp.traces.putResult(st.job.memoKey, *st.fold.m)
		ms[st.job.slot] = st.fold.m
		cp.vbufs.Put(st.vbuf[:0])
	}
	for len(states) > 0 {
		// Retire finished lanes (high to low so swap-ins are already
		// checked survivors).
		for l := len(states) - 1; l >= 0; l-- {
			if states[l].cyc < states[l].N {
				continue
			}
			finish(states[l])
			if rb != nil {
				rb.DropLane(l)
			} else {
				pb.DropLane(l)
			}
			last := len(states) - 1
			states[l] = states[last]
			muls[l], divs[l], adds[l] = muls[last], divs[last], adds[last]
			states = states[:last]
		}
		if len(states) == 0 {
			break
		}
		w := len(states)
		n := uint64(replayChunk)
		for _, st := range states {
			if rem := st.N - st.cyc; rem < n {
				n = rem
			}
		}
		for l, st := range states {
			dsts[l] = st.vbuf[:n]
			srcs[l] = st.job.tr.energy[st.cyc : st.cyc+n]
		}
		if rb != nil {
			rb.StepTraceBatch(dsts[:w], srcs[:w], muls[:w], divs[:w], int(n))
		} else {
			pb.StepTraceBatch(dsts[:w], srcs[:w], muls[:w], divs[:w], adds[:w], int(n))
		}
		for l, st := range states {
			st.fold.scan(st.cyc, srcs[l], st.job.tr.issues[st.cyc:st.cyc+n], dsts[l])
			st.cyc += n
		}
	}
}

// autoLanes picks the multi-lane kernel width for a generation of
// `jobs` lane-eligible replays over `workers` goroutines: the
// narrowest width that still gives every worker a batch,
// ceil(jobs/workers), capped at maxBatchLanes. A fixed width idles
// workers whenever the job count doesn't cover workers × lanes (the
// BENCH_eval L8xW8 > L4xW8 regression: 32 jobs at 8 lanes is only 4
// batches over 8 workers). No further clamp is needed: the exact
// kernel's per-lane cost falls with width all the way to 32 lanes,
// and the reduced-order kernel's is width-flat. The width only moves
// throughput, never results.
func autoLanes(jobs, workers int) int {
	return max(1, min((jobs+workers-1)/workers, maxBatchLanes))
}

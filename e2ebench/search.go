package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/testbed"
)

// The searches reproduce the CLI's defaults on Bulldozer: 4 threads,
// resonance mode at the 36-cycle loop the resonance sweep detects, a
// 14 × 14 GA with serial evaluation and automatic lane width. The
// stagnation exit is off, so every search runs all 14 generations and
// does the same amount of work whatever its fitness trajectory.
const (
	searchLoop    = 36
	searchThreads = 4
	// runCycles is the cycles one candidate measurement simulates: the
	// default 3k-cycle warmup plus the 5k-cycle measured window.
	runCycles = 3000 + 5000
	// droopSeeds is how many leading searches best_droop_mv averages, a
	// fixed set of seeds so the value does not depend on speed.
	droopSeeds = 3
)

func searchOptions(seed int64) core.Options {
	return core.Options{
		Platform:       testbed.Bulldozer(),
		Threads:        searchThreads,
		Mode:           core.Resonance,
		LoopCycles:     searchLoop,
		SubBlockCycles: 6,
		GA: ga.Config{
			PopSize: 14, Elites: 2, TournamentK: 3,
			MutationProb: 0.6, MaxGenerations: 14, Seed: seed,
		},
		Seed: seed,
		Name: "A-resonance-4T",
	}
}

// searchSeed is the i-th search seed of a run; runs with different
// seeds search disjoint seeds.
func searchSeed(runSeed int64, i int) int64 { return runSeed*1000 + int64(i) + 1 }

// counts are the testbed counters one search moved.
type counts struct {
	captures, captureNS, replayNS     uint64
	replays, exactReplays, earlyExits uint64
	laneRuns, laneBatches, batchRuns  uint64
	memoHits, storeHits, storeMisses  uint64
}

func countsOf(ts testbed.TraceStats) counts {
	return counts{
		captures: ts.Captures, captureNS: ts.CaptureNS, replayNS: ts.ReplayNS,
		replays: ts.ROMReplays + ts.ExactReplays, exactReplays: ts.ExactReplays,
		earlyExits: ts.PDNEarlyExits, laneRuns: ts.LaneRuns, laneBatches: ts.LaneBatches,
		batchRuns: ts.BatchRuns, memoHits: ts.MemoHits,
		storeHits: ts.StoreHits, storeMisses: ts.StoreMisses,
	}
}

func (c counts) add(o counts) counts {
	return counts{
		c.captures + o.captures, c.captureNS + o.captureNS, c.replayNS + o.replayNS,
		c.replays + o.replays, c.exactReplays + o.exactReplays, c.earlyExits + o.earlyExits,
		c.laneRuns + o.laneRuns, c.laneBatches + o.laneBatches, c.batchRuns + o.batchRuns,
		c.memoHits + o.memoHits, c.storeHits + o.storeHits, c.storeMisses + o.storeMisses,
	}
}

func (c counts) sub(o counts) counts {
	return counts{
		c.captures - o.captures, c.captureNS - o.captureNS, c.replayNS - o.replayNS,
		c.replays - o.replays, c.exactReplays - o.exactReplays, c.earlyExits - o.earlyExits,
		c.laneRuns - o.laneRuns, c.laneBatches - o.laneBatches, c.batchRuns - o.batchRuns,
		c.memoHits - o.memoHits, c.storeHits - o.storeHits, c.storeMisses - o.storeMisses,
	}
}

// occupancy is the mean number of candidates per multi-lane replay pass.
func (c counts) occupancy() float64 {
	if c.laneBatches == 0 {
		return 0
	}
	return float64(c.laneRuns) / float64(c.laneBatches)
}

// searchResult is one finished search and what was measured around it.
type searchResult struct {
	seed    int64
	sm      *core.Stressmark
	wall    time.Duration
	batches []interval // coordinator-level runner calls, one per generation
	gens    []time.Duration
	// counts are the testbed counters of the platforms that measured
	// the search: the search's own platform, or in the distributed
	// workload every worker's plus the coordinator's.
	counts   counts
	rootSpan int64
	readB    int64 // bytes the process read during the search
	dist     *distSample
}

// runSearch runs one search through core.Generate with a timedRunner
// installed at the WrapRunner seam around the runner that inner makes
// from the search's compiled platform.
func runSearch(opt core.Options, rec *recorder, traced bool, inner func(testbed.Runner) (testbed.ContextBatchRunner, error)) (*searchResult, error) {
	// Start every search from a collected heap returned to the OS, so
	// that neither its time nor the peak resident memory depends on
	// garbage an earlier search left behind.
	debug.FreeOSMemory()
	rec.on.Store(traced)
	rec.search.Store(opt.Seed)
	root := rec.begin("search", "", 0)
	rec.root.Store(root.id())
	var tr *timedRunner
	var werr error
	opt.WrapRunner = func(r testbed.Runner) testbed.Runner {
		in, err := inner(r)
		if err != nil {
			werr = err
			return nil
		}
		tr = &timedRunner{inner: in, rec: rec, name: "runner.batch"}
		return tr
	}
	read0 := readBytes()
	start := time.Now()
	sm, err := core.Generate(context.Background(), opt)
	end := time.Now()
	root.end()
	rec.root.Store(0)
	rec.on.Store(false)
	if err != nil {
		return nil, errors.Join(err, werr)
	}
	r := &searchResult{
		seed: opt.Seed, sm: sm, wall: end.Sub(start),
		batches: tr.take(), rootSpan: root.id(), readB: readBytes() - read0,
		counts: countsOf(sm.TraceStats),
	}
	// A generation runs from its batch call to the next one (or to the
	// end of the search), so its latency includes breeding and scoring.
	for i, b := range r.batches {
		next := end
		if i+1 < len(r.batches) {
			next = r.batches[i+1].start
		}
		r.gens = append(r.gens, next.Sub(b.start))
	}
	return r, nil
}

// compiledRunner is the single-node inner runner: the search's own
// compiled platform.
func compiledRunner(r testbed.Runner) (testbed.ContextBatchRunner, error) {
	cbr, ok := r.(testbed.ContextBatchRunner)
	if !ok {
		return nil, fmt.Errorf("runner %T cannot batch", r)
	}
	return cbr, nil
}

// sameSearch reports how b differs from a: the GA result, the winning
// program and the bits of the best droop must all match.
func sameSearch(a, b *core.Stressmark) error {
	switch {
	case !reflect.DeepEqual(a.Search, b.Search):
		return fmt.Errorf("GA results differ (best droop %.6g vs %.6g V, %d vs %d evaluations)",
			a.Search.BestFitness, b.Search.BestFitness, a.Search.Evaluations, b.Search.Evaluations)
	case a.Program.Text() != b.Program.Text():
		return fmt.Errorf("winning programs differ")
	case math.Float64bits(a.DroopV) != math.Float64bits(b.DroopV):
		return fmt.Errorf("best droop bits differ: %v vs %v", a.DroopV, b.DroopV)
	}
	return nil
}

// sweepSetup compiles a platform and runs the resonance sweep a
// campaign starts with, checking it finds the loop the searches use.
func sweepSetup() error {
	p := testbed.Bulldozer()
	cp, err := p.Compile()
	if err != nil {
		return err
	}
	sw := core.ResonanceSweep{Platform: p, Compiled: cp, Threads: searchThreads}
	_, best, err := sw.Run(16, 64, 4)
	if err != nil {
		return err
	}
	if best.LoopCycles != searchLoop {
		return fmt.Errorf("resonance sweep found a %d-cycle loop, want %d", best.LoopCycles, searchLoop)
	}
	return nil
}

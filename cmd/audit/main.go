// Command audit generates a di/dt stressmark for a simulated platform
// and reports the search trajectory, the generated assembly, and its
// measured droop. This is the end-to-end AUDIT flow of Fig. 5 on the
// "hardware" (simulated testbed) path.
//
// Usage:
//
//	audit [flags]
//
//	-platform   bulldozer | phenom            (default bulldozer)
//	-threads    homogeneous thread count      (default 4)
//	-mode       resonance | excitation        (default resonance)
//	-loop       loop length in cycles; 0 = auto resonance sweep
//	-subblock   hierarchical sub-block size K (default 6)
//	-throttle   FP issue cap during generation (0 = off)
//	-pop        GA population                 (default 14)
//	-gens       GA max generations            (default 14)
//	-seed       RNG seed                      (default 1)
//	-o          write the stressmark assembly to this file
//	-obj        write the binary object image to this file
//	-save       write the finished stressmark (winner + population) here
//	-corpus-add harvest the finished stressmark into this corpus dir
//	-checkpoint write a mid-search checkpoint here every generation
//	-resume     continue from a -checkpoint or -save file
//	-faults     inject lab faults at this transient rate (0 = off)
//	-exact      force the reference per-cycle measurement loop
//	-rom-tol    volts of PDN replay error admitting the reduced-order
//	            kernel (0 = off, exact replay only); a non-zero value
//	            changes the platform digest
//	-batch-lanes    replay lanes per batched generation: auto (default)
//	                picks the width from the batch shape; an integer
//	                fixes it; negative disables batching
//	-trace-cache-mb trace cache budget in MiB (0 = default 128)
//	-cpuprofile write a pprof CPU profile of the search to this file
//	-pprof      serve net/http/pprof on this address (e.g. :6060)
//
// Worker mode (distributed search, see cmd/auditd):
//
//	-worker      run as a measurement worker instead of searching
//	-coordinator coordinator base URL, e.g. http://host:7070
//	-worker-id   stable worker name (default host.pid)
//	-worker-par  capture parallelism per leased unit (default 1)
//
// In worker mode the coordinator's trace tier is consulted
// automatically: traces another worker already captured are fetched in
// compressed form over /v1/trace instead of recaptured, and fresh
// captures are published back. -trace-store additionally keeps a local
// on-disk store in front of the tier, so a restarted worker warms up
// without touching the network.
//
// A search with -checkpoint survives Ctrl-C: the interrupted run exits
// cleanly and `audit -resume <checkpoint>` finishes it bit-identically
// to an uninterrupted run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/audit"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/report"
	"repro/internal/testbed"
	"repro/internal/tracestore"
)

type cliOptions struct {
	platform, mode         string
	threads, loop          int
	subblock, throttle     int
	pop, gens              int
	seed                   int64
	outAsm, outObj, saveTo string
	checkpoint, resume     string
	corpusAdd              string
	faultRate              float64
	hetero                 bool
	exact                  bool
	romTol                 float64
	batchLanes             string
	traceCacheMB           int
	traceStore             string
	cpuProfile, pprofAddr  string
	worker                 bool
	coordinator, workerID  string
	workerPar              int
}

func main() {
	var c cliOptions
	flag.StringVar(&c.platform, "platform", "bulldozer", "bulldozer or phenom")
	flag.IntVar(&c.threads, "threads", 4, "homogeneous thread count")
	flag.StringVar(&c.mode, "mode", "resonance", "resonance or excitation")
	flag.IntVar(&c.loop, "loop", 0, "loop length in cycles (0 = auto sweep)")
	flag.IntVar(&c.subblock, "subblock", 6, "hierarchical sub-block cycles")
	flag.IntVar(&c.throttle, "throttle", 0, "FP throttle limit during generation")
	flag.IntVar(&c.pop, "pop", 14, "GA population size")
	flag.IntVar(&c.gens, "gens", 14, "GA max generations")
	flag.Int64Var(&c.seed, "seed", 1, "random seed")
	flag.StringVar(&c.outAsm, "o", "", "write NASM-style assembly here")
	flag.StringVar(&c.outObj, "obj", "", "write binary object image here")
	flag.StringVar(&c.saveTo, "save", "", "write the finished stressmark (winner + population) here")
	flag.StringVar(&c.corpusAdd, "corpus-add", "", "harvest the finished stressmark into this corpus directory (see cmd/corpus)")
	flag.StringVar(&c.checkpoint, "checkpoint", "", "write a mid-search checkpoint here every generation")
	flag.StringVar(&c.resume, "resume", "", "resume from a -checkpoint or -save file")
	flag.Float64Var(&c.faultRate, "faults", 0, "inject lab faults at this transient rate (0 = off)")
	flag.BoolVar(&c.hetero, "hetero", false, "give each thread its own genome (resonance mode only)")
	flag.BoolVar(&c.exact, "exact", false, "force the reference per-cycle measurement loop (disable trace replay)")
	flag.Float64Var(&c.romTol, "rom-tol", 0, "volts of PDN replay error admitting the reduced-order kernel (0 = exact replay only)")
	flag.StringVar(&c.batchLanes, "batch-lanes", "auto", "replay lanes per batched generation: auto, a fixed width, or negative to disable batching")
	flag.IntVar(&c.traceCacheMB, "trace-cache-mb", 0, "trace cache budget in MiB (0 = default 128)")
	flag.StringVar(&c.traceStore, "trace-store", "", "persist chip traces in this directory across runs (created if absent)")
	flag.StringVar(&c.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the search to this file")
	flag.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	flag.BoolVar(&c.worker, "worker", false, "run as a measurement worker for a cmd/auditd coordinator")
	flag.StringVar(&c.coordinator, "coordinator", "", "coordinator base URL for -worker, e.g. http://host:7070")
	flag.StringVar(&c.workerID, "worker-id", "", "stable worker name for -worker (default host.pid)")
	flag.IntVar(&c.workerPar, "worker-par", 1, "capture parallelism per leased unit in -worker mode")
	flag.Parse()

	// A negative (or NaN) tolerance would otherwise be folded into the
	// platform digest as a meaningless "rom:-…" identity; reject it
	// before anything is compiled or registered. Checked here so both
	// the search path and -worker mode are covered.
	if c.romTol < 0 || math.IsNaN(c.romTol) {
		fmt.Fprintf(os.Stderr, "audit: -rom-tol must be a non-negative voltage, got %v\n", c.romTol)
		os.Exit(2)
	}

	if c.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(c.pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "audit: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "audit: pprof at http://%s/debug/pprof/\n", c.pprofAddr)
	}
	// stopProfile must run on every exit path (os.Exit skips defers).
	stopProfile := func() {}
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "audit:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "audit: cpuprofile:", err)
			os.Exit(1)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stopProfile()
	}

	// Ctrl-C cancels the search between evaluations instead of killing
	// the process mid-write; with -checkpoint the run is resumable.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if c.worker {
		err := runWorker(ctx, c)
		if errors.Is(err, context.Canceled) {
			stopProfile()
			os.Exit(0) // clean shutdown: leases expire, coordinator reassigns
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "audit:", err)
			stopProfile()
			os.Exit(1)
		}
		return
	}

	err := run(ctx, c)
	if errors.Is(err, context.Canceled) {
		if c.checkpoint != "" {
			fmt.Fprintf(os.Stderr, "audit: interrupted; resume with -resume %s\n", c.checkpoint)
		} else {
			fmt.Fprintln(os.Stderr, "audit: interrupted (use -checkpoint to make searches resumable)")
		}
		stopProfile()
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "audit:", err)
		stopProfile()
		os.Exit(1)
	}
}

func run(ctx context.Context, c cliOptions) error {
	var plat audit.Platform
	switch c.platform {
	case "bulldozer":
		plat = audit.BulldozerPlatform()
	case "phenom":
		plat = audit.PhenomPlatform()
	default:
		return fmt.Errorf("unknown platform %q", c.platform)
	}
	var m audit.Mode
	switch c.mode {
	case "resonance":
		m = audit.Resonance
	case "excitation":
		m = audit.Excitation
	default:
		return fmt.Errorf("unknown mode %q", c.mode)
	}
	// Applied to plat (not only Options) so every compile in this
	// process — search, resonance sweep, corpus harvest — shares one
	// platform identity.
	plat.ROMTolV = c.romTol

	lanes, err := parseBatchLanes(c.batchLanes)
	if err != nil {
		return err
	}
	opts := audit.Options{
		Platform:        plat,
		Threads:         c.threads,
		Mode:            m,
		LoopCycles:      c.loop,
		SubBlockCycles:  c.subblock,
		FPThrottle:      c.throttle,
		CheckpointPath:  c.checkpoint,
		ExactEval:       c.exact,
		ROMTolV:         c.romTol,
		BatchLanes:      lanes,
		TraceCacheBytes: c.traceCacheMB << 20,
		TraceStorePath:  c.traceStore,
		GA: audit.GAConfig{
			PopSize: c.pop, Elites: 2, TournamentK: 3,
			MutationProb: 0.6, MaxGenerations: c.gens, StagnantLimit: 6,
			Seed: c.seed,
		},
		Seed: c.seed,
		Name: fmt.Sprintf("A-%s-%dT", c.mode, c.threads),
	}

	if c.resume != "" {
		if err := loadResume(c.resume, &opts); err != nil {
			return err
		}
	}

	var injector *audit.FaultInjector
	if c.faultRate > 0 {
		// Scale the lab preset so -faults sets the transient-loss rate
		// and the other nuisances follow proportionally.
		fc := audit.LabFaults(c.seed)
		scale := c.faultRate / fc.TransientRate
		fc.TransientRate = c.faultRate
		fc.DropoutRate *= scale
		fc.ThrottleRate *= scale
		opts.WrapRunner = func(r audit.Runner) audit.Runner {
			in, err := audit.NewFaultInjector(fc, r)
			if err != nil {
				panic(err) // validated above: rate in (0,1]
			}
			injector = in
			return in
		}
		// Resilience policy to absorb the injected faults.
		opts.GA.MaxRetries = 4
		opts.GA.DegradeFailures = true
		fmt.Printf("fault injection on: transient rate %.0f%%, retries %d\n",
			100*c.faultRate, opts.GA.MaxRetries)
	}

	if c.hetero {
		if c.corpusAdd != "" {
			return fmt.Errorf("-corpus-add records homogeneous stressmarks only (not -hetero)")
		}
		return runHetero(ctx, c, plat, opts, injectorStats(&injector))
	}

	fmt.Printf("generating %s stressmark for %s (%dT, throttle=%d)...\n",
		c.mode, plat.Chip.Name, c.threads, c.throttle)
	start := time.Now()
	sm, err := audit.GenerateContext(ctx, opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if len(sm.SweepPoints) > 0 {
		tbl := &report.Table{Title: "resonance sweep", Headers: []string{"loop (cyc)", "freq (MHz)", "droop (mV)"}}
		for _, p := range sm.SweepPoints {
			tbl.AddRow(fmt.Sprint(p.LoopCycles), report.F(p.FreqHz/1e6, 1), report.F(p.DroopV*1e3, 1))
		}
		fmt.Println(tbl)
	}
	fmt.Printf("loop length: %d cycles (%.1f MHz)\n", sm.LoopCycles,
		plat.Chip.ClockHz/float64(sm.LoopCycles)/1e6)
	fmt.Printf("GA: %d evaluations over %d generations", sm.Search.Evaluations, sm.Search.Generations)
	if hits, misses := sm.Search.CacheHits, sm.Search.CacheMisses; hits+misses > 0 {
		fmt.Printf(" (fitness cache: %d hits / %d misses, %.0f%% saved)",
			hits, misses, 100*float64(hits)/float64(hits+misses))
	}
	fmt.Println()
	printThroughput(sm.Search.Evaluations, elapsed,
		sm.Search.CacheHits, sm.Search.CacheMisses, sm.TraceStats)
	printResilience(sm.Search.Retries, sm.Search.TimedOut, sm.Search.Degraded, injector)
	fmt.Println(report.BarChart("best droop by generation (mV)",
		genLabels(len(sm.Search.History)), scale(sm.Search.History, 1e3), 40))
	fmt.Printf("best droop: %s (%.1f%% of nominal)\n",
		report.MilliVolts(sm.DroopV), 100*sm.DroopV/plat.Nominal())

	if c.outAsm != "" {
		if err := writeFileAtomic(c.outAsm, []byte(sm.Program.Text())); err != nil {
			return err
		}
		fmt.Println("assembly written to", c.outAsm)
	}
	if c.outObj != "" {
		blob, err := audit.EncodeProgram(sm.Program)
		if err != nil {
			return err
		}
		if err := writeFileAtomic(c.outObj, blob); err != nil {
			return err
		}
		fmt.Println("object image written to", c.outObj)
	}
	if c.saveTo != "" {
		if err := sm.SaveFile(c.saveTo); err != nil {
			return err
		}
		fmt.Println("stressmark written to", c.saveTo)
	}
	if c.corpusAdd != "" {
		if err := depositCorpus(c, plat, sm); err != nil {
			return err
		}
	}
	if c.outAsm == "" {
		fmt.Println("\n--- generated stressmark ---")
		fmt.Print(sm.Program.Text())
	}
	return nil
}

// parseBatchLanes maps the -batch-lanes argument onto
// core.Options.BatchLanes: "auto" (or empty) selects automatic width
// (0), an integer fixes the width, and a negative integer disables the
// batch pipeline.
func parseBatchLanes(s string) (int, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" || s == "auto" {
		return 0, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("-batch-lanes: %q is neither auto nor an integer", s)
	}
	return n, nil
}

// runWorker turns this process into a measurement shard for a
// cmd/auditd coordinator: compile the local platform, register with
// its digest, then lease → measure → post until killed. A SIGKILLed or
// partitioned worker costs the search nothing but a lease TTL.
func runWorker(ctx context.Context, c cliOptions) error {
	if c.coordinator == "" {
		return fmt.Errorf("-worker needs -coordinator <url>")
	}
	var plat audit.Platform
	switch c.platform {
	case "bulldozer":
		plat = audit.BulldozerPlatform()
	case "phenom":
		plat = audit.PhenomPlatform()
	default:
		return fmt.Errorf("unknown platform %q", c.platform)
	}
	// The ROM tolerance is platform identity: the worker registers the
	// ROM-enabled digest, so it only leases work from a coordinator
	// running the same tolerance.
	plat.ROMTolV = c.romTol
	id := c.workerID
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		id = fmt.Sprintf("%s.%d", host, os.Getpid())
	}
	cp, err := audit.Compile(plat)
	if err != nil {
		return err
	}
	if c.traceStore != "" {
		st, err := tracestore.Open(c.traceStore, 0)
		if err != nil {
			return fmt.Errorf("trace store: %w", err)
		}
		cp.SetTraceStore(st)
	}
	// The coordinator's trace tier sits below the local store: traces a
	// peer already captured arrive compressed over the wire, and fresh
	// captures are published for the rest of the pool. A coordinator
	// without a trace store answers 404 and every lookup degrades to a
	// local capture.
	tier, err := dist.NewTraceTierClient(dist.TraceTierConfig{
		BaseURL: c.coordinator, WorkerID: id,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	cp.SetTraceTier(tier)
	w, err := dist.NewWorker(dist.WorkerConfig{
		ID:       id,
		BaseURL:  c.coordinator,
		Runner:   cp,
		Platform: testbed.PlatformDigest(plat),
		Parallel: c.workerPar,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "audit: worker %s serving %s for %s\n", id, plat.Chip.Name, c.coordinator)
	err = w.Run(ctx)
	st := w.Stats()
	fmt.Fprintf(os.Stderr, "audit: worker %s done: %d units, %d abandoned, %d failures, %d rpc retries\n",
		id, st.Units, st.Abandoned, st.Failures, st.RPCRetries)
	if ts := cp.TraceStats(); ts.TierHits+ts.TierMisses+ts.Captures > 0 {
		fmt.Fprintf(os.Stderr, "audit: worker %s traces: %d captured, %d tier hits, %d store hits, %s on the wire, capture time saved %s\n",
			id, ts.Captures, ts.TierHits, ts.StoreHits, wireBytes(ts.WireBytes),
			time.Duration(ts.CaptureNSSaved).Round(time.Millisecond))
	}
	return err
}

// wireBytes renders a byte count with a binary unit.
func wireBytes(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func runHetero(ctx context.Context, c cliOptions, plat audit.Platform, opts audit.Options, stats func() *audit.FaultStats) error {
	if opts.LoopCycles == 0 && opts.Resume == nil {
		return fmt.Errorf("-hetero needs an explicit -loop (run cmd/resonance first)")
	}
	fmt.Printf("generating heterogeneous %s stressmark for %s (%dT)...\n",
		c.mode, plat.Chip.Name, c.threads)
	start := time.Now()
	hsm, err := audit.GenerateHeteroContext(ctx, opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("GA: %d evaluations", hsm.Search.Evaluations)
	if hits, misses := hsm.Search.CacheHits, hsm.Search.CacheMisses; hits+misses > 0 {
		fmt.Printf(" (fitness cache: %d hits / %d misses)", hits, misses)
	}
	fmt.Println()
	printThroughput(hsm.Search.Evaluations, elapsed,
		hsm.Search.CacheHits, hsm.Search.CacheMisses, hsm.TraceStats)
	if s := stats(); s != nil {
		printResilienceStats(hsm.Search.Retries, hsm.Search.TimedOut, hsm.Search.Degraded, s)
	}
	fmt.Printf("best droop: %s; per-thread programs:\n", report.MilliVolts(hsm.DroopV))
	for i, prog := range hsm.Programs {
		fmt.Printf("  thread %d: %d instructions, FP fraction %.0f%%\n",
			i, prog.Len(), 100*prog.FPFraction())
	}
	if c.outAsm != "" {
		for i, prog := range hsm.Programs {
			name := fmt.Sprintf("%s.t%d", c.outAsm, i)
			if err := writeFileAtomic(name, []byte(prog.Text())); err != nil {
				return err
			}
		}
		fmt.Printf("per-thread assembly written to %s.t*\n", c.outAsm)
	}
	if c.saveTo != "" {
		if err := hsm.SaveFile(c.saveTo); err != nil {
			return err
		}
		fmt.Println("stressmark written to", c.saveTo)
	}
	return nil
}

// depositCorpus harvests the finished stressmark into the regression
// corpus: a fresh baseline measurement on a clean compiled platform,
// stamped with its digest (see cmd/corpus for replaying it in CI).
func depositCorpus(c cliOptions, plat audit.Platform, sm *audit.Stressmark) error {
	db, err := corpus.Open(c.corpusAdd)
	if err != nil {
		return err
	}
	cp, err := audit.Compile(plat)
	if err != nil {
		return err
	}
	e, err := corpus.Harvest(cp, c.platform, sm, corpus.HarvestConfig{})
	if err != nil {
		return err
	}
	path, err := db.Add(e)
	if err != nil {
		return err
	}
	fmt.Printf("corpus entry written to %s (droop baseline %s)\n",
		path, report.MilliVolts(e.Expected.DroopV))
	return nil
}

// loadResume points opts at a previous run's state. Both artifact kinds
// are accepted: a -checkpoint file resumes the search losslessly
// mid-flight; a -save file seeds a fresh search with the old
// population (the pre-checkpoint behaviour).
func loadResume(path string, opts *audit.Options) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if audit.IsSearchCheckpoint(blob) {
		ck, err := audit.LoadSearchCheckpoint(bytes.NewReader(blob))
		if err != nil {
			return err
		}
		opts.Resume = ck
		fmt.Printf("resuming search from %s (generation %d)\n", path, searchGen(ck))
		return nil
	}
	prev, pop, err := audit.LoadStressmark(bytes.NewReader(blob))
	if err != nil {
		return err
	}
	opts.SeedGenomes = pop
	if opts.LoopCycles == 0 {
		opts.LoopCycles = prev.LoopCycles
	}
	fmt.Printf("seeding from %s: %d genomes, previous best %.1f mV\n",
		path, len(pop), prev.DroopV*1e3)
	return nil
}

// searchGen peeks the generation counter out of the opaque GA state.
func searchGen(ck *audit.SearchCheckpoint) int {
	var probe struct {
		Gen int `json:"gen"`
	}
	_ = json.Unmarshal(ck.GA, &probe)
	return probe.Gen
}

func injectorStats(in **audit.FaultInjector) func() *audit.FaultStats {
	return func() *audit.FaultStats {
		if *in == nil {
			return nil
		}
		s := (*in).Stats()
		return &s
	}
}

// printThroughput summarises the evaluation pipeline: how fast the
// search scored candidates and how much work the memo, the trace
// cache, and the multi-lane replay kernels absorbed. It goes to
// stderr: stdout stays byte-identical across same-seed runs (the
// repo's determinism guarantee), and wall-clock timing is not.
func printThroughput(evals int, elapsed time.Duration, hits, misses int, ts audit.TraceStats) {
	if evals == 0 || elapsed <= 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "throughput: %.1f evals/sec over %s", float64(evals)/elapsed.Seconds(),
		elapsed.Round(time.Millisecond))
	if tot := hits + misses; tot > 0 {
		fmt.Fprintf(os.Stderr, ", memo hit rate %.0f%%", 100*float64(hits)/float64(tot))
	}
	if tot := ts.Hits + ts.Misses; tot > 0 {
		fmt.Fprintf(os.Stderr, ", trace-cache hit rate %.0f%%", 100*float64(ts.Hits)/float64(tot))
	}
	if ts.LaneBatches > 0 {
		fmt.Fprintf(os.Stderr, ", lane occupancy %.1f", float64(ts.LaneRuns)/float64(ts.LaneBatches))
	}
	if tot := ts.StoreHits + ts.StoreMisses; tot > 0 {
		fmt.Fprintf(os.Stderr, ", trace-store hits %d/%d", ts.StoreHits, tot)
	}
	if tot := ts.TierHits + ts.TierMisses; tot > 0 {
		fmt.Fprintf(os.Stderr, ", trace-tier hits %d/%d", ts.TierHits, tot)
	}
	if ts.WireBytes > 0 {
		fmt.Fprintf(os.Stderr, ", wire %s", wireBytes(ts.WireBytes))
	}
	if ts.CaptureNSSaved > 0 {
		fmt.Fprintf(os.Stderr, ", capture saved %s",
			time.Duration(ts.CaptureNSSaved).Round(time.Millisecond))
	}
	if ts.CaptureNS+ts.ReplayNS > 0 {
		fmt.Fprintf(os.Stderr, ", capture %s / replay %s",
			time.Duration(ts.CaptureNS).Round(time.Millisecond),
			time.Duration(ts.ReplayNS).Round(time.Millisecond))
	}
	if tot := ts.ROMReplays + ts.ExactReplays; tot > 0 {
		if ts.ReplayNS > 0 {
			fmt.Fprintf(os.Stderr, ", replay %s/lane",
				time.Duration(ts.ReplayNS/tot).Round(time.Microsecond))
		}
		fmt.Fprintf(os.Stderr, ", kernels %d rom / %d exact", ts.ROMReplays, ts.ExactReplays)
	}
	if ts.PeriodicReplays > 0 {
		fmt.Fprintf(os.Stderr, ", periodic %d (%d modal, %d probe lanes)",
			ts.PeriodicReplays, ts.ModalPeriodic, ts.AffineProbeLanes)
	}
	if ts.Captures > 0 {
		fmt.Fprintf(os.Stderr, ", schedule-locked %d/%d captures (%d cycles)",
			ts.LockedCaptures, ts.Captures, ts.LockedCycles)
	}
	fmt.Fprintln(os.Stderr)
}

func printResilience(retries, timedOut, degraded int, in *audit.FaultInjector) {
	if in == nil {
		if retries+timedOut+degraded > 0 {
			fmt.Printf("resilience: %d retries, %d timeouts, %d degraded evaluations\n",
				retries, timedOut, degraded)
		}
		return
	}
	s := in.Stats()
	printResilienceStats(retries, timedOut, degraded, &s)
}

func printResilienceStats(retries, timedOut, degraded int, s *audit.FaultStats) {
	fmt.Printf("faults: %d runs, %d transient losses (%d dropouts), %d throttled, %d skewed\n",
		s.Runs, s.Transients, s.Dropouts, s.Throttled, s.Skewed)
	fmt.Printf("resilience: %d retries, %d timeouts, %d degraded evaluations\n",
		retries, timedOut, degraded)
}

// writeFileAtomic is audit.WriteFileAtomic for byte blobs.
func writeFileAtomic(path string, blob []byte) error {
	return audit.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	})
}

func genLabels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("gen %02d", i+1)
	}
	return out
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

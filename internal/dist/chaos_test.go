package dist

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/testbed"
	"repro/internal/tracestore"
)

// The chaos suite runs REAL worker processes (re-executions of this
// test binary) against an in-test coordinator, SIGKILLs one on every
// generation boundary, and injects network faults (drops, duplicates,
// delays, stalls) into the survivors' RPCs. The search must still
// finish with a result and checkpoint bit-identical to the serial
// golden run. Set AUDIT_CHAOS=1 for the heavier variant (more workers,
// longer search).

// TestDistWorkerProcess is not a test: it is the worker process the
// chaos suite spawns. It runs a worker against the coordinator named
// by the environment until it is killed.
func TestDistWorkerProcess(t *testing.T) {
	if os.Getenv("AUDIT_DIST_WORKER") != "1" {
		t.Skip("helper process for the chaos suite")
	}
	url := os.Getenv("AUDIT_DIST_URL")
	id := os.Getenv("AUDIT_DIST_ID")
	var client *http.Client
	if s := os.Getenv("AUDIT_DIST_NETSEED"); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		nf, err := faults.NewNet(faults.LabNet(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		client = &http.Client{Transport: nf}
	}
	cp, err := testbed.Bulldozer().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("AUDIT_DIST_TRACE") == "1" {
		// The trace tier rides the same faulty transport as the control
		// RPCs: fetches and publishes get dropped, stalled and duplicated
		// too, and a SIGKILL can land while this process owns a capture
		// claim or is mid-publish.
		tc, err := NewTraceTierClient(TraceTierConfig{
			BaseURL: url, WorkerID: id,
			HTTPClient: client, LeaseTTL: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		cp.SetTraceTier(tc)
	}
	w, err := NewWorker(WorkerConfig{
		ID: id, BaseURL: url, Runner: cp,
		Platform:   testbed.PlatformDigest(testbed.Bulldozer()),
		HTTPClient: client,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Guard against orphaning: die on our own after a while even if the
	// parent never kills us.
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	w.Run(ctx)
}

// procPool manages real worker subprocesses.
type procPool struct {
	t       *testing.T
	url     string
	netSeed int64
	mu      sync.Mutex
	procs   []*exec.Cmd
	nextID  int
}

func (p *procPool) spawn() {
	p.mu.Lock()
	id := fmt.Sprintf("proc%d", p.nextID)
	p.nextID++
	p.mu.Unlock()
	cmd := exec.Command(os.Args[0], "-test.run=^TestDistWorkerProcess$")
	cmd.Env = append(os.Environ(),
		"AUDIT_DIST_WORKER=1",
		"AUDIT_DIST_URL="+p.url,
		"AUDIT_DIST_ID="+id,
		"AUDIT_DIST_TRACE=1",
		fmt.Sprintf("AUDIT_DIST_NETSEED=%d", p.netSeed+int64(p.nextID)),
	)
	cmd.Stdout = nil
	cmd.Stderr = nil
	if err := cmd.Start(); err != nil {
		p.t.Errorf("spawning worker process: %v", err)
		return
	}
	p.mu.Lock()
	p.procs = append(p.procs, cmd)
	p.mu.Unlock()
}

// sigkillOne SIGKILLs the oldest live worker process and spawns a
// replacement.
func (p *procPool) sigkillOne() {
	p.mu.Lock()
	var victim *exec.Cmd
	if len(p.procs) > 0 {
		victim = p.procs[0]
		p.procs = p.procs[1:]
	}
	p.mu.Unlock()
	if victim == nil {
		return
	}
	victim.Process.Kill() // SIGKILL: no goodbye, no cleanup
	go victim.Wait()      // reap
	p.t.Logf("chaos: SIGKILLed worker pid %d", victim.Process.Pid)
	p.spawn()
}

func (p *procPool) close() {
	p.mu.Lock()
	procs := p.procs
	p.procs = nil
	p.mu.Unlock()
	for _, cmd := range procs {
		cmd.Process.Kill()
		cmd.Wait()
	}
}

// TestChaosSIGKILLEveryGeneration: real worker processes with lossy
// RPC transports, one SIGKILLed at every generation boundary — the
// search still produces the golden result and checkpoint.
func TestChaosSIGKILLEveryGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	nWorkers := 2
	if os.Getenv("AUDIT_CHAOS") != "" {
		nWorkers = 4
	}

	dir := t.TempDir()
	golden, goldenCkpt := runSerial(t, dir)

	ckpt := dir + "/chaos.ckpt"
	opt := searchOptions(ckpt)
	var co *Coordinator
	var pool *procPool
	// The workers share traces through the coordinator's store, with the
	// data plane subject to the same network faults and SIGKILLs as the
	// control plane — including kills that land while a worker owns a
	// capture claim or is mid-publish.
	traceStore, err := tracestore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	opt.WrapRunner = func(r testbed.Runner) testbed.Runner {
		var err error
		co, err = NewCoordinator(Config{
			Local:      r.(LocalRunner),
			Platform:   testbed.PlatformDigest(testbed.Bulldozer()),
			UnitSize:   2,
			LeaseTTL:   200 * time.Millisecond,
			TraceStore: traceStore,
			Logf:       t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(co.Handler())
		t.Cleanup(srv.Close)
		pool = &procPool{t: t, url: srv.URL, netSeed: 1000}
		for i := 0; i < nWorkers; i++ {
			pool.spawn()
		}
		// Give the processes a chance to come up; if they are slow the
		// coordinator degrades to local for the first units, which is
		// exactly the graceful behaviour under test — results are
		// identical either way.
		deadline := time.Now().Add(15 * time.Second)
		for co.LiveWorkers() < nWorkers && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		t.Logf("chaos: %d worker processes live", co.LiveWorkers())
		return co
	}

	// SIGKILL one worker every time a generation checkpoint lands.
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		lastGen := -1
		for {
			select {
			case <-stopWatch:
				return
			case <-time.After(3 * time.Millisecond):
			}
			if gen, ok := checkpointGen(ckpt); ok && gen > lastGen {
				lastGen = gen
				if pool != nil {
					pool.sigkillOne()
				}
			}
		}
	}()

	sm, err := core.Generate(context.Background(), opt)
	if pool != nil {
		defer pool.close()
	}
	if err != nil {
		t.Fatal(err)
	}
	final, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, "chaos", golden, sm, goldenCkpt, final)
	t.Logf("chaos: coordinator stats %+v", co.Stats())
}

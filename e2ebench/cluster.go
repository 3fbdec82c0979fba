package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/testbed"
	"repro/internal/tracestore"
)

// clusterWorkers is the in-process worker count: with worker
// parallelism 1, two workers keep both cores of the reference machine
// busy.
const clusterWorkers = 2

// cluster is a coordinator serving the worker protocol on loopback HTTP
// with the auditd defaults (unit size 4, lease TTL 3 s) and its trace
// tier on, plus in-process workers, each on its own compiled platform.
type cluster struct {
	srv     *http.Server
	co      *dist.Coordinator
	local   *testbed.CompiledPlatform
	tierDir string
	workers []*clusterWorker

	cancel context.CancelFunc
	wg     sync.WaitGroup
	errMu  sync.Mutex
	errs   []error
}

type clusterWorker struct {
	id        string
	cp        *testbed.CompiledPlatform
	w         *dist.Worker
	runner    *timedRunner
	tier      *timedTier
	transport *timedTransport
	http      *http.Transport
}

// startCluster starts the coordinator and workers and returns once
// every worker has registered.
func startCluster(rec *recorder, tierDir string) (*cluster, error) {
	plat := testbed.Bulldozer()
	digest := testbed.PlatformDigest(plat)
	tier, err := tracestore.Open(tierDir, 0)
	if err != nil {
		return nil, err
	}
	local, err := plat.Compile()
	if err != nil {
		return nil, err
	}
	// As in auditd, the coordinator's own platform reads and writes the
	// store behind the tier.
	local.SetTraceStore(tier)
	co, err := dist.NewCoordinator(dist.Config{Local: local, Platform: digest, TraceStore: tier})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &cluster{srv: &http.Server{Handler: co.Handler()}, co: co, local: local, tierDir: tierDir}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		if err := c.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			c.fail(fmt.Errorf("coordinator server: %w", err))
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	url := "http://" + ln.Addr().String()
	for i := 0; i < clusterWorkers; i++ {
		if err := c.addWorker(ctx, rec, url, digest, fmt.Sprintf("w%d", i)); err != nil {
			c.close()
			return nil, err
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for co.LiveWorkers() < clusterWorkers {
		if time.Now().After(deadline) {
			c.close()
			return nil, fmt.Errorf("only %d of %d workers registered", co.LiveWorkers(), clusterWorkers)
		}
		time.Sleep(time.Millisecond)
	}
	return c, nil
}

func (c *cluster) addWorker(ctx context.Context, rec *recorder, url, digest, id string) error {
	cp, err := testbed.Bulldozer().Compile()
	if err != nil {
		return err
	}
	sc := &scope{}
	ht := http.DefaultTransport.(*http.Transport).Clone()
	tt := &timedTransport{base: ht, rec: rec, worker: id, sc: sc}
	client := &http.Client{Transport: tt}
	tc, err := dist.NewTraceTierClient(dist.TraceTierConfig{BaseURL: url, WorkerID: id, HTTPClient: client})
	if err != nil {
		return err
	}
	tier := &timedTier{inner: tc, rec: rec, worker: id, sc: sc}
	cp.SetTraceTier(tier)
	runner := &timedRunner{inner: cp, rec: rec, name: "worker.batch", worker: id, sc: sc}
	w, err := dist.NewWorker(dist.WorkerConfig{
		ID: id, BaseURL: url, Runner: runner,
		Platform: digest, Parallel: 1, HTTPClient: client,
	})
	if err != nil {
		return err
	}
	c.workers = append(c.workers, &clusterWorker{id: id, cp: cp, w: w, runner: runner, tier: tier, transport: tt, http: ht})
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		if err := w.Run(ctx); !errors.Is(err, context.Canceled) {
			c.fail(fmt.Errorf("worker %s: %w", id, err))
		}
	}()
	return nil
}

func (c *cluster) fail(err error) {
	c.errMu.Lock()
	c.errs = append(c.errs, err)
	c.errMu.Unlock()
}

// err reports any worker or server that stopped on its own.
func (c *cluster) err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return errors.Join(c.errs...)
}

// close stops the workers and the server and waits for all of them.
func (c *cluster) close() {
	c.cancel()
	c.srv.Close()
	c.wg.Wait()
	for _, w := range c.workers {
		w.http.CloseIdleConnections()
	}
}

// reset empties every cache a search could leave warm for the next:
// each platform's in-memory traces and measurement memo, and the
// tier's store.
func (c *cluster) reset() error {
	c.local.ClearTraceCache()
	for _, w := range c.workers {
		w.cp.ClearTraceCache()
	}
	ents, err := os.ReadDir(c.tierDir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := os.RemoveAll(filepath.Join(c.tierDir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// distSample is what the dist layer did during one search.
type distSample struct {
	stats               dist.Stats
	tier                dist.TraceTierStats
	rpc                 rpcStats
	workerUnits         int // units the workers evaluated, delivered or not
	workerBatches       map[string][]interval
	tierFetch, tierPubl []time.Duration
}

// clusterSnap is the cumulative counters, sampled before and after a
// search.
type clusterSnap struct {
	stats  dist.Stats
	tier   dist.TraceTierStats
	counts counts
	units  int
}

func (c *cluster) snap() clusterSnap {
	s := clusterSnap{stats: c.co.Stats(), tier: c.co.TraceTierStats(), counts: countsOf(c.local.TraceStats())}
	for _, w := range c.workers {
		s.counts = s.counts.add(countsOf(w.cp.TraceStats()))
		ws := w.w.Stats()
		s.units += ws.Units + ws.Abandoned + ws.Failures
	}
	return s
}

// sample collects what happened between snapshot a and now, and clears
// the per-call logs of the timing wrappers.
func (c *cluster) sample(a clusterSnap) (*distSample, counts) {
	b := c.snap()
	d := &distSample{
		stats: dist.Stats{
			UnitsRemote: b.stats.UnitsRemote - a.stats.UnitsRemote, UnitsLocal: b.stats.UnitsLocal - a.stats.UnitsLocal,
			LeaseExpiries: b.stats.LeaseExpiries - a.stats.LeaseExpiries, Requeues: b.stats.Requeues - a.stats.Requeues,
		},
		tier:          dist.TraceTierStats{Hits: b.tier.Hits - a.tier.Hits, Claims: b.tier.Claims - a.tier.Claims},
		workerUnits:   b.units - a.units,
		workerBatches: make(map[string][]interval),
		rpc:           rpcStats{lat: make(map[string][]time.Duration)},
	}
	for _, w := range c.workers {
		d.workerBatches[w.id] = w.runner.take()
		st := w.transport.take()
		for ep, l := range st.lat {
			d.rpc.lat[ep] = append(d.rpc.lat[ep], l...)
		}
		d.rpc.wire += st.wire
		f, p := w.tier.take()
		d.tierFetch = append(d.tierFetch, f...)
		d.tierPubl = append(d.tierPubl, p...)
	}
	return d, b.counts.sub(a.counts)
}

// search runs one search through the coordinator, from empty caches.
func (c *cluster) search(seed int64, rec *recorder, traced bool) (*searchResult, error) {
	if err := c.reset(); err != nil {
		return nil, err
	}
	c.sample(c.snap()) // drop what the workers logged while idle
	before := c.snap()
	r, err := runSearch(searchOptions(seed), rec, traced, func(testbed.Runner) (testbed.ContextBatchRunner, error) {
		return c.co, nil
	})
	if err != nil {
		return nil, err
	}
	r.dist, r.counts = c.sample(before)
	if r.dist.stats.UnitsRemote == 0 {
		return r, fmt.Errorf("no unit was evaluated by a worker")
	}
	return r, c.err()
}

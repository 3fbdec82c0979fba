package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/testbed"
	"repro/internal/tracestore"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, tailBeyond)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, _, ok := tail(xs); ok {
		t.Fatalf("tail of %d samples reported; needs %d", len(xs), tailBeyond+1)
	}
	xs = append(xs, float64(len(xs)))
	if v, pct, ok := tail(xs); !ok || v != 0 || pct != 100.0/11 {
		t.Fatalf("tail of 11 samples = %v at p%v (ok %v), want the smallest at p%v", v, pct, ok, 100.0/11)
	}
	xs = nil
	for i := 100; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v, want 90 at p90", v, pct)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTallyFailedFrac(t *testing.T) {
	var ta tally
	if ta.frac() != 0 {
		t.Fatal("failed_frac of nothing attempted should be 0")
	}
	ta.check("a", nil)
	ta.check("b", io.EOF)
	ta.check("c", nil)
	ta.check("d", nil)
	if ta.attempted != 4 || ta.failed != 1 || ta.frac() != 0.25 {
		t.Fatalf("tally = %d/%d (%v), want 1 of 4 failed", ta.failed, ta.attempted, ta.frac())
	}
	if len(ta.reasons) != 1 || !strings.HasPrefix(ta.reasons[0], "b: ") {
		t.Fatalf("reasons = %q", ta.reasons)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "search", Start: 0, End: 100 * ms},
		// Two workers' batches overlap each other; one runs past the
		// end of its parent and is clipped.
		{ID: 2, Parent: 1, Name: "worker.batch", Worker: "w0", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "worker.batch", Worker: "w1", Start: 30 * ms, End: 60 * ms},
		{ID: 4, Parent: 1, Name: "rpc.result", Worker: "w0", Start: 90 * ms, End: 120 * ms},
		// A grandchild counts against its own parent only.
		{ID: 5, Parent: 2, Name: "tier.fetch", Worker: "w0", Start: 15 * ms, End: 25 * ms},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 40 * ms, 2: 20 * ms, 3: 30 * ms, 4: 30 * ms, 5: 10 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestDispatchWaitUsesBusiestWorker(t *testing.T) {
	ms := time.Millisecond
	top := []span{{ID: 1, Name: "runner.batch", Start: 0, End: 100 * ms}}
	kids := map[int64][]span{1: {
		{ID: 2, Parent: 1, Name: "worker.batch", Worker: "w0", Start: 0, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "worker.batch", Worker: "w0", Start: 40 * ms, End: 70 * ms},
		{ID: 4, Parent: 1, Name: "worker.batch", Worker: "w1", Start: 10 * ms, End: 50 * ms},
		{ID: 5, Parent: 1, Name: "rpc.lease", Worker: "w1", Start: 50 * ms, End: 99 * ms},
	}}
	if got := dispatchWait(top, kids); got != 40*ms {
		t.Fatalf("dispatch wait = %v, want 100ms - 60ms of w0's batches", got)
	}
}

// fakeRunner records what the timing wrapper forwards to it.
type fakeRunner struct {
	ctx            context.Context
	rcs            []testbed.RunConfig
	lanes, workers int
	ms             []*testbed.Measurement
}

func (f *fakeRunner) Run(testbed.RunConfig) (*testbed.Measurement, error) {
	return &testbed.Measurement{}, nil
}

func (f *fakeRunner) MeasureBatch(rcs []testbed.RunConfig, lanes, workers int) ([]*testbed.Measurement, []error) {
	panic("the wrapper must call MeasureBatchContext")
}

func (f *fakeRunner) MeasureBatchContext(ctx context.Context, rcs []testbed.RunConfig, lanes, workers int) ([]*testbed.Measurement, []error) {
	f.ctx, f.rcs, f.lanes, f.workers = ctx, rcs, lanes, workers
	f.ms = make([]*testbed.Measurement, len(rcs))
	errs := make([]error, len(rcs))
	for i := range rcs {
		if ctx.Err() != nil {
			errs[i] = ctx.Err()
			continue
		}
		f.ms[i] = &testbed.Measurement{MaxDroopV: float64(i)}
	}
	return f.ms, errs
}

func TestTimedRunnerForwardsBatchAndCancellation(t *testing.T) {
	for _, traced := range []bool{false, true} {
		rec := newRecorder()
		rec.on.Store(traced)
		f := &fakeRunner{}
		tr := &timedRunner{inner: f, rec: rec, name: "runner.batch"}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rcs := make([]testbed.RunConfig, 3)
		ms, errs := tr.MeasureBatchContext(ctx, rcs, 5, 2)
		if f.ctx != ctx || f.lanes != 5 || f.workers != 2 || &f.rcs[0] != &rcs[0] {
			t.Fatalf("wrapper changed the call: ctx same %v, lanes %d, workers %d", f.ctx == ctx, f.lanes, f.workers)
		}
		for i := range rcs {
			if errs[i] != context.Canceled || ms[i] != f.ms[i] {
				t.Fatalf("slot %d: got (%v, %v), want the inner runner's cancelled slot", i, ms[i], errs[i])
			}
		}
		if _, errs := tr.MeasureBatch(rcs, 1, 1); errs[0] != nil || f.ctx.Err() != nil {
			t.Fatalf("MeasureBatch should forward an uncancelled context, got %v", errs[0])
		}
		if got := len(tr.take()); got != 2 {
			t.Fatalf("recorded %d batches, want 2", got)
		}
		if got := len(rec.snapshot()); traced != (got == 2) {
			t.Fatalf("traced=%v recorded %d spans", traced, got)
		}
		if rec.batch.Load() != 0 {
			t.Fatal("the coordinator-level batch span was left open")
		}
	}
}

// TestTimedRunnerKeepsBatchPath runs a small search through the
// WrapRunner seam: every generation must reach the wrapped platform as
// one batch call, not as per-candidate runs, and the result must equal
// the unwrapped search.
func TestTimedRunnerKeepsBatchPath(t *testing.T) {
	opt := core.Options{
		Platform: testbed.Bulldozer(), Threads: 2, LoopCycles: 32,
		MeasureCycles: 1200, WarmupCycles: 400, Seed: 5, Name: "wrap-test",
		GA: ga.Config{PopSize: 6, Elites: 2, TournamentK: 3, MutationProb: 0.6, MaxGenerations: 2, Seed: 6},
	}
	want, err := core.Generate(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runSearch(opt, newRecorder(), true, compiledRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.batches) != 3 || len(r.gens) != 3 {
		t.Fatalf("%d batch calls, %d generations; want one per generation (3)", len(r.batches), len(r.gens))
	}
	if err := sameSearch(want, r.sm); err != nil {
		t.Fatal(err)
	}
}

func TestTimedTransportTimesByEndpoint(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, "0123456789")
	}))
	defer srv.Close()
	rec := newRecorder()
	rec.on.Store(true)
	tt := &timedTransport{base: http.DefaultTransport, rec: rec, worker: "w0", sc: &scope{}}
	client := &http.Client{Transport: tt}
	for _, c := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/lease", `{"worker_id":"w0"}`},
		{http.MethodGet, "/v1/trace?addr=x", ""},
		{http.MethodPut, "/v1/trace?addr=x", "abc"},
	} {
		req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	st := tt.take()
	for _, ep := range []string{"lease", "trace_get", "trace_put"} {
		if len(st.lat[ep]) != 1 {
			t.Errorf("%s: %d calls timed, want 1", ep, len(st.lat[ep]))
		}
	}
	if want := int64(len(`{"worker_id":"w0"}`) + 3 + 3*10); st.wire != want {
		t.Errorf("wire bytes = %d, want %d", st.wire, want)
	}
	if got := len(rec.snapshot()); got != 3 {
		t.Errorf("%d spans, want 3", got)
	}
}

type fakeTier struct{ fetched, published int }

func (f *fakeTier) Fetch(key []byte) (*tracestore.Record, int, bool) {
	f.fetched++
	return &tracestore.Record{HeadLen: len(key)}, 7, true
}

func (f *fakeTier) Publish(key []byte, rec *tracestore.Record) int {
	f.published++
	return rec.HeadLen
}

func TestTimedTierForwardsAndNestsRPCs(t *testing.T) {
	rec := newRecorder()
	rec.on.Store(true)
	sc := &scope{}
	f := &fakeTier{}
	tier := &timedTier{inner: f, rec: rec, worker: "w0", sc: sc}
	rec2, wire, ok := tier.Fetch([]byte("key"))
	if !ok || wire != 7 || rec2.HeadLen != 3 {
		t.Fatalf("Fetch = (%v, %d, %v), want the inner tier's answer", rec2, wire, ok)
	}
	if got := tier.Publish([]byte("k"), &tracestore.Record{HeadLen: 9}); got != 9 {
		t.Fatalf("Publish = %d, want 9", got)
	}
	if sc.cur.Load() != 0 {
		t.Fatal("tier span left open in the worker's scope")
	}
	fetch, publish := tier.take()
	if len(fetch) != 1 || len(publish) != 1 || f.fetched != 1 || f.published != 1 {
		t.Fatalf("timed %d fetches, %d publishes", len(fetch), len(publish))
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names and units the
// benchmark prints in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	b := &bench{name: "search-cold", setups: []time.Duration{time.Second}, traced: []*searchResult{}}
	for i := 0; i < droopSeeds; i++ {
		r := &searchResult{
			sm:   &core.Stressmark{Search: &ga.Result[core.Genome]{Evaluations: 100}, DroopV: 0.04},
			wall: time.Second,
		}
		for g := 0; g < 15; g++ {
			r.gens = append(r.gens, time.Duration(g+1)*time.Millisecond)
		}
		b.untraced = append(b.untraced, r)
	}
	for _, c := range []struct {
		what string
		got  map[string]metric
		want []struct{ Name, Unit string }
	}{
		{"end-to-end", b.endToEndMetrics(), spec.EndToEnd},
		{"per-layer", b.layerMetrics(nil), spec.PerLayer},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: prints %d metrics, BENCHMARK.json declares %d", c.what, len(c.got), len(c.want))
		}
		for _, w := range c.want {
			if m, ok := c.got[w.Name]; !ok || m.Unit != w.Unit {
				t.Errorf("%s: %s printed as %+v (present %v), declared in %s", c.what, w.Name, m, ok, w.Unit)
			}
		}
	}
}

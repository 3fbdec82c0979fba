package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/testbed"
	"repro/internal/tracestore"
)

// interval is one call's wall-clock extent.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// timedRunner times every call through the testbed.Runner seam and
// forwards it unchanged: same configs, lane width, worker count and
// context. It implements testbed.ContextBatchRunner, because core's
// generation evaluator silently falls back to per-candidate scoring
// for a runner without the batch interface.
type timedRunner struct {
	inner  testbed.ContextBatchRunner
	rec    *recorder
	name   string // span name
	worker string // "" for the coordinator-level runner
	sc     *scope // the worker's span scope; nil at the coordinator level

	mu      sync.Mutex
	batches []interval
}

var _ testbed.ContextBatchRunner = (*timedRunner)(nil)

func (t *timedRunner) Run(rc testbed.RunConfig) (*testbed.Measurement, error) {
	sp := t.rec.begin(t.name+".run", t.worker, t.rec.parent(t.sc))
	defer sp.end()
	return t.inner.Run(rc)
}

func (t *timedRunner) MeasureBatch(rcs []testbed.RunConfig, lanes, workers int) ([]*testbed.Measurement, []error) {
	return t.MeasureBatchContext(context.Background(), rcs, lanes, workers)
}

func (t *timedRunner) MeasureBatchContext(ctx context.Context, rcs []testbed.RunConfig, lanes, workers int) ([]*testbed.Measurement, []error) {
	sp := t.rec.begin(t.name, t.worker, t.rec.parent(t.sc))
	if t.sc == nil && sp != nil {
		t.rec.batch.Store(sp.id())
	}
	prev := t.sc.enter(sp.id())
	start := time.Now()
	ms, errs := t.inner.MeasureBatchContext(ctx, rcs, lanes, workers)
	end := time.Now()
	t.sc.leave(sp.id(), prev)
	if t.sc == nil && sp != nil {
		t.rec.batch.Store(0)
	}
	sp.end()
	t.mu.Lock()
	t.batches = append(t.batches, interval{start, end})
	t.mu.Unlock()
	return ms, errs
}

// take returns and clears the batch intervals recorded so far.
func (t *timedRunner) take() []interval {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.batches
	t.batches = nil
	return b
}

// rpcStats are one transport's per-endpoint call latencies and the
// bytes it moved.
type rpcStats struct {
	lat  map[string][]time.Duration
	wire int64
}

// timedTransport times each HTTP call a worker makes, by endpoint, from
// sending the request until the caller closes the response body, and
// counts request and response bytes.
type timedTransport struct {
	base   http.RoundTripper
	rec    *recorder
	worker string
	sc     *scope

	mu sync.Mutex
	st rpcStats
}

// endpoint names a worker RPC by its path; the trace data plane shares
// one path, so its GETs and PUTs are told apart by method.
func endpoint(req *http.Request) string {
	ep := strings.TrimPrefix(req.URL.Path, "/v1/")
	if ep == "trace" {
		return "trace_" + strings.ToLower(req.Method)
	}
	return ep
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ep := endpoint(req)
	sp := t.rec.begin("rpc."+ep, t.worker, t.rec.parent(t.sc))
	sent := max(req.ContentLength, 0)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.note(ep, time.Since(start), sent)
		sp.end()
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		t.note(ep, time.Since(start), sent+n)
		sp.end()
	}}
	return resp, nil
}

func (t *timedTransport) note(ep string, d time.Duration, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.st.lat == nil {
		t.st.lat = make(map[string][]time.Duration)
	}
	t.st.lat[ep] = append(t.st.lat[ep], d)
	t.st.wire += bytes
}

// take returns and clears the stats recorded so far.
func (t *timedTransport) take() rpcStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.st
	t.st = rpcStats{}
	return st
}

// countingBody counts the bytes read from a response body and reports
// them once, when the body is closed.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// timedTier times the calls a worker's platform makes to the shared
// trace tier and forwards them unchanged.
type timedTier struct {
	inner  testbed.TraceTier
	rec    *recorder
	worker string
	sc     *scope

	mu             sync.Mutex
	fetch, publish []time.Duration
}

var _ testbed.TraceTier = (*timedTier)(nil)

func (t *timedTier) Fetch(key []byte) (*tracestore.Record, int, bool) {
	sp := t.rec.begin("tier.fetch", t.worker, t.rec.parent(t.sc))
	prev := t.sc.enter(sp.id())
	start := time.Now()
	rec, wire, ok := t.inner.Fetch(key)
	d := time.Since(start)
	t.sc.leave(sp.id(), prev)
	sp.end()
	t.mu.Lock()
	t.fetch = append(t.fetch, d)
	t.mu.Unlock()
	return rec, wire, ok
}

func (t *timedTier) Publish(key []byte, rec *tracestore.Record) int {
	sp := t.rec.begin("tier.publish", t.worker, t.rec.parent(t.sc))
	prev := t.sc.enter(sp.id())
	start := time.Now()
	wire := t.inner.Publish(key, rec)
	d := time.Since(start)
	t.sc.leave(sp.id(), prev)
	sp.end()
	t.mu.Lock()
	t.publish = append(t.publish, d)
	t.mu.Unlock()
	return wire
}

// take returns and clears the fetch and publish latencies so far.
func (t *timedTier) take() (fetch, publish []time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fetch, publish = t.fetch, t.publish
	t.fetch, t.publish = nil, nil
	return fetch, publish
}

package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/testbed"
)

// leaseOutcome is one /v1/lease call made off the test goroutine.
type leaseOutcome struct {
	reply   leaseReply
	err     error
	elapsed time.Duration
}

// leaseAsync calls /v1/lease for id under ctx and reports the reply,
// the transport error and how long the call took.
func leaseAsync(ctx context.Context, url, id string) <-chan leaseOutcome {
	out := make(chan leaseOutcome, 1)
	go func() {
		var o leaseOutcome
		start := time.Now()
		defer func() { o.elapsed = time.Since(start); out <- o }()
		blob, err := json.Marshal(&leaseRequest{WorkerID: id})
		if err != nil {
			o.err = err
			return
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/lease", bytes.NewReader(blob))
		if err != nil {
			o.err = err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			o.err = err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			o.err = fmt.Errorf("HTTP %d", resp.StatusCode)
			return
		}
		o.err = json.NewDecoder(resp.Body).Decode(&o.reply)
	}()
	return out
}

// awaitLease waits for an async lease call, failing the test if it
// does not come back within limit.
func awaitLease(t *testing.T, ch <-chan leaseOutcome, limit time.Duration) leaseOutcome {
	t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(limit):
		t.Fatalf("lease call still open after %v", limit)
		return leaseOutcome{}
	}
}

// registerAs registers each id with the coordinator behind url.
func registerAs(t *testing.T, url string, ids ...string) {
	t.Helper()
	for _, id := range ids {
		var reg registerReply
		rpcJSON(t, url, "/v1/register", &registerRequest{WorkerID: id}, &reg)
		if !reg.OK {
			t.Fatalf("register %s: %+v", id, reg)
		}
	}
}

// startBatch runs a batch of n slots on the coordinator in the
// background (n/2 units at the test UnitSize of 2). The returned stop
// cancels it and waits for it to return.
func startBatch(t *testing.T, co *Coordinator, n int) (stop func()) {
	t.Helper()
	rcs := distSlate(t, n)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		co.MeasureBatchContext(ctx, rcs, 0, 1)
	}()
	stop = func() { cancel(); <-done }
	t.Cleanup(stop)
	return stop
}

// TestLeaseHoldDeliversUnitQueuedMidHold: a lease made on an empty
// queue is held, and a unit queued during the hold comes back in that
// same call, long before the hold would have ended.
func TestLeaseHoldDeliversUnitQueuedMidHold(t *testing.T) {
	co, srv := fastCoordinator(t, compiled(t), func(c *Config) {
		c.LeaseTTL = 6 * time.Second // hold: 1 s
	})
	registerAs(t, srv.URL, "w")
	call := leaseAsync(context.Background(), srv.URL, "w")
	time.Sleep(100 * time.Millisecond)
	stop := startBatch(t, co, 2)
	o := awaitLease(t, call, 5*time.Second)
	stop()
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.reply.Unit == nil {
		t.Fatalf("held lease returned no unit after %v: %+v", o.elapsed, o.reply)
	}
	if o.elapsed < 90*time.Millisecond || o.elapsed > 600*time.Millisecond {
		t.Errorf("lease returned after %v, want between the enqueue (100ms) and well inside the 1s hold", o.elapsed)
	}
}

// TestLeaseHoldClientGone: a client that disconnects mid-hold is
// leased nothing. The next unit goes to the next caller, and no lease
// is left to expire.
func TestLeaseHoldClientGone(t *testing.T) {
	co, _ := fastCoordinator(t, compiled(t), func(c *Config) {
		c.LeaseTTL = time.Minute // hold: 10 s
	})
	// Observe when the held handler returns.
	handlerDone := make(chan struct{}, 4)
	h := co.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Path == "/v1/lease" {
			handlerDone <- struct{}{}
		}
	}))
	t.Cleanup(srv.Close)
	registerAs(t, srv.URL, "gone", "next")

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	o := awaitLease(t, leaseAsync(ctx, srv.URL, "gone"), 5*time.Second)
	if !errors.Is(o.err, context.DeadlineExceeded) {
		t.Fatalf("lease on an empty queue was not held: err %v, reply %+v after %v", o.err, o.reply, o.elapsed)
	}
	select {
	case <-handlerDone:
	case <-time.After(3 * time.Second):
		t.Fatal("held lease did not end when its client left")
	}

	stop := startBatch(t, co, 2)
	next := awaitLease(t, leaseAsync(context.Background(), srv.URL, "next"), 5*time.Second)
	if next.err != nil {
		t.Fatal(next.err)
	}
	if next.reply.Unit == nil {
		t.Fatalf("next caller got no unit: %+v", next.reply)
	}
	stop()
	if st := co.Stats(); st.LeaseExpiries != 0 {
		t.Errorf("LeaseExpiries = %d, want 0: %+v", st.LeaseExpiries, st)
	}
}

// TestLeaseHoldRechecksWorkerOnWake: a worker evicted mid-hold gets
// Evicted and a worker suspended mid-hold gets the idle hint, each as
// soon as the hold wakes rather than when it ends.
func TestLeaseHoldRechecksWorkerOnWake(t *testing.T) {
	co, srv := fastCoordinator(t, compiled(t), func(c *Config) {
		c.LeaseTTL = 6 * time.Second // hold: 1 s
	})
	registerAs(t, srv.URL, "evictee", "suspendee")
	hold := co.cfg.LeaseTTL / 6

	for _, tc := range []struct {
		id    string
		apply func(*workerState)
		check func(leaseReply) bool
	}{
		{"evictee", func(w *workerState) { w.evicted = true },
			func(r leaseReply) bool { return r.Evicted }},
		{"suspendee", func(w *workerState) { w.suspendedUntil = time.Now().Add(time.Hour) },
			func(r leaseReply) bool { return r.Unit == nil && r.RetryMs == hold.Milliseconds() }},
	} {
		call := leaseAsync(context.Background(), srv.URL, tc.id)
		time.Sleep(100 * time.Millisecond)
		co.mu.Lock()
		tc.apply(co.workers[tc.id])
		co.cond.Broadcast()
		co.mu.Unlock()
		o := awaitLease(t, call, 5*time.Second)
		if o.err != nil {
			t.Fatal(o.err)
		}
		if !tc.check(o.reply) {
			t.Errorf("%s: reply %+v", tc.id, o.reply)
		}
		if o.elapsed < 90*time.Millisecond || o.elapsed > hold/2 {
			t.Errorf("%s: lease returned after %v, want mid-hold (after 100ms, well before %v)", tc.id, o.elapsed, hold)
		}
	}
}

// TestLeaseEmptyAfterFullHold: with nothing queued the lease is held
// for LeaseTTL/6, then comes back empty with RetryMs 0 so the worker
// polls again at once.
func TestLeaseEmptyAfterFullHold(t *testing.T) {
	co, srv := fastCoordinator(t, compiled(t), func(c *Config) {
		c.LeaseTTL = 300 * time.Millisecond // hold: 50 ms
	})
	registerAs(t, srv.URL, "w")
	o := awaitLease(t, leaseAsync(context.Background(), srv.URL, "w"), 5*time.Second)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.reply.Unit != nil || o.reply.RetryMs != 0 {
		t.Errorf("reply after a full hold = %+v, want empty with RetryMs 0", o.reply)
	}
	if hold := co.cfg.LeaseTTL / 6; o.elapsed < hold {
		t.Errorf("lease returned after %v, before the %v hold ended", o.elapsed, hold)
	}
}

// TestRepeatedLeaseReleasesStrandedUnit: a worker serves one unit at a
// time, so when it leases again every unit still leased to it was lost
// in transit. The unit is released at once, without a strike, instead
// of waiting out its TTL; the lost lease still counts as an attempt.
func TestRepeatedLeaseReleasesStrandedUnit(t *testing.T) {
	co, srv := fastCoordinator(t, compiled(t), func(c *Config) {
		c.LeaseTTL = time.Minute
	})
	registerAs(t, srv.URL, "dup")
	rcs := distSlate(t, 2)
	type out struct {
		ms   []*testbed.Measurement
		errs []error
	}
	res := make(chan out, 1)
	go func() {
		ms, errs := co.MeasureBatchContext(context.Background(), rcs, 0, 1)
		res <- out{ms, errs}
	}()

	// The first reply is "lost": the worker never sees its unit.
	first := awaitLease(t, leaseAsync(context.Background(), srv.URL, "dup"), 5*time.Second)
	if first.err != nil || first.reply.Unit == nil {
		t.Fatalf("first lease: %+v, err %v", first.reply, first.err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	second := awaitLease(t, leaseAsync(ctx, srv.URL, "dup"), 5*time.Second)
	if second.err != nil {
		t.Fatalf("second lease did not return the stranded unit: %v", second.err)
	}
	if second.reply.Unit == nil || second.reply.Unit.ID != first.reply.Unit.ID {
		t.Fatalf("second lease = %+v, want stranded unit %d", second.reply, first.reply.Unit.ID)
	}
	co.mu.Lock()
	attempts := co.units[first.reply.Unit.ID].attempts
	strikes := co.workers["dup"].strikes
	co.mu.Unlock()
	if attempts != 2 || strikes != 0 {
		t.Errorf("after release: unit attempts %d (want 2), worker strikes %d (want 0)", attempts, strikes)
	}

	// Deliver it; the batch completes without any lease expiring.
	urcs, err := decodeUnit(second.reply.Unit)
	if err != nil {
		t.Fatal(err)
	}
	ms, errs := compiled(t).MeasureBatch(urcs, 0, 1)
	req := resultRequest{WorkerID: "dup", Unit: second.reply.Unit.ID, Slots: make([]WireResult, len(urcs))}
	for i := range urcs {
		req.Slots[i] = encodeResult(ms[i], errs[i])
	}
	var r resultReply
	rpcJSON(t, srv.URL, "/v1/result", &req, &r)
	o := <-res
	checkMatchesLocal(t, rcs, o.ms, o.errs)
	if st := co.Stats(); st.LeaseExpiries != 0 || st.Requeues != 0 {
		t.Errorf("stranded unit went through expiry: %+v", st)
	}
}

// TestRestartedWorkerCannotLoopPoisonUnit: a worker that dies on a
// unit and comes back under the same ID, before the lease expires,
// releases the unit with its next lease but does not get the attempt
// back. After MaxUnitRetries such rounds the unit drops to local and
// the batch finishes.
func TestRestartedWorkerCannotLoopPoisonUnit(t *testing.T) {
	co, srv := fastCoordinator(t, compiled(t), func(c *Config) {
		c.LeaseTTL = time.Minute // no expiry, hold: 10 s
	})
	registerAs(t, srv.URL, "phoenix")
	rcs := distSlate(t, 2) // one unit
	type out struct {
		ms   []*testbed.Measurement
		errs []error
	}
	res := make(chan out, 1)
	go func() {
		ms, errs := co.MeasureBatchContext(context.Background(), rcs, 0, 1)
		res <- out{ms, errs}
	}()

	var id uint64
	for i := 0; i < co.cfg.MaxUnitRetries; i++ {
		if i > 0 {
			registerAs(t, srv.URL, "phoenix") // the restart
		}
		o := awaitLease(t, leaseAsync(context.Background(), srv.URL, "phoenix"), 5*time.Second)
		if o.err != nil || o.reply.Unit == nil {
			t.Fatalf("lease %d: %+v, err %v", i, o.reply, o.err)
		}
		if i > 0 && o.reply.Unit.ID != id {
			t.Fatalf("lease %d got unit %d, want the released unit %d", i, o.reply.Unit.ID, id)
		}
		id = o.reply.Unit.ID
	}

	// One more restart: the release spends the last attempt, the unit
	// goes local, and this lease is held with nothing to hand out.
	registerAs(t, srv.URL, "phoenix")
	ctx, cancel := context.WithCancel(context.Background())
	last := leaseAsync(ctx, srv.URL, "phoenix")
	var o out
	select {
	case o = <-res:
	case <-time.After(5 * time.Second):
		t.Fatal("batch did not finish: the unit never dropped to local")
	}
	cancel()
	if l := awaitLease(t, last, 5*time.Second); l.reply.Unit != nil {
		t.Errorf("a local unit was leased out again: %+v", l.reply)
	}
	checkMatchesLocal(t, rcs, o.ms, o.errs)
	if st := co.Stats(); st.UnitsLocal != 1 || st.LeaseExpiries != 0 {
		t.Errorf("stats %+v, want 1 local unit and no expiry", st)
	}
}

// TestHeldLeasesShareOneBatch: several workers held on an empty queue
// wake on one enqueue and each leaves with a different unit.
func TestHeldLeasesShareOneBatch(t *testing.T) {
	const holders = 4
	co, srv := fastCoordinator(t, compiled(t), func(c *Config) {
		c.LeaseTTL = 6 * time.Second // hold: 1 s
	})
	calls := make([]<-chan leaseOutcome, holders)
	for i := range calls {
		id := fmt.Sprintf("h%d", i)
		registerAs(t, srv.URL, id)
		calls[i] = leaseAsync(context.Background(), srv.URL, id)
	}
	time.Sleep(100 * time.Millisecond)
	defer startBatch(t, co, 2*holders)()

	seen := map[uint64]string{}
	for i, call := range calls {
		o := awaitLease(t, call, 5*time.Second)
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.reply.Unit == nil {
			t.Fatalf("holder h%d got no unit after %v", i, o.elapsed)
		}
		if prev, dup := seen[o.reply.Unit.ID]; dup {
			t.Fatalf("unit %d leased to both %s and h%d", o.reply.Unit.ID, prev, i)
		}
		seen[o.reply.Unit.ID] = fmt.Sprintf("h%d", i)
	}
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/tracestore"
)

// sweepReps is how many times the search workloads repeat their
// set-up; setup_s is the median.
const sweepReps = 3

// coldWorkload: single-node searches, each on a freshly compiled
// platform with no trace store. Users pay capture on every new search,
// so it is timed cold, and the cpu capture layer does most of the work.
type coldWorkload struct{}

func (*coldWorkload) setup(b *bench) error {
	for i := 0; i < sweepReps; i++ {
		start := time.Now()
		if err := sweepSetup(); err != nil {
			return err
		}
		b.setups = append(b.setups, time.Since(start))
	}
	return nil
}

func (*coldWorkload) search(b *bench, i int, traced bool) (*searchResult, error) {
	return runSearch(searchOptions(searchSeed(b.seed, i)), b.rec, traced, compiledRunner)
}

// check compares the first search with the same seed evaluated on the
// per-candidate path, which skips the generation-batched pipeline.
func (*coldWorkload) check(b *bench) {
	first := firstResult(b)
	if first == nil {
		return
	}
	opt := searchOptions(first.seed)
	opt.BatchLanes = -1
	sm, err := core.Generate(context.Background(), opt)
	if err == nil {
		err = sameSearch(first.sm, sm)
	}
	b.tally.check(fmt.Sprintf("seed %d batched vs per-candidate", first.seed), err)
}

func (*coldWorkload) close() {}

// warmSeeds is how many seeds the warm workload's store holds; its
// searches cycle through them.
const warmSeeds = 4

// warmWorkload: the cold searches again, against a trace store that
// set-up fills. Each search compiles a fresh platform, so it starts
// with an empty in-memory cache, as a resumed campaign or a re-run
// suite does. Capture is bypassed; store decode and multi-lane replay
// do the work.
type warmWorkload struct {
	store string
	fills map[int64]*core.Stressmark
}

func (w *warmWorkload) options(b *bench, i int) core.Options {
	opt := searchOptions(searchSeed(b.seed, i%warmSeeds))
	opt.TraceStorePath = w.store
	return opt
}

// setup fills the store with one cold search per seed; each fill is a
// set-up repetition.
func (w *warmWorkload) setup(b *bench) error {
	w.store = filepath.Join(b.dir, "store")
	w.fills = make(map[int64]*core.Stressmark)
	for i := 0; i < warmSeeds; i++ {
		start := time.Now()
		r, err := runSearch(w.options(b, i), b.rec, false, compiledRunner)
		if err != nil {
			return err
		}
		b.setups = append(b.setups, time.Since(start))
		w.fills[r.seed] = r.sm
	}
	return nil
}

// search checks each warm search against the set-up's cold search of
// the same seed, and that it captured nothing.
func (w *warmWorkload) search(b *bench, i int, traced bool) (*searchResult, error) {
	r, err := runSearch(w.options(b, i), b.rec, traced, compiledRunner)
	if err != nil {
		return nil, err
	}
	if err := sameSearch(w.fills[r.seed], r.sm); err != nil {
		return r, fmt.Errorf("warm vs cold: %w", err)
	}
	if r.counts.captures != 0 {
		return r, fmt.Errorf("warm search captured %d traces", r.counts.captures)
	}
	return r, nil
}

// check times tracestore.Decode over every record in the store.
func (w *warmWorkload) check(b *bench) { b.decode = decodeStore(w.store) }

func (*warmWorkload) close() {}

// distWorkload: the cold searches through a coordinator and two
// in-process workers over loopback HTTP, with the trace tier on. It is
// the only workload that loads the dist layer: leases, polling, the
// JSON wire and tier claim/publish.
type distWorkload struct{ c *cluster }

// setup compiles a platform and runs the resonance sweep, as a
// coordinator does before its first search, then starts the
// coordinator and workers and waits for every worker to register. The
// cluster of the last repetition is kept.
func (d *distWorkload) setup(b *bench) error {
	for i := 0; i < sweepReps; i++ {
		if d.c != nil {
			d.c.close()
			d.c = nil
		}
		start := time.Now()
		if err := sweepSetup(); err != nil {
			return err
		}
		c, err := startCluster(b.rec, filepath.Join(b.dir, fmt.Sprintf("tier%d", i)))
		if err != nil {
			return err
		}
		b.setups = append(b.setups, time.Since(start))
		d.c = c
	}
	return nil
}

func (d *distWorkload) search(b *bench, i int, traced bool) (*searchResult, error) {
	return d.c.search(searchSeed(b.seed, i), b.rec, traced)
}

// check compares the first search with the same seed run on one node,
// and times tracestore.Decode over the tier's records.
func (d *distWorkload) check(b *bench) {
	b.decode = decodeStore(d.c.tierDir)
	first := firstResult(b)
	if first == nil {
		return
	}
	sm, err := core.Generate(context.Background(), searchOptions(first.seed))
	if err == nil {
		err = sameSearch(sm, first.sm)
	}
	b.tally.check(fmt.Sprintf("seed %d distributed vs single-node", first.seed), err)
}

func (d *distWorkload) close() {
	if d.c != nil {
		d.c.close()
	}
}

func firstResult(b *bench) *searchResult {
	if len(b.untraced) > 0 {
		return b.untraced[0]
	}
	return nil
}

// decodeStore times tracestore.Decode on each record file in dir.
func decodeStore(dir string) []time.Duration {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var ds []time.Duration
	for _, e := range ents {
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		start := time.Now()
		if _, ok := tracestore.Decode(blob); ok {
			ds = append(ds, time.Since(start))
		}
	}
	return ds
}

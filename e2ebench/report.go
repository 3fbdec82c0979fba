package main

import (
	"fmt"
	"strings"
	"time"
)

// rpcEndpoints are the worker protocol's endpoints, in the order they
// are reported.
var rpcEndpoints = []string{"register", "lease", "heartbeat", "result", "trace_get", "trace_put"}

// endToEndMetrics are what a user sees, from the untraced searches.
// search_evals_per_s is the median over searches of each search's
// evaluations per second: how much work a search does varies with its
// seed, and the median keeps one unusually cheap search from moving the
// run's figure.
func (b *bench) endToEndMetrics() map[string]metric {
	var evals int
	var wall time.Duration
	var rates, gens, droops []float64
	for i, r := range b.untraced {
		evals += r.sm.Search.Evaluations
		wall += r.wall
		rates = append(rates, float64(r.sm.Search.Evaluations)/r.wall.Seconds())
		for _, g := range r.gens {
			gens = append(gens, ms(g))
		}
		if i < droopSeeds {
			droops = append(droops, r.sm.DroopV*1e3)
		}
	}
	setups := make([]float64, len(b.setups))
	for i, d := range b.setups {
		setups[i] = d.Seconds()
	}
	genTail, pct, ok := tail(gens)
	fmt.Printf("%s: %d searches, %d evaluations in %.3f s; set-up %d× (median %.3f s)\n",
		b.name, len(b.untraced), evals, wall.Seconds(), len(setups), median(setups))
	var perSearch []string
	for _, x := range rates {
		perSearch = append(perSearch, fmt.Sprintf("%.1f", x))
	}
	fmt.Printf("evals/s per search: %s\n", strings.Join(perSearch, " "))
	if ok {
		fmt.Printf("gen_ms_tail = %.3f ms is p%.1f of %d generations (%d beyond it)\n", genTail, pct, len(gens), tailBeyond)
	} else {
		fmt.Printf("gen_ms_tail: only %d generations, need %d\n", len(gens), tailBeyond+1)
	}
	b.printOccupancy(b.untraced)
	if b.name == "dist-search" {
		var idle, leases int
		for _, r := range b.untraced {
			leases += len(r.dist.rpc.lat["lease"])
			idle += idleLeases(r.dist)
		}
		fmt.Printf("dist: %d of %d lease calls found no unit; each idle worker sleeps the coordinator's retry hint\n", idle, leases)
	}
	if !ok {
		return nil
	}
	return map[string]metric{
		"setup_s":            {median(setups), "s"},
		"search_evals_per_s": {median(rates), "evals/s"},
		"gen_ms_p50":         {median(gens), "ms"},
		"gen_ms_tail":        {genTail, "ms"},
		"best_droop_mv":      {mean(droops), "mV"},
		"peak_rss_mb":        {peakRSSMB(), "MB"},
	}
}

// printOccupancy reports each search's lane occupancy and flags the
// searches whose occupancy differs from the run's median: each fresh
// platform picks its kernel lane width from a wall-clock calibration,
// so occupancy can change from one search to the next.
func (b *bench) printOccupancy(rs []*searchResult) int {
	var occ []float64
	for _, r := range rs {
		occ = append(occ, r.counts.occupancy())
	}
	med := median(occ)
	var parts []string
	outliers := 0
	for _, o := range occ {
		mark := ""
		if o < 0.9*med || o > 1.1*med {
			mark = "*"
			outliers++
		}
		parts = append(parts, fmt.Sprintf("%.2f%s", o, mark))
	}
	fmt.Printf("pdn.lane_occupancy per search: %s (median %.2f, %d flagged *)\n", strings.Join(parts, " "), med, outliers)
	return outliers
}

func idleLeases(d *distSample) int {
	return max(len(d.rpc.lat["lease"])-d.workerUnits, 0)
}

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// layerMetrics are the per-layer numbers of a traced run: per-search
// means of the traced searches for counts and times, run-level medians
// for latencies and ratios. It also prints the ledger: each layer's
// self time as a share of the untraced wall time of the same searches.
func (b *bench) layerMetrics(spans []span) map[string]metric {
	self := selfTimes(spans)
	kids := make(map[int64][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	decodeP50 := median(msList(b.decode))

	sum := make(map[string]float64) // per-layer totals over traced searches
	var batchMS, fetchMS, publMS []float64
	rpcMS := make(map[string][]float64)
	var traced, untraced time.Duration
	for i, r := range b.traced {
		traced += r.wall
		untraced += b.pairs[i][0]
		c := r.counts
		capture := time.Duration(c.captureNS)
		replay := time.Duration(c.replayNS)
		store := time.Duration(float64(c.storeHits) * decodeP50 * float64(time.Millisecond))
		sum["cpu.captures"] += float64(c.captures)
		sum["cpu.capture_s"] += capture.Seconds()
		sum["cpu.capture_cycles"] += float64(c.captures * runCycles)
		sum["pdn.replay_s"] += replay.Seconds()
		sum["pdn.replay_lane_cycles"] += float64(c.replays * runCycles)
		sum["pdn.lane_runs"] += float64(c.laneRuns)
		sum["pdn.lane_batches"] += float64(c.laneBatches)
		sum["pdn.exact_replays"] += float64(c.exactReplays)
		sum["pdn.early_exits"] += float64(c.earlyExits)
		sum["tracestore.hits"] += float64(c.storeHits)
		sum["tracestore.misses"] += float64(c.storeMisses)
		sum["tracestore.s"] += store.Seconds()
		if c.storeHits > 0 {
			sum["tracestore.bytes_read"] += float64(r.readB)
		}
		sum["testbed.memo_hits"] += float64(c.memoHits)
		sum["testbed.batch_runs"] += float64(c.batchRuns)
		sum["ga.self_s"] += self[r.rootSpan].Seconds()
		sum["ga.evals"] += float64(r.sm.Search.Evaluations)
		sum["ga.cache_hits"] += float64(r.sm.Search.CacheHits)

		// The testbed pipeline's own time is its runner time less what
		// the counters attribute to capture, replay and the store or tier.
		var runner time.Duration
		if r.dist == nil {
			for _, iv := range r.batches {
				runner += iv.dur()
				batchMS = append(batchMS, ms(iv.dur()))
			}
		} else {
			d := r.dist
			for _, ivs := range d.workerBatches {
				for _, iv := range ivs {
					runner += iv.dur()
					batchMS = append(batchMS, ms(iv.dur()))
				}
			}
			var tier time.Duration
			for _, t := range d.tierFetch {
				tier += t
			}
			for _, t := range d.tierPubl {
				tier += t
			}
			store += tier
			sum["dist.tier_s"] += tier.Seconds()
			fetchMS = append(fetchMS, msList(d.tierFetch)...)
			publMS = append(publMS, msList(d.tierPubl)...)
			sum["dist.units_remote"] += float64(d.stats.UnitsRemote)
			sum["dist.units_local"] += float64(d.stats.UnitsLocal)
			sum["dist.lease_expiries"] += float64(d.stats.LeaseExpiries)
			sum["dist.requeues"] += float64(d.stats.Requeues)
			for _, ep := range rpcEndpoints {
				sum["dist.rpc_calls."+ep] += float64(len(d.rpc.lat[ep]))
				sum["dist.rpc_calls"] += float64(len(d.rpc.lat[ep]))
				rpcMS[ep] = append(rpcMS[ep], msList(d.rpc.lat[ep])...)
			}
			sum["dist.idle_leases"] += float64(idleLeases(d))
			sum["dist.worker_busy"] += runner.Seconds()
			sum["dist.worker_capacity"] += (time.Duration(clusterWorkers) * r.wall).Seconds()
			sum["dist.tier_claims"] += float64(d.tier.Claims)
			sum["dist.tier_hits"] += float64(d.tier.Hits)
			sum["dist.wire_bytes"] += float64(d.rpc.wire)
			sum["dist.dispatch_wait_s"] += dispatchWait(kids[r.rootSpan], kids).Seconds()
			for _, k := range kids[r.rootSpan] {
				if k.Name == "runner.batch" {
					sum["dist.coordinator_self_s"] += self[k.ID].Seconds()
				}
			}
		}
		sum["testbed.self_s"] += (runner - capture - replay - store).Seconds()
	}
	n := float64(max(len(b.traced), 1))
	per := func(k string) float64 { return sum[k] / n }
	ratio := func(a, b string) float64 {
		if sum[b] == 0 {
			return 0
		}
		return sum[a] / sum[b]
	}
	batchTail, _, _ := tail(batchMS)
	overhead := 0.0
	if untraced > 0 {
		overhead = traced.Seconds()/untraced.Seconds() - 1
	}
	m := map[string]metric{
		"cpu.captures":                 {per("cpu.captures"), "count"},
		"cpu.capture_s":                {per("cpu.capture_s"), "s"},
		"cpu.capture_ns_per_cycle":     {1e9 * ratio("cpu.capture_s", "cpu.capture_cycles"), "ns/cycle"},
		"pdn.replay_s":                 {per("pdn.replay_s"), "s"},
		"pdn.replay_ns_per_lane_cycle": {1e9 * ratio("pdn.replay_s", "pdn.replay_lane_cycles"), "ns/lane-cycle"},
		"pdn.lane_occupancy":           {ratio("pdn.lane_runs", "pdn.lane_batches"), "lanes"},
		"pdn.occupancy_outliers":       {float64(b.printOccupancy(b.traced)), "count"},
		"pdn.exact_replays":            {per("pdn.exact_replays"), "count"},
		"pdn.early_exits":              {per("pdn.early_exits"), "count"},
		"tracestore.hits":              {per("tracestore.hits"), "count"},
		"tracestore.misses":            {per("tracestore.misses"), "count"},
		"tracestore.decode_ms_p50":     {decodeP50, "ms"},
		"tracestore.bytes_read":        {per("tracestore.bytes_read"), "B"},
		"testbed.batch_ms_p50":         {median(batchMS), "ms"},
		"testbed.batch_ms_tail":        {batchTail, "ms"},
		"testbed.self_s":               {per("testbed.self_s"), "s"},
		"testbed.memo_hits":            {per("testbed.memo_hits"), "count"},
		"testbed.capture_avoided_frac": {capturesAvoided(sum), "frac"},
		"ga.self_s":                    {per("ga.self_s"), "s"},
		"ga.evals":                     {per("ga.evals"), "count"},
		"ga.cache_hits":                {per("ga.cache_hits"), "count"},
		"dist.units_remote":            {per("dist.units_remote"), "count"},
		"dist.units_local":             {per("dist.units_local"), "count"},
		"dist.lease_expiries":          {per("dist.lease_expiries"), "count"},
		"dist.requeues":                {per("dist.requeues"), "count"},
		"dist.rpc_calls":               {per("dist.rpc_calls"), "count"},
		"dist.idle_leases":             {per("dist.idle_leases"), "count"},
		"dist.worker_busy_frac":        {ratio("dist.worker_busy", "dist.worker_capacity"), "frac"},
		"dist.dispatch_wait_s":         {per("dist.dispatch_wait_s"), "s"},
		"dist.tier_fetch_ms_p50":       {median(fetchMS), "ms"},
		"dist.tier_publish_ms_p50":     {median(publMS), "ms"},
		"dist.tier_claims":             {per("dist.tier_claims"), "count"},
		"dist.tier_hits":               {per("dist.tier_hits"), "count"},
		"dist.wire_bytes":              {per("dist.wire_bytes"), "B"},
		"trace_overhead_frac":          {overhead, "frac"},
	}
	for _, ep := range rpcEndpoints {
		m["dist.rpc_calls."+ep] = metric{per("dist.rpc_calls." + ep), "count"}
		m["dist.rpc_ms_p50."+ep] = metric{median(rpcMS[ep]), "ms"}
	}
	b.printLedger(sum, n, untraced, overhead)
	return m
}

func capturesAvoided(sum map[string]float64) float64 {
	if sum["testbed.batch_runs"] == 0 {
		return 0
	}
	return 1 - sum["cpu.captures"]/sum["testbed.batch_runs"]
}

// dispatchWait sums, over the coordinator's batches (one per
// generation), the batch time not matched by the busiest worker's
// runner time inside it: dispatch, polling and the wire.
func dispatchWait(top []span, kids map[int64][]span) time.Duration {
	var total time.Duration
	for _, b := range top {
		if b.Name != "runner.batch" {
			continue
		}
		busy := make(map[string]time.Duration)
		var busiest time.Duration
		for _, k := range kids[b.ID] {
			if k.Name == "worker.batch" {
				busy[k.Worker] += k.dur()
				busiest = max(busiest, busy[k.Worker])
			}
		}
		total += b.dur() - busiest
	}
	return total
}

// printLedger prints each layer's self time per search and its share of
// the untraced wall time of the same seeds. Single-node layers
// partition the traced wall time, so their shares sum to
// 1 + trace_overhead_frac. In the distributed workload the coordinator
// rows partition it; the worker rows are busy time summed over workers,
// which run concurrently.
func (b *bench) printLedger(sum map[string]float64, n float64, untraced time.Duration, overhead float64) {
	u := untraced.Seconds()
	if u <= 0 {
		return
	}
	type row struct {
		layer string
		s     float64
	}
	var rows []row
	if b.name == "dist-search" {
		rows = []row{
			{"ga+core (outside runner calls)", sum["ga.self_s"]},
			{"dist coordinator (no worker busy)", sum["dist.coordinator_self_s"]},
			{"workers busy, RPCs (the rest)", 0},
		}
		wall := 0.0
		for _, p := range b.pairs {
			wall += p[1].Seconds()
		}
		rows[2].s = wall - rows[0].s - rows[1].s
		rows = append(rows,
			row{"  worker cpu capture", sum["cpu.capture_s"]},
			row{"  worker pdn replay", sum["pdn.replay_s"]},
			row{"  worker tier fetch+publish", sum["dist.tier_s"]},
			row{"  worker testbed self", sum["testbed.self_s"]},
		)
	} else {
		rows = []row{
			{"ga+core (outside runner calls)", sum["ga.self_s"]},
			{"testbed self", sum["testbed.self_s"]},
			{"cpu capture", sum["cpu.capture_s"]},
			{"pdn replay", sum["pdn.replay_s"]},
			{"tracestore read+decode (est.)", sum["tracestore.s"]},
		}
	}
	fmt.Printf("ledger: %s, %d traced searches, untraced wall %.3f s/search, trace_overhead_frac %.4f\n",
		b.name, len(b.traced), u/n, overhead)
	total := 0.0
	for _, r := range rows {
		fmt.Printf("  %-36s %8.3f s/search %6.1f%%\n", r.layer, r.s/n, 100*r.s/u)
		if !strings.HasPrefix(r.layer, "  ") {
			total += r.s
		}
	}
	fmt.Printf("  %-36s %8.3f s/search %6.1f%%\n", "sum of self times", total/n, 100*total/u)
}

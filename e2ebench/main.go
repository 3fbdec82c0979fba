// Command e2ebench is the repository's end-to-end benchmark: whole GA
// searches, single-node and distributed, timed from outside the program
// at the seams it exposes. See LEDGER.md for the workloads, the metrics
// and which layer should move which metric.
//
//	e2ebench --workload search-cold --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans and prints the per-layer metrics. The last line of
// standard output is one JSON object with the verdict and the metrics.
// It exits 1 when any output is wrong and 2 when it cannot run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs. Every workload runs
// searches closed-loop: the next search starts when the last one ends,
// and inside a search each generation waits for its batch.
type workload interface {
	// setup runs the workload's set-up, appending each repetition's
	// time to b.setups.
	setup(b *bench) error
	// search runs the i-th search of the run. A non-nil error with a
	// non-nil result is a correctness failure of a finished search.
	search(b *bench, i int, traced bool) (*searchResult, error)
	// check runs the correctness checks that stay outside the timed
	// phase, recording them in b.tally.
	check(b *bench)
	close()
}

var workloads = map[string]func() workload{
	"search-cold": func() workload { return &coldWorkload{} },
	"search-warm": func() workload { return &warmWorkload{} },
	"dist-search": func() workload { return &distWorkload{} },
}

// bench is one run of one workload.
type bench struct {
	name    string
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // scratch directory for stores, removed at exit
	rec     *recorder

	tally    tally
	setups   []time.Duration
	untraced []*searchResult
	traced   []*searchResult
	// pairs holds, in a traced run, the wall times of the untraced and
	// the traced search of each seed.
	pairs  [][2]time.Duration
	decode []time.Duration // tracestore.Decode over the store's records
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the run's search seeds derive from")
	seconds := flag.Int("seconds", 30, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: e2ebench --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(".bench_build", "e2ebench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	b := &bench{name: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, dir: dir, rec: newRecorder()}
	w := mk()
	defer w.close()
	if err := w.setup(b); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s set-up: %v\n", b.name, err)
		return 2
	}
	b.timed(w)
	w.check(b)

	var metrics map[string]metric
	if b.trace {
		spans := b.rec.snapshot()
		path := filepath.Join(".bench_build", "e2ebench-spans", fmt.Sprintf("%s-seed%d.jsonl", b.name, b.seed))
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: writing spans:", err)
		}
		metrics = b.layerMetrics(spans)
	} else {
		metrics = b.endToEndMetrics()
	}
	for _, reason := range b.tally.reasons {
		fmt.Println("FAIL", reason)
	}
	fmt.Printf("failed_frac = %.4f (%d of %d operations)\n", b.tally.frac(), b.tally.failed, b.tally.attempted)
	if metrics == nil {
		fmt.Fprintln(os.Stderr, "e2ebench: too few searches finished to compute the metrics")
		return 1
	}
	for _, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintln(os.Stderr, "e2ebench: a metric is not a finite number")
			return 2
		}
	}
	out, err := json.Marshal(result{
		Correct: b.tally.failed == 0, Attempted: b.tally.attempted, Failed: b.tally.failed, Metrics: metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	fmt.Println(string(out))
	if b.tally.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// timed is the measured phase: searches back to back until the run's
// time is up, and at least droopSeeds of them. A traced run measures
// each seed twice, untraced and traced, alternating which goes first,
// so that the traced search's overhead is measured on the same work.
func (b *bench) timed(w workload) {
	start := time.Now()
	for i := 0; i < droopSeeds || time.Since(start) < b.seconds; i++ {
		if !b.trace {
			if r := b.search(w, i, false); r != nil {
				b.untraced = append(b.untraced, r)
			}
			continue
		}
		var pair [2]*searchResult
		for k := 0; k < 2; k++ {
			traced := (i+k)%2 == 1
			r := b.search(w, i, traced)
			if traced {
				pair[1] = r
			} else {
				pair[0] = r
			}
		}
		if pair[0] == nil || pair[1] == nil {
			continue
		}
		b.tally.check(fmt.Sprintf("seed %d traced vs untraced", pair[0].seed), sameSearch(pair[0].sm, pair[1].sm))
		b.untraced = append(b.untraced, pair[0])
		b.traced = append(b.traced, pair[1])
		b.pairs = append(b.pairs, [2]time.Duration{pair[0].wall, pair[1].wall})
	}
}

func (b *bench) search(w workload, i int, traced bool) *searchResult {
	r, err := w.search(b, i, traced)
	what := fmt.Sprintf("search %d", i)
	if r != nil {
		what = fmt.Sprintf("search %d (seed %d)", i, r.seed)
	}
	b.tally.check(what, err)
	if err != nil {
		return nil
	}
	return r
}

// readBytes is the bytes this process has read through read-like
// system calls, from /proc/self/io; 0 where that file does not exist.
func readBytes() int64 {
	blob, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if v, ok := strings.CutPrefix(line, "rchar: "); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

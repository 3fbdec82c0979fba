package main

import (
	"fmt"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail
// percentile, so that the tail is a measured value and not one outlier.
const tailBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (the mean of the two middle samples
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least
// tailBeyond samples above it: the (tailBeyond+1)-th largest sample. pct
// is the share of samples at or below it, in percent. ok is false when
// there are too few samples for any such percentile.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n < tailBeyond+1 {
		return 0, 0, false
	}
	k := n - 1 - tailBeyond
	return sorted(xs)[k], 100 * float64(k+1) / float64(n), true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally counts operations attempted and failed. An operation is a timed
// search or a correctness check; a failure is an error or a mismatch.
type tally struct {
	attempted, failed int
	reasons           []string
}

// check records one attempted operation; err non-nil marks it failed.
func (t *tally) check(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.reasons = append(t.reasons, fmt.Sprintf("%s: %v", what, err))
	}
}

// frac is failed_frac: failed operations over attempted ones.
func (t *tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

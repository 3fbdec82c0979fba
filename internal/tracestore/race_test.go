//go:build race

package tracestore

// raceEnabled reports a -race build, under which sync.Pool drops
// entries at random and allocation counts are not deterministic.
const raceEnabled = true

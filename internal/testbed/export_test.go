package testbed

import "testing"

// Hooks for the external tests in package testbed_test, which build
// their programs with package core (core imports testbed, so those
// tests cannot live in this package).

// CheckLockedCapture is checkLockedCapture.
func CheckLockedCapture(t testing.TB, cp *CompiledPlatform, rc RunConfig) uint64 {
	return checkLockedCapture(t, cp, rc)
}

// CheckForcedLocks is checkForcedLocks.
func CheckForcedLocks(t testing.TB, cp *CompiledPlatform, rc RunConfig, n int) int {
	return checkForcedLocks(t, cp, rc, n)
}

// PinChipPool makes every capture on cp reuse one chip, as a warm pool
// does, so benchmarks charge no NewChip to whichever op finds the pool
// emptied by a collection.
func PinChipPool(cp *CompiledPlatform) error {
	chip, err := cp.getChip()
	if err != nil {
		return err
	}
	cp.chips.New = func() any { return chip }
	return nil
}

// Capture runs one phase-1 capture and returns its length in cycles.
func Capture(cp *CompiledPlatform, rc RunConfig) (int, error) {
	tr, err := cp.buildTrace(rc)
	if err != nil {
		return 0, err
	}
	return len(tr.energy), nil
}

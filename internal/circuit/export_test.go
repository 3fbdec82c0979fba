package circuit

import "testing"

// Hooks for pdnfactor_test.go, an external test: it builds the shipped
// PDN networks through package pdn, which imports this package, so
// only a test outside the package can reach them.

// CheckRowProgram runs the row-program oracle on cp's transient factor.
func CheckRowProgram(t *testing.T, cp *Compiled, seed int64) { checkRowProgram(t, cp.lu, seed) }

// FactorTerms counts the nonzero and all off-diagonal entries of cp's
// transient factor, checking the row program against the count.
func FactorTerms(t *testing.T, cp *Compiled) (nnz, offDiag int) { return factorTerms(t, cp.lu) }

// BenchSolveBatchKernel runs the kernel benchmark with the given
// compiled Bulldozer network's factor.
func BenchSolveBatchKernel(b *testing.B, bulldozer *Compiled) { benchSolveBatchKernel(b, bulldozer.lu) }

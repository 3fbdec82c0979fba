// Package circuit is a small linear-circuit simulator: modified nodal
// analysis over R/L/C elements with voltage and current sources,
// trapezoidal transient integration, and complex-valued AC analysis.
// It plays the role HSPICE plays in the paper's simulation path
// (Fig. 5): the per-cycle current profile from the CPU model becomes a
// current sink across a lumped RLC model of the power-delivery network,
// and the solver produces the supply-voltage waveform.
package circuit

import (
	"errors"
	"math"
	"math/cmplx"
)

// ErrSingular is returned when the system matrix cannot be factored,
// which for well-formed circuits indicates a floating node or a loop of
// ideal sources.
var ErrSingular = errors.New("circuit: singular matrix")

// luReal is a dense LU factorisation with partial pivoting for the
// real-valued transient system. The matrix is factored once per time
// step size and reused for every step, which is what makes million-step
// transients cheap.
type luReal struct {
	n    int
	lu   []float64 // n×n, row-major, L (unit diagonal) and U packed
	perm []int
	prog rowProg // the replay kernels' program; built only by Compile
}

func factorReal(a []float64, n int) (*luReal, error) {
	lu := append([]float64(nil), a...)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot.
		p, maxAbs := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > maxAbs {
				p, maxAbs = i, v
			}
		}
		if maxAbs == 0 || math.IsNaN(maxAbs) {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[k*n+j], lu[p*n+j] = lu[p*n+j], lu[k*n+j]
			}
			perm[k], perm[p] = perm[p], perm[k]
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivot
			lu[i*n+k] = m
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= m * lu[k*n+j]
			}
		}
	}
	return &luReal{n: n, lu: lu, perm: perm}, nil
}

// solve solves LUx = Pb into x (may alias a scratch buffer).
func (f *luReal) solve(b, x []float64) {
	n := f.n
	for i := 0; i < n; i++ {
		x[i] = b[f.perm[i]]
	}
	// Forward substitution (unit lower).
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s / f.lu[i*n+i]
	}
}

// rowProg is a factor's substitution as a sparse row program: the
// forward rows that have any nonzero entry below the diagonal, in
// ascending row order, then every row for back substitution, in
// descending order. idx holds each row as (row, k, then its k nonzero
// columns in ascending order); coef holds the row's k coefficients in
// the same order, led by the diagonal for back rows.
//
// Running the program equals solve's dense sweep on every lane up to
// the sign of an exact zero. solve's extra terms all have m == 0, so
// for finite x they subtract m·x = ±0, and s − (±0) = s for every
// nonzero s: every nonzero intermediate and result keeps its bits, and
// only a zero can come out with the other sign (== still holds). The
// skipped terms are most of the work: 146 of the 210 off-diagonal
// entries of each shipped PDN's factor are exact zeros.
type rowProg struct {
	idx   []int
	coef  []float64
	nFwd  int
	nBack int
}

// program builds f's row program.
func (f *luReal) program() rowProg {
	n, lu := f.n, f.lu
	nnz := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && lu[i*n+j] != 0 {
				nnz++
			}
		}
	}
	p := rowProg{idx: make([]int, 0, 4*n+nnz), coef: make([]float64, 0, n+nnz)}
	add := func(i, lo, hi int) {
		at := len(p.idx)
		p.idx = append(p.idx, i, 0)
		for j := lo; j < hi; j++ {
			if m := lu[i*n+j]; m != 0 {
				p.idx = append(p.idx, j)
				p.coef = append(p.coef, m)
			}
		}
		p.idx[at+1] = len(p.idx) - at - 2
	}
	for i := 1; i < n; i++ {
		at, ac := len(p.idx), len(p.coef)
		add(i, 0, i)
		if len(p.coef) == ac {
			p.idx = p.idx[:at] // nothing to subtract: the row is x[i] as is
			continue
		}
		p.nFwd++
	}
	for i := n - 1; i >= 0; i-- {
		p.coef = append(p.coef, lu[i*n+i])
		add(i, i+1, n)
		p.nBack++
	}
	return p
}

// scaled returns idx with every row and column index multiplied by L —
// the lane-minor element offsets of an L-lane solve — in dst's storage
// when it has room.
func (p *rowProg) scaled(dst []int, L int) []int {
	dst = append(dst[:0], p.idx...)
	for at := 0; at < len(dst); {
		k := dst[at+1]
		dst[at] *= L
		for e := at + 2; e < at+2+k; e++ {
			dst[e] *= L
		}
		at += 2 + k
	}
	return dst
}

// subst solves LUx = Pb in place for L lanes held lane-minor
// (y[i*L + l] is row i of lane l): y holds Pb on entry and x on
// return. idx is p.idx scaled by L. Per lane it runs the program's
// operations in solve's order — multiply then subtract as two rounded
// operations, one final division per back row — so each lane is
// solve's result up to the sign of zeros (see rowProg).
//
// On amd64 with AVX2 (and without the `noasm` tag) one assembly call
// runs the whole program, 8 and then 4 lanes per instruction with a
// scalar tail, in that same per-lane order, never fusing a
// multiply-add; elsewhere substGo does.
func (p *rowProg) subst(idx []int, y []float64, L int) {
	if haveAVX2 {
		substAVX2(idx, p.coef, p.nFwd+p.nBack, p.nFwd, y, L)
		return
	}
	substGo(idx, p.coef, p.nFwd+p.nBack, p.nFwd, y, L)
}

// substGo is the pure-Go kernel: rows outermost, lanes in register
// blocks of 8 and 4 and then one at a time, so each coefficient is
// loaded once per block and the block's independent chains overlap.
// The first nFwd of the rows rows are forward rows.
func substGo(idx []int, coef []float64, rows, nFwd int, y []float64, L int) {
	at, c := 0, 0
	for r := 0; r < rows; r++ {
		o, k := idx[at], idx[at+1]
		cols := idx[at+2 : at+2+k]
		at += 2 + k
		back := r >= nFwd
		d := 1.0
		if back {
			d = coef[c]
			c++
		}
		ms := coef[c : c+k]
		cols = cols[:len(ms)]
		c += k
		l := 0
		for ; l+8 <= L; l += 8 {
			yo := y[o+l : o+l+8 : o+l+8]
			s0, s1, s2, s3 := yo[0], yo[1], yo[2], yo[3]
			s4, s5, s6, s7 := yo[4], yo[5], yo[6], yo[7]
			for e, m := range ms {
				j := cols[e] + l
				yq := y[j : j+8 : j+8]
				s0 -= m * yq[0]
				s1 -= m * yq[1]
				s2 -= m * yq[2]
				s3 -= m * yq[3]
				s4 -= m * yq[4]
				s5 -= m * yq[5]
				s6 -= m * yq[6]
				s7 -= m * yq[7]
			}
			if back {
				s0, s1, s2, s3 = s0/d, s1/d, s2/d, s3/d
				s4, s5, s6, s7 = s4/d, s5/d, s6/d, s7/d
			}
			yo[0], yo[1], yo[2], yo[3] = s0, s1, s2, s3
			yo[4], yo[5], yo[6], yo[7] = s4, s5, s6, s7
		}
		for ; l+4 <= L; l += 4 {
			yo := y[o+l : o+l+4 : o+l+4]
			s0, s1, s2, s3 := yo[0], yo[1], yo[2], yo[3]
			for e, m := range ms {
				j := cols[e] + l
				yq := y[j : j+4 : j+4]
				s0 -= m * yq[0]
				s1 -= m * yq[1]
				s2 -= m * yq[2]
				s3 -= m * yq[3]
			}
			if back {
				s0, s1, s2, s3 = s0/d, s1/d, s2/d, s3/d
			}
			yo[0], yo[1], yo[2], yo[3] = s0, s1, s2, s3
		}
		for ; l < L; l++ {
			s := y[o+l]
			for e, m := range ms {
				s -= m * y[cols[e]+l]
			}
			if back {
				s /= d
			}
			y[o+l] = s
		}
	}
}

// solveComplex solves a dense complex system Ax=b in place with partial
// pivoting (Gaussian elimination). AC sweeps factor a fresh matrix per
// frequency point, so no reusable factorisation is kept.
func solveComplex(a []complex128, b []complex128, n int) ([]complex128, error) {
	m := append([]complex128(nil), a...)
	x := append([]complex128(nil), b...)
	for k := 0; k < n; k++ {
		p, maxAbs := k, cmplx.Abs(m[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := cmplx.Abs(m[i*n+k]); v > maxAbs {
				p, maxAbs = i, v
			}
		}
		if maxAbs == 0 || math.IsNaN(maxAbs) {
			return nil, ErrSingular
		}
		if p != k {
			for j := k; j < n; j++ {
				m[k*n+j], m[p*n+j] = m[p*n+j], m[k*n+j]
			}
			x[k], x[p] = x[p], x[k]
		}
		for i := k + 1; i < n; i++ {
			f := m[i*n+k] / m[k*n+k]
			if f == 0 {
				continue
			}
			for j := k; j < n; j++ {
				m[i*n+j] -= f * m[k*n+j]
			}
			x[i] -= f * x[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m[i*n+j] * x[j]
		}
		x[i] = s / m[i*n+i]
	}
	return x, nil
}

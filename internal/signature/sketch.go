package signature

import (
	"math"
	"sync"
)

const (
	// MaxRank bounds the directions a Sketch keeps.
	MaxRank = 16
	// pivotMin is the share of its norm a signature must keep outside the
	// directions chosen so far to become the next: enough that two Gram–Schmidt
	// passes leave |eᵢ·eⱼ − δᵢⱼ| ≤ gramTol (a test holds the builder to it).
	pivotMin, gramTol = 0.7, 1e-12
	// A norm outside this range (its square leaves float64's) disables the summary.
	minNorm, maxNorm = 1e-100, 1e100
)

// SketchSlack is what Bound adds so that it never reads below the cosine
// TopK computes. Write d̂ = d/Norm(d) = Eᵀa + res with a = E·d̂ and ρ = |res|
// taken in float64; expanding q̂·d̂ over both decompositions gives a_q·a_d +
// res_q·res_d ≤ a_q·a_d + ρ_q·ρ_d (Cauchy–Schwarz) plus terms in E·Eᵀ − I and
// E·res, at most 2·MaxRank·gramTol + 2·√MaxRank·m·2⁻⁵³ < 1e-10 for m ≤ 10⁴;
// the score's own rounding, (m+2)·2⁻⁵³, is smaller still. The rest is
// float32: each of the R+1 products carries two storage roundings, one
// multiply and at most R+1 additions, and their magnitudes sum to at most
// |q̂|·|d̂| ≤ 1 + 1e-10, so the computed sum is within (MaxRank+4)·2⁻²⁴ =
// 1.2e-6 of the real one. 2e-6 covers all three.
const SketchSlack = 2e-6

// Sketch is a low-rank summary of one immutable block of signatures, derived
// the way Norms is (by the first similarity scan, on the heap, never
// persisted): R ≤ MaxRank orthonormal directions drawn from the block and, per
// signature, its normalised coordinates a along them plus the norm ρ of what
// they leave. cos(q,d) ≤ a_q·a_d + ρ_q·ρ_d: R+1 float32s can reject a candidate
// unscored. The zero value is ready; Of is safe for concurrent use.
type Sketch struct {
	once sync.Once
	m    int
	dirs []float64 // direction i's component j at [j*MaxRank+i]
	// R is the number of directions; 0 means the block carries no summary.
	R int
	// Coef holds R+1 values per signature, a then ρ (all 0 for a zero or null one).
	Coef []float32
}

// Of returns the summary of vecs (dimension m, norms as Norms.Of gives them),
// building it on the first call. Every call must pass the same collection.
func (s *Sketch) Of(m int, vecs [][]float64, norms []float64) *Sketch {
	s.once.Do(func() {
		for i, v := range vecs {
			if n := norms[i]; v != nil && (len(v) != m || n != 0 && !(n >= minNorm && n <= maxNorm)) {
				return
			}
		}
		s.m, s.dirs = m, make([]float64, m*MaxRank)
		// One leader pass: a signature mostly outside the span so far adds
		// its remainder, orthogonalised a second time, as the next direction.
		var row [MaxRank + 1]float32
		res, again := make([]float64, m), make([]float64, m)
		for i := 0; i < len(vecs) && s.R < MaxRank; i++ {
			if norms[i] == 0 || s.project(vecs[i], norms[i], row[:], res) <= pivotMin {
				continue
			}
			if rho := s.project(res, Norm(res), row[:], again); rho > pivotMin {
				for j, x := range again {
					s.dirs[j*MaxRank+s.R] = x / rho
				}
				s.R++
			}
		}
		if s.R == 0 {
			return
		}
		w := s.R + 1
		s.Coef = make([]float32, len(vecs)*w)
		for i, v := range vecs {
			if norms[i] != 0 {
				s.project(v, norms[i], s.Coef[i*w:i*w+w], nil)
			}
		}
	})
	return s
}

// project writes v/norm's coordinates, then the norm of the remainder, into
// out[:R+1]; it returns that norm and leaves the remainder in res (nil: nowhere).
func (s *Sketch) project(v []float64, norm float64, out []float32, res []float64) float64 {
	var a [MaxRank]float64
	r, inv := s.R, 1/norm
	for j, x := range v {
		x *= inv
		for i, e := range s.dirs[j*MaxRank : j*MaxRank+r] {
			a[i] += e * x
		}
	}
	var sum float64
	for j, x := range v {
		x *= inv
		for i, e := range s.dirs[j*MaxRank : j*MaxRank+r] {
			x -= a[i] * e
		}
		if res != nil {
			res[j] = x
		}
		sum += x * x
	}
	for i := 0; i < r; i++ {
		out[i] = float32(a[i])
	}
	out[r] = float32(math.Sqrt(sum))
	return math.Sqrt(sum)
}

// Project writes a target's row (see Coef) into out[:MaxRank+1] and returns its
// width — 0, leave the block unfiltered, if there is no summary or v does not fit.
func (s *Sketch) Project(v []float64, norm float64, out []float32) int {
	if s == nil || s.R == 0 || len(v) != s.m || !(norm >= minNorm && norm <= maxNorm) {
		return 0
	}
	s.project(v, norm, out, nil)
	return s.R + 1
}

// Bound returns the upper bound, slack included, that two rows of one Sketch
// put on the cosine of their signatures. Two running sums: a bound is no score,
// its order of addition is free, and one chain of dependent adds costs twice.
func Bound(row, q []float32) float32 {
	q = q[:len(row)]
	b0, b1 := float32(SketchSlack), float32(0)
	j := 0
	for ; j+1 < len(row); j += 2 {
		b0 += row[j] * q[j]
		b1 += row[j+1] * q[j+1]
	}
	if j < len(row) {
		b0 += row[j] * q[j]
	}
	return b0 + b1
}

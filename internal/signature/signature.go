// Package signature implements the paper's knowledge-signature generation
// (§3.4): every record becomes an M-dimensional numerical vector — the sum
// of the association-matrix rows of the major terms it contains, each
// weighted by the term's in-record frequency — normalized with the L1 norm.
// Records containing no major terms yield a null signature; the paper (§4.2)
// reports that null/weak signatures slow clustering convergence and are
// remedied by increasing the dimensionality, which the engine implements as
// adaptive-dimensionality retries around this package.
package signature

import (
	"math"
	"slices"
	"sync"

	"inspire/internal/assoc"
	"inspire/internal/cluster"
	"inspire/internal/scan"
)

// Signatures holds one rank's document vectors.
type Signatures struct {
	// M is the signature dimensionality (number of topics).
	M int
	// Vecs[r] is local record r's L1-normalized vector, or nil when the
	// record has a null signature.
	Vecs [][]float64
	// Weak[r] reports signatures whose pre-normalization L1 mass fell
	// below the weak threshold (including nulls).
	Weak []bool
	// NullLocal counts local null signatures.
	NullLocal int64
	// WeakLocal counts local weak signatures.
	WeakLocal int64
}

// WeakMassThreshold classifies a signature as weak when its pre-normalization
// L1 mass is below this value: the record's major terms barely associate
// with any topic, so its position in N-space is noise-dominated.
const WeakMassThreshold = 1e-3

// Generate computes the local signatures from the forward index and the
// association matrix. Deterministic: depends only on the record contents and
// the matrix.
func Generate(c *cluster.Comm, fwd *scan.Forward, am *assoc.Matrix) *Signatures {
	m := am.M
	sig := &Signatures{
		M:    m,
		Vecs: make([][]float64, fwd.NumRecords()),
		Weak: make([]bool, fwd.NumRecords()),
	}
	majorRow, _ := am.Topics.DenseIdx()
	counts := make([]int64, am.N) // major row -> in-record frequency
	var rows []int32              // the record's major rows, first occurrence first
	var flops, tokens float64
	for r := 0; r < fwd.NumRecords(); r++ {
		toks := fwd.RecordTokens(r)
		tokens += float64(len(toks))
		rows = rows[:0]
		for _, t := range toks {
			if t >= int64(len(majorRow)) {
				continue
			}
			if i := majorRow[t]; i >= 0 {
				if counts[i] == 0 {
					rows = append(rows, i)
				}
				counts[i]++
			}
		}
		if len(rows) == 0 {
			sig.NullLocal++
			sig.WeakLocal++
			sig.Weak[r] = true
			continue
		}
		// Accumulate rows in ascending major order: float addition is not
		// associative, so a fixed order keeps signatures bit-identical
		// across runs and against the record's token order.
		slices.Sort(rows)
		vec := make([]float64, m)
		var mass float64
		for _, i := range rows {
			row := am.Row(int(i))
			w := float64(counts[i])
			for j, v := range row {
				vec[j] += w * v
				mass += w * v
			}
			counts[i] = 0
		}
		// Real work: one row-accumulate per distinct major (2 flops per
		// component) plus the normalization pass.
		flops += float64(2*len(rows)*m) + float64(m)
		if mass <= 0 {
			sig.NullLocal++
			sig.WeakLocal++
			sig.Weak[r] = true
			continue
		}
		if mass < WeakMassThreshold {
			sig.WeakLocal++
			sig.Weak[r] = true
		}
		// L1 normalization.
		inv := 1 / mass
		for j := range vec {
			vec[j] *= inv
		}
		sig.Vecs[r] = vec
	}
	c.Clock().Advance(c.Model().TokenCost(tokens))
	c.Clock().Advance(c.Model().FlopCost(flops))
	return sig
}

// NullRate collectively returns the global fraction of null signatures.
func (s *Signatures) NullRate(c *cluster.Comm) float64 {
	totals := c.AllreduceSumInt64([]int64{s.NullLocal, int64(len(s.Vecs))})
	if totals[1] == 0 {
		return 0
	}
	return float64(totals[0]) / float64(totals[1])
}

// L1 returns the L1 norm of a vector.
func L1(v []float64) float64 {
	var sum float64
	for _, x := range v {
		if x < 0 {
			sum -= x
		} else {
			sum += x
		}
	}
	return sum
}

// Norm returns the Euclidean norm of a vector, accumulated in index order —
// the order query.Cosine sums its own squares in, so a cosine assembled from
// a dot product and two Norms reproduces it bit for bit.
func Norm(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum)
}

// Norms caches the Euclidean norm of every vector of one immutable
// collection (0 for a null signature). The norms are derived state: never
// persisted, and computed by the first similarity scan rather than at load,
// so a process that never asks for similarity never touches the mapped
// signature pages for them. The zero value is ready; Of is safe for
// concurrent use.
type Norms struct {
	once sync.Once
	v    []float64
}

// Of returns the cached norms, computing them from vecs on the first call.
// Every call must pass the same collection.
func (n *Norms) Of(vecs [][]float64) []float64 {
	n.once.Do(func() {
		n.v = make([]float64, len(vecs))
		for i, v := range vecs {
			n.v[i] = Norm(v)
		}
	})
	return n.v
}

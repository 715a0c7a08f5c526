package signature

// Projection is the frozen signature-projection model of one finished
// pipeline run: the association-matrix rows of the N major terms, keyed by
// dense term ID. It is what live ingestion needs to give a newly added
// document the exact signature the batch pipeline would have computed —
// Project applies the same row-accumulate-then-L1-normalize arithmetic as
// Generate, in the same fixed row order, so the vectors are bit-identical.
//
// All exported fields are immutable after construction (they gob-persist
// inside a serving store); the lookup index is rebuilt lazily.

import (
	"fmt"
	"sort"
	"sync"

	"inspire/internal/assoc"
)

// Projection maps a document's term counts into the M-dimensional signature
// space of the producing run.
type Projection struct {
	// N is the number of major terms (matrix rows), M the signature
	// dimensionality (matrix columns).
	N, M int
	// Majors[i] is the dense term ID of matrix row i.
	Majors []int64
	// A is the row-major N×M association matrix.
	A []float64

	once sync.Once
	idx  map[int64]int // dense term ID -> row
}

// NewProjection freezes a pipeline run's association matrix into a
// projection. The matrix slices are shared, not copied: the matrix is
// immutable once built.
func NewProjection(am *assoc.Matrix) *Projection {
	if am == nil {
		return nil
	}
	return &Projection{N: am.N, M: am.M, Majors: am.Topics.Majors, A: am.A}
}

// Validate checks the structural invariants a loaded projection must satisfy.
func (p *Projection) Validate() error {
	switch {
	case p.N < 0 || p.M < 0:
		return fmt.Errorf("signature: projection is %dx%d", p.N, p.M)
	case len(p.Majors) != p.N:
		return fmt.Errorf("signature: projection has %d majors for %d rows", len(p.Majors), p.N)
	case len(p.A) != p.N*p.M:
		return fmt.Errorf("signature: projection matrix has %d entries for %dx%d", len(p.A), p.N, p.M)
	}
	return nil
}

// rowOf resolves a dense term ID to its matrix row.
func (p *Projection) rowOf(term int64) (int, bool) {
	p.once.Do(func() {
		p.idx = make(map[int64]int, len(p.Majors))
		for i, t := range p.Majors {
			p.idx[t] = i
		}
	})
	i, ok := p.idx[term]
	return i, ok
}

// Project computes the signature of a document given its term counts (dense
// term ID -> in-document frequency): the matrix rows of the majors present,
// each weighted by its frequency, accumulated in ascending row order and
// L1-normalized — exactly Generate's arithmetic. It returns nil (the null
// signature) when the document contains no major terms or the accumulated
// mass is not positive.
func (p *Projection) Project(counts map[int64]int64) []float64 {
	rows := make([]int, 0, len(counts))
	weight := make(map[int]float64, len(counts))
	for t, c := range counts {
		if i, ok := p.rowOf(t); ok {
			rows = append(rows, i)
			weight[i] = float64(c)
		}
	}
	if len(rows) == 0 {
		return nil
	}
	sort.Ints(rows)
	vec := make([]float64, p.M)
	var mass float64
	for _, i := range rows {
		row := p.A[i*p.M : (i+1)*p.M]
		w := weight[i]
		for j, v := range row {
			vec[j] += w * v
			mass += w * v
		}
	}
	if mass <= 0 {
		return nil
	}
	inv := 1 / mass
	for j := range vec {
		vec[j] *= inv
	}
	return vec
}

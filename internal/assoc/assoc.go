// Package assoc implements the paper's association matrix (§3.4): an N×M
// matrix relating the N major terms to the M topic terms, where each entry
// is the conditional probability of the major term given the topic, modified
// by the major term's independent probability of occurrence. Each process
// computes a partial matrix from co-occurrences in its own records; the
// partials are merged with an Allreduce (the paper's MPI_Allreduce).
package assoc

import (
	"inspire/internal/cluster"
	"inspire/internal/scan"
	"inspire/internal/stats"
	"inspire/internal/topic"
)

// Matrix is the global term-to-term association matrix.
type Matrix struct {
	N, M int
	// A is row-major: A[i*M+j] relates major term i to topic j as
	// max(0, P(t_i | t_j) − P(t_i)) — the lift of i above independence
	// conditioned on j, clipped at zero. Rows are unit-free association
	// strengths in [0, 1].
	A []float64
	// DFMajor[i] is the document frequency of major term i (used by the
	// signature stage and for diagnostics).
	DFMajor []int64
	Topics  *topic.Result
}

// Row returns major term row i.
func (m *Matrix) Row(i int) []float64 { return m.A[i*m.M : (i+1)*m.M] }

// Build collectively computes the association matrix. Every rank walks its
// local records once, counting, for each record, the distinct (major, topic)
// pairs present; the count matrix and the per-major document frequencies are
// then combined across ranks and normalized identically everywhere.
func Build(c *cluster.Comm, fwd *scan.Forward, top *topic.Result, st *stats.TermStats) *Matrix {
	n, m := top.N(), top.M()
	co := make([]int64, n*m)

	// Scratch, reused per record: distinct majors / topics in the record.
	// seen[t] holds the last record (plus one) that met term t.
	var majors, topics []int32
	var pairOps float64
	majorRow, topicCol := top.DenseIdx()
	seen := make([]int, len(majorRow))
	for r := 0; r < fwd.NumRecords(); r++ {
		toks := fwd.RecordTokens(r)
		majors = majors[:0]
		topics = topics[:0]
		for _, t := range toks {
			if t >= int64(len(majorRow)) || seen[t] == r+1 {
				continue
			}
			seen[t] = r + 1
			if i := majorRow[t]; i >= 0 {
				majors = append(majors, i)
			}
			if j := topicCol[t]; j >= 0 {
				topics = append(topics, j)
			}
		}
		for _, i := range majors {
			for _, j := range topics {
				co[int(i)*m+int(j)]++
			}
		}
		pairOps += float64(len(majors) * len(topics))
	}
	c.Clock().Advance(c.Model().TokenCost(float64(len(fwd.Tokens))))
	c.Clock().Advance(c.Model().FlopCost(pairOps + float64(n*m)))

	// Merge the partial matrices (MPI_Allreduce in the paper).
	co = c.AllreduceSumInt64(co)

	// Fetch the document frequencies of the selected terms: batched
	// one-sided gathers against the statistics arrays.
	dfMajor := make([]int64, n)
	st.DF.GetIndexed(top.Majors, dfMajor)

	d := float64(st.TotalDocs)
	mat := &Matrix{N: n, M: m, A: make([]float64, n*m), DFMajor: dfMajor, Topics: top}
	for i := 0; i < n; i++ {
		pi := float64(dfMajor[i]) / d
		for j := 0; j < m; j++ {
			dfj := dfMajor[top.MajorIdx[top.Topics[j]]]
			if dfj == 0 {
				continue
			}
			cond := float64(co[i*m+j]) / float64(dfj)
			v := cond - pi
			if v > 0 {
				mat.A[i*m+j] = v
			}
		}
	}
	c.Clock().Advance(c.Model().FlopCost(3 * float64(n*m)))
	return mat
}

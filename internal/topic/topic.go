// Package topic implements the paper's topicality stage (§3.4): each process
// scores the discriminating power of its N/P owned terms with the
// Bookstein-Klein-Raita serial-clustering measure, the per-process top lists
// are combined by a global merge-sort and broadcast, and the best N terms
// become the "major terms" with the top M (≈10% of N) as the "topics" that
// anchor the signature space.
package topic

import (
	"math"
	"sort"

	"inspire/internal/cluster"
	"inspire/internal/stats"
)

// Result is the outcome of topic selection.
type Result struct {
	// Majors lists the top-N term IDs by topicality, best first.
	Majors []int64
	// Scores holds the topicality score of each major term.
	Scores []float64
	// Topics is the leading M prefix of Majors — the anchoring dimensions.
	Topics []int64
	// MajorIdx maps a term ID to its row in Majors; TopicIdx to its column
	// in Topics.
	MajorIdx map[int64]int
	TopicIdx map[int64]int
}

// N returns the number of major terms.
func (r *Result) N() int { return len(r.Majors) }

// M returns the number of topics (signature dimensionality).
func (r *Result) M() int { return len(r.Topics) }

// DenseIdx returns MajorIdx and TopicIdx as tables indexed by term ID, for
// per-token lookups in the pipeline's hot loops: major[t] is term t's row,
// topic[t] its column, and -1 means it has none. Both tables end after the
// largest term ID either map holds; a larger ID is neither.
func (r *Result) DenseIdx() (major, topic []int32) {
	var n int64
	for _, m := range []map[int64]int{r.MajorIdx, r.TopicIdx} {
		for t := range m {
			n = max(n, t+1)
		}
	}
	major, topic = make([]int32, n), make([]int32, n)
	for t := range major {
		major[t], topic[t] = -1, -1
	}
	for t, i := range r.MajorIdx {
		major[t] = int32(i)
	}
	for t, j := range r.TopicIdx {
		topic[t] = int32(j)
	}
	return major, topic
}

// Topicality scores how strongly a term's occurrences clump into few
// documents, following Bookstein, Klein and Raita's serial-clustering
// observation that content-bearing words are "bursty" while function words
// scatter like a Poisson process. With cf occurrences thrown independently
// into D documents the expected document frequency is
//
//	E[df] = D · (1 − (1 − 1/D)^cf)
//
// and a clumping term achieves df < E[df]. The score is the relative
// clumping (E−df)/E, damped by log(1+cf) so that vanishingly rare terms do
// not dominate. Terms occurring once (or never) score zero: a single
// occurrence carries no clustering evidence.
func Topicality(df, cf, totalDocs int64) float64 {
	if df <= 0 || cf <= 1 || totalDocs <= 1 {
		return 0
	}
	d := float64(totalDocs)
	// 1-(1-1/D)^cf computed stably for large D / cf.
	expDF := d * -math.Expm1(float64(cf)*math.Log1p(-1/d))
	if expDF <= 0 {
		return 0
	}
	clump := (expDF - float64(df)) / expDF
	if clump <= 0 {
		return 0
	}
	return clump * math.Log1p(float64(cf))
}

// Select collectively picks the top-N major terms and top-M topics. Each
// rank scores only its owned term range (a local read of the statistics
// arrays), sorts locally, and the global merge-sort + broadcast produces the
// identical Result on every rank. termName must return the term string for a
// dense ID in the caller's owned range (dhash.Map.Term); it is the
// partition-invariant tie-break, so the selected *set* does not depend on P
// when scores tie at the cutoff. topN and topM are clamped to the
// vocabulary; topM defaults to ~10% of topN when zero.
func Select(c *cluster.Comm, st *stats.TermStats, topN, topM int, termName func(int64) string) *Result {
	if termName == nil {
		termName = func(int64) string { return "" }
	}
	lo, hi := st.DF.Distribution(c.Rank())
	df := st.DF.Access()
	cf := st.CF.Access()
	local := make([]cluster.Scored, 0, hi-lo)
	for i := int64(0); i < hi-lo; i++ {
		s := Topicality(df[i], cf[i], st.TotalDocs)
		if s > 0 {
			local = append(local, cluster.Scored{ID: lo + i, Score: s, Key: termName(lo + i)})
		}
	}
	// ~12 flops per term for the scoring pass.
	c.Clock().Advance(c.Model().FlopCost(12 * float64(hi-lo)))
	sort.Slice(local, func(a, b int) bool {
		if local[a].Score != local[b].Score {
			return local[a].Score > local[b].Score
		}
		if local[a].Key != local[b].Key {
			return local[a].Key < local[b].Key
		}
		return local[a].ID < local[b].ID
	})
	if topN <= 0 {
		topN = 1
	}
	top := c.MergeTopK(local, topN)

	if topM <= 0 {
		topM = (len(top) + 9) / 10
	}
	if topM > len(top) {
		topM = len(top)
	}
	if topM < 1 && len(top) > 0 {
		topM = 1
	}
	res := &Result{
		Majors:   make([]int64, len(top)),
		Scores:   make([]float64, len(top)),
		MajorIdx: make(map[int64]int, len(top)),
		TopicIdx: make(map[int64]int, topM),
	}
	for i, s := range top {
		res.Majors[i] = s.ID
		res.Scores[i] = s.Score
		res.MajorIdx[s.ID] = i
	}
	res.Topics = res.Majors[:topM]
	for j, t := range res.Topics {
		res.TopicIdx[t] = j
	}
	return res
}

// Package query implements the interactive-analysis layer the paper names
// as its next frontier: "the interactions associated with massive datasets
// within a visual analytics environment. To the best of our knowledge,
// interactions of this scale on a parallel system have never been
// attempted."
//
// Queries run SPMD over the engine's distributed products: term lookups
// resolve through the vocabulary hashmap and read postings with one-sided
// gets against the term owner; boolean queries intersect/union posting
// lists; similarity search scans local signatures and combines per-rank
// candidates with the same top-K merge collective the topicality stage uses.
// Every operation is charged to the virtual clock, so interaction latency on
// the modeled cluster is measurable.
//
// Concurrency: the point read paths — TermDocs, DF, And, Or — are safe for
// concurrent use from multiple goroutines of one rank (multiple analyst
// sessions), provided the posting source is; the global-array source is. The
// collective operations — Similar, ThemeDocs, Near — synchronize all ranks
// and must be called by exactly one session at a time. The serving layer
// (internal/serve) builds on the non-collective paths plus a gathered
// snapshot for the collective ones.
package query

import (
	"fmt"
	"math"
	"sort"

	"inspire/internal/cluster"
	"inspire/internal/core"
	"inspire/internal/scan"
	"inspire/internal/signature"
)

// PostingSource supplies a term's posting list by dense term ID. The
// distributed inverted index (invert.Index) is the default source; a serving
// layer can interpose a caching source so repeated lookups skip the one-sided
// transfer. Implementations must be safe for concurrent use.
type PostingSource interface {
	Postings(id int64) (docs, freqs []int64)
}

// Engine wraps one rank's view of a finished pipeline run.
type Engine struct {
	c   *cluster.Comm
	res *core.Result
	src PostingSource
}

// New builds the query engine over a pipeline result. Must be called
// collectively with each rank's own result.
func New(c *cluster.Comm, res *core.Result) *Engine {
	return &Engine{c: c, res: res, src: res.Index}
}

// UsePostings replaces the engine's posting source (e.g. with a cache wrapped
// around the previous source) and returns the source it replaced. Not safe to
// call concurrently with queries; install sources before serving.
func (e *Engine) UsePostings(src PostingSource) PostingSource {
	old := e.src
	e.src = src
	return old
}

// Posting is one document hit for a term.
type Posting struct {
	Doc  int64
	Freq int64
}

// TermDocs returns the posting list of a term (sorted by document ID), or
// nil when the term is not in the vocabulary. Any rank may call it; the
// postings transfer one-sided from the term's owner.
func (e *Engine) TermDocs(term string) []Posting {
	tok := Normalize(term)
	id, ok := e.res.Vocab.DenseLookup(tok)
	if !ok {
		return nil
	}
	docs, freqs := e.src.Postings(id)
	out := make([]Posting, len(docs))
	for i := range docs {
		out[i] = Posting{Doc: docs[i], Freq: freqs[i]}
	}
	return out
}

// DF returns a term's document frequency (0 when absent).
func (e *Engine) DF(term string) int64 {
	id, ok := e.res.Vocab.DenseLookup(Normalize(term))
	if !ok {
		return 0
	}
	return e.res.Stats.DF.GetOne(id)
}

// And returns the documents containing every term, sorted by document ID.
// Document frequencies (cheap descriptor reads) are consulted before any
// posting list moves: terms are intersected rarest-first and the remaining —
// larger — lists are never transferred once the intersection is empty or a
// term is absent.
func (e *Engine) And(terms ...string) []int64 {
	if len(terms) == 0 {
		return nil
	}
	type cand struct {
		id int64
		df int64
	}
	cands := make([]cand, len(terms))
	for i, t := range terms {
		id, ok := e.res.Vocab.DenseLookup(Normalize(t))
		if !ok {
			return nil
		}
		df := e.res.Stats.DF.GetOne(id)
		if df == 0 {
			return nil
		}
		cands[i] = cand{id: id, df: df}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].df < cands[b].df })
	var acc []int64
	for i, c := range cands {
		docs, _ := e.src.Postings(c.id)
		if i == 0 {
			acc = append([]int64(nil), docs...)
		} else {
			acc = IntersectSorted(acc, docs)
		}
		if len(acc) == 0 {
			return nil
		}
	}
	return acc
}

// Or returns the documents containing any term, sorted by document ID.
func (e *Engine) Or(terms ...string) []int64 {
	seen := make(map[int64]bool)
	for _, t := range terms {
		for _, p := range e.TermDocs(t) {
			seen[p.Doc] = true
		}
	}
	out := make([]int64, 0, len(seen))
	for doc := range seen {
		out = append(out, doc)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Hit is one similarity-search result.
type Hit struct {
	Doc   int64
	Score float64 // cosine similarity in signature space
}

// Similar collectively finds the k documents most similar to the target
// document's knowledge signature (cosine similarity; the target itself is
// excluded). Every rank returns the same hits. Must be called by all ranks.
func (e *Engine) Similar(targetDoc int64, k int) ([]Hit, error) {
	fwd := e.res.Forward
	sigs := e.res.Signatures
	// The owner of the target broadcasts its vector via sum-allreduce.
	m := sigs.M
	target := make([]float64, m)
	found := 0.0
	for i, id := range fwd.GlobalDocIDs {
		if id == targetDoc {
			if v := sigs.Vecs[i]; v != nil {
				copy(target, v)
				found = 1
			}
		}
	}
	target = e.c.AllreduceSumFloat64(target)
	if e.c.AllreduceSum(found) == 0 {
		return nil, fmt.Errorf("query: document %d not found or has a null signature", targetDoc)
	}

	// Local top-k through the shared scoring path (a one-shot collective:
	// the norms are computed for this call, not cached), global merge.
	var norms signature.Norms
	top := NewTopK(target, targetDoc, k, len(sigs.Vecs))
	top.Scan(fwd.GlobalDocIDs, sigs.Vecs, norms.Of(sigs.Vecs), nil, nil)
	e.c.Clock().Advance(e.c.Model().FlopCost(top.Flops()))
	best := top.Hits()
	local := make([]cluster.Scored, len(best))
	for i, h := range best {
		local[i] = cluster.Scored{ID: h.Doc, Score: h.Score}
	}
	merged := e.c.MergeTopK(local, k)
	out := make([]Hit, len(merged))
	for i, s := range merged {
		out[i] = Hit{Doc: s.ID, Score: s.Score}
	}
	return out, nil
}

// ThemeDocs collectively returns the global document IDs assigned to a
// k-means cluster, sorted. Must be called by all ranks.
func (e *Engine) ThemeDocs(clusterID int) []int64 {
	var local []int64
	for i, a := range e.res.Clusters.Assign {
		if a == clusterID {
			local = append(local, e.res.Forward.GlobalDocIDs[i])
		}
	}
	parts := e.c.Allgather(local, float64(8*len(local)))
	var out []int64
	for _, p := range parts {
		out = append(out, p.([]int64)...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Near collectively returns the documents whose 2-D projection falls within
// radius of (x, y) — the drill-down an analyst performs on a ThemeView
// mountain. Must be called by all ranks.
func (e *Engine) Near(x, y, radius float64) []int64 {
	r2 := radius * radius
	var local []int64
	for _, pt := range e.res.Projection.Local {
		dx, dy := pt.X-x, pt.Y-y
		if dx*dx+dy*dy <= r2 {
			local = append(local, pt.Doc)
		}
	}
	parts := e.c.Allgather(local, float64(8*len(local)))
	var out []int64
	for _, p := range parts {
		out = append(out, p.([]int64)...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// --- helpers ---------------------------------------------------------------

// Normalize folds a query term exactly the way the tokenizer folded it at
// indexing time (scan.NormalizeTerm): Unicode lowercasing plus the '- edge
// trim. It previously byte-lowercased ASCII only, which made every indexed
// non-ASCII term (naïve, café) unreachable from every query path.
func Normalize(term string) string {
	return scan.NormalizeTerm(term)
}

// Cosine returns the cosine similarity of two non-negative vectors. Serving
// scores through TopK (Dot over cached Norms); Cosine stays as the
// independent statement of the score that tests hold that path to.
func Cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Norm returns the Euclidean norm of v (signature.Norm, where the per-set
// norm caches live: that package cannot import this one).
func Norm(v []float64) float64 { return signature.Norm(v) }

// Dot returns the dot product of a and b, accumulated sequentially in index
// order so that Dot(a,b)/(Norm(a)*Norm(b)) is bit for bit Cosine(a,b); an
// unrolled multi-accumulator sum is faster and changes every score's last
// bits.
func Dot(a, b []float64) float64 {
	b = b[:len(a)]
	var dot float64
	for i, x := range a {
		dot += x * b[i]
	}
	return dot
}

// HitLess is the one statement of the hit order: score descending, document
// ascending on ties. Over distinct documents it is a strict total order, so
// the top k of a candidate set is unique however it is selected.
func HitLess(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Doc < b.Doc
}

// TopK is one similarity query in flight, and the only scoring path: the
// serving scan, its incremental refresh, the routed shard half and the batch
// engine all run it. The target's norm is taken once, candidates score as
// Dot/(norm·norm) against norms cached beside their vectors, and the best k
// are kept in a heap (worst hit at the root) of at most min(k, candidates)
// entries — k comes from the client, uncapped, and must size nothing.
type TopK struct {
	target  []float64
	norm    float64
	exclude int64
	k       int
	hits    []Hit
	scored  int
	pruned  int
	proj    [signature.MaxRank + 1]float32 // the target's row in the block's Sketch
}

// NewTopK starts a query for the k documents nearest target, never reporting
// document exclude; candidates bounds how many documents will be offered.
func NewTopK(target []float64, exclude int64, k, candidates int) TopK {
	return TopK{target: target, norm: Norm(target), exclude: exclude, k: k,
		hits: make([]Hit, 0, max(0, min(k, candidates)))}
}

// Scan scores one block of signatures: vecs[i] is docs[i]'s, of norm
// norms[i]. Null signatures, the excluded document and dead documents are
// skipped, not scored. A candidate that sk, the block's summary (nil: none),
// bounds below the worst of k held hits counts as scored but is spared the dot
// product: Offer would have dropped it.
func (t *TopK) Scan(docs []int64, vecs [][]float64, norms []float64, sk *signature.Sketch, dead map[int64]bool) {
	w := 0
	if t.k > 0 {
		w = sk.Project(t.target, t.norm, t.proj[:])
	}
	q, passed, rejected, anyDead := t.proj[:w], 0, 0, len(dead) > 0
	for i, vec := range vecs {
		d := docs[i]
		if vec == nil || d == t.exclude || anyDead && dead[d] {
			continue
		}
		t.scored++
		if w > 0 && len(t.hits) == t.k {
			if float64(signature.Bound(sk.Coef[i*w:i*w+w], q)) < t.hits[0].Score {
				rejected++
				continue
			}
			// A bound costs a tenth of a dot product and pays from one rejection
			// in ten; a block (or target) it cannot tell apart gets a trial of 64.
			if passed++; passed > 64+4*rejected {
				w = 0
			}
		}
		t.Offer(Hit{Doc: d, Score: t.score(vec, norms[i])})
	}
	t.pruned += rejected
}

// score is the target's cosine with a candidate of norm n. Out of line: beside
// the filter in Scan, Dot's loop counter spills and every score costs a fifth more.
//
//go:noinline
func (t *TopK) score(vec []float64, n float64) float64 {
	if t.norm == 0 || n == 0 {
		return 0
	}
	return Dot(t.target, vec) / (t.norm * n)
}

// Counts splits the candidates Flops charges into those scored in full and
// those a bound rejected.
func (t *TopK) Counts() (full, pruned int) { return t.scored - t.pruned, t.pruned }

// Offer considers one already-scored candidate (the incremental refresh
// seeds the selection with a cached answer this way).
func (t *TopK) Offer(h Hit) {
	if hs := t.hits; len(hs) < t.k {
		hs = append(hs, h)
		for i := len(hs) - 1; i > 0 && HitLess(hs[(i-1)/2], hs[i]); i = (i - 1) / 2 {
			hs[(i-1)/2], hs[i] = hs[i], hs[(i-1)/2]
		}
		t.hits = hs
	} else if t.k > 0 && HitLess(h, hs[0]) {
		hs[0] = h
		siftDown(hs, 0)
	}
}

// Flops is the modeled cost so far: 3·M per signature scored (a dot product
// and two norms, as Cosine computes them), whatever the cached norms saved.
func (t *TopK) Flops() float64 { return float64(3 * len(t.target) * t.scored) }

// Hits ends the query and returns the selection in HitLess order — the
// selection buffer itself, heapsorted in place (the root, the worst hit
// left, moves to the end).
func (t *TopK) Hits() []Hit {
	for n := len(t.hits) - 1; n > 0; n-- {
		t.hits[0], t.hits[n] = t.hits[n], t.hits[0]
		siftDown(t.hits[:n], 0)
	}
	return t.hits
}

// siftDown restores the worst-at-root heap order of h below position i.
func siftDown(h []Hit, i int) {
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && HitLess(h[c], h[c+1]) {
			c++
		}
		if !HitLess(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}

// IntersectSorted intersects two sorted ID lists into a sorted result. When
// the lists are comparably sized it merges linearly; when one dwarfs the
// other it gallops — exponential probing then binary search in the longer
// list — so the cost is near |short| · log |long| rather than |short|+|long|.
func IntersectSorted(a, b []int64) []int64 {
	return IntersectSortedInto(nil, a, b)
}

// IntersectSortedInto is IntersectSorted with a caller-owned result buffer:
// the intersection is written over dst[:0] and the (possibly regrown) slice
// returned, so repeated intersections can reuse one scratch buffer and stay
// allocation-free once it reaches working-set size. dst must alias neither
// input.
func IntersectSortedInto(dst, a, b []int64) []int64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		// dst[:0], not nil: the caller keeps its buffer for the next query.
		return dst[:0]
	}
	if len(b) >= gallopFactor*len(a) {
		return gallopIntersect(dst, a, b)
	}
	out := dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// gallopFactor is the length ratio beyond which IntersectSorted switches
// from linear merging to galloping search.
const gallopFactor = 16

// gallopIntersect intersects short a against long b by exponential probing,
// writing over dst[:0].
func gallopIntersect(dst, a, b []int64) []int64 {
	out := dst[:0]
	lo := 0
	for _, v := range a {
		// Gallop: double the step until b[lo+step] >= v, then binary search
		// the bracketed window.
		step := 1
		for lo+step < len(b) && b[lo+step] < v {
			step *= 2
		}
		hi := lo + step
		if hi > len(b) {
			hi = len(b)
		}
		w := b[lo:hi]
		k := sort.Search(len(w), func(i int) bool { return w[i] >= v })
		lo += k
		if lo >= len(b) {
			break
		}
		if b[lo] == v {
			out = append(out, v)
			lo++
		}
	}
	return out
}

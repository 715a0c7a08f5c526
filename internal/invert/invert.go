// Package invert implements the paper's Indexing component: parallel
// inverted file indexing with the FAST-INV algorithm (two counting-sort
// passes over the forward index) and the dynamic load-balancing scheme of
// §3.3 — the forward index is published in global arrays, divided into
// fixed-size chunks of fields ("loads"), and idle processes steal loads
// through a GA atomic fetch-and-increment on per-owner task-queue counters,
// each process draining its own loads first.
//
// Two baseline strategies are provided for the paper's comparisons: Static
// (each process inverts only its own loads; no balancing — Figure 9's
// counterpart) and MasterWorker (every load grab is an RPC to a rank-0
// dispatcher — the scheme §3.3 argues does not scale).
package invert

import (
	"fmt"
	"math/bits"
	"slices"

	"inspire/internal/armci"
	"inspire/internal/cluster"
	"inspire/internal/ga"
	"inspire/internal/postings"
	"inspire/internal/scan"
	"inspire/internal/simtime"
)

// Strategy selects the load-distribution scheme.
type Strategy int

const (
	// DynamicGA is the paper's scheme: per-owner task queues advanced by
	// GA atomic fetch-and-increment, own loads first, then stealing.
	DynamicGA Strategy = iota
	// Static processes only locally owned loads.
	Static
	// MasterWorker requests every load from a rank-0 dispatcher RPC.
	MasterWorker
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case DynamicGA:
		return "dynamic-ga"
	case Static:
		return "static"
	case MasterWorker:
		return "master-worker"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// GlobalForward is the forward index published in global arrays so any
// process can invert any load (paper: "these tables are stored in global
// arrays, so that they are globally accessible when processes exchange
// information during inverted file indexing").
type GlobalForward struct {
	Tokens   *ga.Array[int64] // concatenated token streams, rank-major
	FieldLo  *ga.Array[int64] // global token start of each field
	FieldLen *ga.Array[int64] // token count of each field
	FieldDoc *ga.Array[int64] // global document ID of each field
	NumField int64
}

// PublishForward collectively copies each rank's forward index into global
// arrays. Local shard writes are direct memory stores (free, as in GA).
func PublishForward(c *cluster.Comm, fwd *scan.Forward) *GlobalForward {
	gf := &GlobalForward{}
	gf.Tokens = ga.CreateIrregular[int64](c, "fwd.tokens", int64(len(fwd.Tokens)))
	copy(gf.Tokens.Access(), fwd.Tokens)
	tokBase, _ := gf.Tokens.Distribution(c.Rank())

	nf := int64(len(fwd.Fields))
	gf.FieldLo = ga.CreateIrregular[int64](c, "fwd.fieldlo", nf)
	gf.FieldLen = ga.CreateIrregular[int64](c, "fwd.fieldlen", nf)
	gf.FieldDoc = ga.CreateIrregular[int64](c, "fwd.fielddoc", nf)
	lo, len_, doc := gf.FieldLo.Access(), gf.FieldLen.Access(), gf.FieldDoc.Access()
	for i, f := range fwd.Fields {
		lo[i] = tokBase + f.Lo
		len_[i] = f.Hi - f.Lo
		doc[i] = fwd.GlobalDocIDs[f.Record]
	}
	gf.NumField = gf.FieldLo.N()
	c.Barrier()
	return gf
}

// Load is one unit of inversion work: a contiguous range of fields owned by
// one rank, covering a contiguous token range of that rank's stream.
type Load struct {
	Owner            int
	FieldLo, FieldHi int64 // global field indexes
	TokenLo, TokenHi int64 // global token range
	Entries          int64 // distinct (term, doc) pairs; filled in pass 1
}

// Tokens returns the token count of the load.
func (l *Load) Tokens() int64 { return l.TokenHi - l.TokenLo }

// BuildLoads collectively divides the global forward index into fixed-size
// chunks of approximately chunkTokens tokens (Kruskal-Weiss fixed-size
// chunking). Chunks are aligned to *record* boundaries — all fields of one
// record stay in one load — so each (term, document) pair is produced by
// exactly one load and postings never need cross-load merging. The returned
// table is identical on every rank, ordered by owner.
func BuildLoads(c *cluster.Comm, gf *GlobalForward, chunkTokens int64) []Load {
	if chunkTokens <= 0 {
		chunkTokens = 4096
	}
	fLo, fHi := gf.FieldLo.Distribution(c.Rank())
	lo := gf.FieldLo.Access()
	ln := gf.FieldLen.Access()
	doc := gf.FieldDoc.Access()
	var mine []Load
	var cur *Load
	n := fHi - fLo
	for i := int64(0); i < n; i++ {
		if cur == nil {
			mine = append(mine, Load{
				Owner:   c.Rank(),
				FieldLo: fLo + i, FieldHi: fLo + i,
				TokenLo: lo[i], TokenHi: lo[i],
			})
			cur = &mine[len(mine)-1]
		}
		cur.FieldHi = fLo + i + 1
		cur.TokenHi = lo[i] + ln[i]
		recordEnds := i+1 >= n || doc[i+1] != doc[i]
		if cur.Tokens() >= chunkTokens && recordEnds {
			cur = nil
		}
	}
	// Drop degenerate empty trailing loads.
	filtered := mine[:0]
	for _, l := range mine {
		if l.FieldHi > l.FieldLo {
			filtered = append(filtered, l)
		}
	}
	parts := c.Allgather(filtered, float64(48*len(filtered)))
	var all []Load
	for _, p := range parts {
		all = append(all, p.([]Load)...)
	}
	return all
}

// Index is the product of inversion: the term-to-record index with
// per-term postings (document ID, in-document frequency), partitioned across
// ranks by the dense-term-ID ranges of the vocabulary.
type Index struct {
	N int64 // vocabulary size

	Counts   *ga.Array[int64] // postings per term == document frequency
	Off      *ga.Array[int64] // start offset of each term's postings
	PostDoc  *ga.Array[int64] // posting document IDs
	PostFreq *ga.Array[int64] // posting frequencies

	// TermLo, TermHi is the dense term range owned by the local rank.
	TermLo, TermHi int64

	// DF and CF are the local owned terms' document and collection
	// frequencies (index i corresponds to term TermLo+i).
	DF []int64
	CF []int64

	// Loads is the global load table with Entries filled, and Stats the
	// per-load execution accounting for the deterministic schedule model.
	Loads []Load
}

// Postings returns term t's postings (sorted by document ID) — a one-sided
// read, usable from any rank after Invert.
func (ix *Index) Postings(t int64) (docs, freqs []int64) {
	n := ix.Counts.GetOne(t)
	if n == 0 {
		return nil, nil
	}
	off := ix.Off.GetOne(t)
	docs = make([]int64, n)
	freqs = make([]int64, n)
	ix.PostDoc.Get(off, docs)
	ix.PostFreq.Get(off, freqs)
	return docs, freqs
}

// EncodePostings emits the rank's owned terms straight into the serving
// codec: one block-compressed posting store covering the dense range
// [TermLo, TermHi), local index i holding term TermLo+i. Indexing owns the
// postings sorted and contiguous after finalizeOwned, so emission is one
// linear pass over local memory with no flat detour; charged at the
// re-encode rate.
func (ix *Index) EncodePostings(c *cluster.Comm) (*postings.Store, error) {
	counts := ix.Counts.Access()
	offs := ix.Off.Access()
	postBase, _ := ix.PostDoc.Distribution(c.Rank())
	docs := ix.PostDoc.Access()
	freqs := ix.PostFreq.Access()
	var total int64
	for _, n := range counts {
		total += n
	}
	w := postings.NewWriter(total)
	for i := range counts {
		n := counts[i]
		var d, f []int64
		if n > 0 {
			lo := offs[i] - postBase
			d, f = docs[lo:lo+n], freqs[lo:lo+n]
		}
		if err := w.Append(d, f); err != nil {
			return nil, fmt.Errorf("invert: encode postings of term %d: %w", ix.TermLo+int64(i), err)
		}
	}
	c.Clock().Advance(c.Model().LocalCopyCost(16*float64(total)) + c.Model().FlopCost(4*float64(total)))
	return w.Finish(), nil
}

// termBoundsFn describes the dense-term partition (from dhash.DenseRange).
type termBoundsFn func(rank int) (lo, hi int64)

// Options configures Invert.
type Options struct {
	Strategy    Strategy
	ChunkTokens int64
	// RPC is required for the MasterWorker strategy.
	RPC *armci.Registry
}

// Invert collectively builds the term-to-record index from the published
// forward index using the FAST-INV two-pass algorithm under the selected
// load-distribution strategy. termBounds must describe the same partition on
// every rank; N is the vocabulary size.
func Invert(c *cluster.Comm, gf *GlobalForward, N int64, termBounds func(rank int) (lo, hi int64), opts Options) *Index {
	lo, hi := termBounds(c.Rank())
	ix := &Index{N: N, TermLo: lo, TermHi: hi}
	ix.Counts = createTermArray(c, "inv.counts", N, termBounds)
	ix.Off = createTermArray(c, "inv.off", N, termBounds)

	loads := BuildLoads(c, gf, opts.ChunkTokens)
	claimer := newClaimer(c, loads, opts)

	// --- Pass 1: count distinct (term, doc) pairs per term. -------------
	myEntries := make(map[int]int64) // load index -> entries
	sc := &scratch{inDoc: make([]int32, N), inLoad: make([]int32, N), mark: make([]uint64, (N+63)/64)}
	myLoads := claimer.claim(func(li int) {
		sc.invert(c, gf, li, &loads[li])
		ix.Counts.ScatterAcc(sc.terms, sc.counts)
		myEntries[li] = int64(len(sc.pairs))
		c.Clock().Advance(c.Model().InvertCost(float64(loads[li].Tokens())))
	})
	c.Barrier()

	// Share per-load entry counts so the load table (and therefore the
	// deterministic cost model) is global.
	type entryPair struct{ Load, Entries int64 }
	local := make([]entryPair, 0, len(myEntries))
	for li, e := range myEntries {
		local = append(local, entryPair{int64(li), e})
	}
	for _, part := range c.Allgather(local, float64(16*len(local))) {
		for _, ep := range part.([]entryPair) {
			loads[ep.Load].Entries = ep.Entries
		}
	}
	ix.Loads = loads

	// --- Offsets: local prefix over owned counts, global base via exscan.
	counts := ix.Counts.Access()
	var localTotal int64
	for _, n := range counts {
		localTotal += n
	}
	base, totalPostings := c.ExScanInt64(localTotal)
	offs := ix.Off.Access()
	run := base
	for i, n := range counts {
		offs[i] = run
		run += n
	}
	ix.PostDoc = ga.CreateIrregular[int64](c, "inv.postdoc", localTotal)
	ix.PostFreq = ga.CreateIrregular[int64](c, "inv.postfreq", localTotal)
	cursor := createTermArray(c, "inv.cursor", N, termBounds)
	copy(cursor.Access(), offs)
	c.Barrier()
	_ = totalPostings

	// --- Pass 2: re-invert the same loads; reserve a slot range under every
	// term of a load, then send each owner its share in one transfer.
	for _, li := range myLoads {
		sc.invert(c, gf, li, &loads[li])
		sc.group()
		cursor.ReadIncIndexed(sc.terms, sc.counts, sc.slots)
		ix.PostDoc.PutRuns(sc.slots, sc.counts, sc.docs)
		ix.PostFreq.PutRuns(sc.slots, sc.counts, sc.freqs)
		c.Clock().Advance(c.Model().InvertCost(float64(loads[li].Tokens())))
	}
	c.Barrier()

	// --- Finalize at the owner: sort postings per term, derive DF/CF. ---
	ix.finalizeOwned(c)
	c.Barrier()
	return ix
}

// entry is one (term, doc, freq) posting contribution.
type entry struct{ term, doc, freq int64 }

// scratch is one rank's inversion workspace, reused for every load of both
// passes. inDoc and inLoad are dense over the vocabulary (8 bytes a term for
// the pair) and all zero between loads.
type scratch struct {
	inDoc  []int32  // frequency of each term in the current document
	inLoad []int32  // documents of the current load holding each term
	mark   []uint64 // one bit a vocabulary term, for ordering terms; all zero between loads

	fLo, fLen, fDoc, toks []int64 // the load's slice of the forward index
	order                 []int64 // the current document's terms, first occurrence first
	pairs                 []entry // the load's contributions, ascending doc

	terms, counts []int64 // touched terms ascending, and the pairs under each
	slots         []int64 // posting slot reserved for each term's run
	docs, freqs   []int64 // pairs grouped by term as terms lists them, document order kept
}

// sized returns buf with length n, reallocating only to grow.
func sized(buf []int64, n int64) []int64 { return slices.Grow(buf[:0], int(n))[:n] }

// invert reads load li's fields and tokens through one-sided Gets and leaves
// its (term, doc)->freq contributions in pairs (ascending doc, then
// first-occurrence order within the doc), its distinct terms in terms and
// the number of pairs under each in counts.
func (s *scratch) invert(c *cluster.Comm, gf *GlobalForward, li int, l *Load) {
	nf := l.FieldHi - l.FieldLo
	s.fLo, s.fLen, s.fDoc = sized(s.fLo, nf), sized(s.fLen, nf), sized(s.fDoc, nf)
	gf.FieldLo.Get(l.FieldLo, s.fLo)
	gf.FieldLen.Get(l.FieldLo, s.fLen)
	gf.FieldDoc.Get(l.FieldLo, s.fDoc)
	s.toks = sized(s.toks, l.Tokens())
	gf.Tokens.Get(l.TokenLo, s.toks)

	s.pairs, s.terms = s.pairs[:0], s.terms[:0]
	for i := int64(0); i < nf; i++ {
		start := s.fLo[i] - l.TokenLo
		for _, t := range s.toks[start : start+s.fLen[i]] {
			if t < 0 || t >= int64(len(s.inDoc)) {
				panic(fmt.Sprintf("invert: load %d field %d: term %d outside the vocabulary [0,%d); was the forward index RemapDense'd?",
					li, l.FieldLo+i, t, len(s.inDoc)))
			}
			if s.inDoc[t] == 0 {
				s.order = append(s.order, t)
			}
			s.inDoc[t]++
		}
		if i+1 < nf && s.fDoc[i+1] == s.fDoc[i] {
			continue // the document's next field
		}
		for _, t := range s.order {
			s.pairs = append(s.pairs, entry{term: t, doc: s.fDoc[i], freq: int64(s.inDoc[t])})
			s.inDoc[t] = 0
			if s.inLoad[t] == 0 {
				s.terms = append(s.terms, t)
			}
			s.inLoad[t]++
		}
		s.order = s.order[:0]
	}
	s.sortTerms()
	s.counts = sized(s.counts, int64(len(s.terms)))
	for i, t := range s.terms {
		s.counts[i] = int64(s.inLoad[t])
		s.inLoad[t] = 0
	}
}

// sortTerms orders terms ascending by a sweep of the vocabulary bitmap over
// the span the terms cover: linear in the load's terms plus the span's
// words, which a load's terms fill densely enough to beat sorting them.
func (s *scratch) sortTerms() {
	if len(s.terms) < 2 {
		return
	}
	lo, hi := s.terms[0], s.terms[0]
	for _, t := range s.terms {
		lo, hi = min(lo, t), max(hi, t)
		s.mark[t>>6] |= 1 << (t & 63)
	}
	s.terms = s.terms[:0]
	for w := lo >> 6; w <= hi>>6; w++ {
		for b := s.mark[w]; b != 0; b &= b - 1 {
			s.terms = append(s.terms, w<<6+int64(bits.TrailingZeros64(b)))
		}
		s.mark[w] = 0
	}
}

// group lays the inverted load's pairs out by term, in the order terms lists
// them and keeping document order within a term (a counting sort), ready to
// travel as one run per term.
func (s *scratch) group() {
	n := int64(len(s.pairs))
	s.docs, s.freqs, s.slots = sized(s.docs, n), sized(s.freqs, n), sized(s.slots, int64(len(s.terms)))
	next := s.inDoc // where each term's next pair lands; zero again on return
	var run int32
	for i, t := range s.terms {
		next[t] = run
		run += int32(s.counts[i])
	}
	for _, pr := range s.pairs {
		s.docs[next[pr.term]], s.freqs[next[pr.term]] = pr.doc, pr.freq
		next[pr.term]++
	}
	for _, t := range s.terms {
		next[t] = 0
	}
}

// finalizeOwned sorts each owned term's postings by document ID and fills
// DF/CF.
func (ix *Index) finalizeOwned(c *cluster.Comm) {
	counts := ix.Counts.Access()
	offs := ix.Off.Access()
	ix.DF = make([]int64, len(counts))
	ix.CF = make([]int64, len(counts))
	postBase, _ := ix.PostDoc.Distribution(c.Rank())
	docs := ix.PostDoc.Access()
	freqs := ix.PostFreq.Access()
	var ms mergeSorter
	var moved int64
	for i := range counts {
		n := counts[i]
		if n == 0 {
			continue
		}
		lo := offs[i] - postBase
		d := docs[lo : lo+n]
		f := freqs[lo : lo+n]
		ms.sort(d, f)
		ix.DF[i] = n
		for _, fv := range f {
			ix.CF[i] += fv
		}
		moved += n
	}
	c.Clock().Advance(c.Model().InvertCost(float64(moved)))
}

// mergeSorter co-sorts a term's postings by ascending document. They arrive
// as ascending runs, as a rule one per contributing load, in whatever order
// the loads reserved their slots, so a bottom-up merge of the runs found is
// linear when there is one run and n·log(runs) in general. Documents are distinct
// within a term, so every ordering method gives the same result.
type mergeSorter struct {
	bounds     []int   // run starts, then len(d)
	bufD, bufF []int64 // the other side of each merge pass
}

func (ms *mergeSorter) sort(d, f []int64) {
	ms.bounds = append(ms.bounds[:0], 0)
	for i := 1; i < len(d); i++ {
		if d[i] < d[i-1] {
			ms.bounds = append(ms.bounds, i)
		}
	}
	if len(ms.bounds) == 1 {
		return
	}
	ms.bounds = append(ms.bounds, len(d))
	ms.bufD = slices.Grow(ms.bufD[:0], len(d))[:len(d)]
	ms.bufF = slices.Grow(ms.bufF[:0], len(d))[:len(d)]
	srcD, srcF, dstD, dstF := d, f, ms.bufD, ms.bufF
	for len(ms.bounds) > 2 {
		// Merge runs pairwise; a last odd run is copied across.
		merged := ms.bounds[:0]
		for k := 0; k+1 < len(ms.bounds); k += 2 {
			lo, mid, hi := ms.bounds[k], ms.bounds[k+1], ms.bounds[k+1]
			if k+2 < len(ms.bounds) {
				hi = ms.bounds[k+2]
			}
			merge(dstD[lo:hi], dstF[lo:hi], srcD[lo:mid], srcF[lo:mid], srcD[mid:hi], srcF[mid:hi])
			merged = append(merged, lo)
		}
		ms.bounds = append(merged, len(d))
		srcD, srcF, dstD, dstF = dstD, dstF, srcD, srcF
	}
	if &srcD[0] != &d[0] {
		copy(d, srcD)
		copy(f, srcF)
	}
}

// merge writes the ascending merge of runs a and b (docs with their freqs)
// to d, f.
func merge(d, f, aD, aF, bD, bF []int64) {
	i, j, k := 0, 0, 0
	for i < len(aD) && j < len(bD) {
		if bD[j] < aD[i] {
			d[k], f[k] = bD[j], bF[j]
			j++
		} else {
			d[k], f[k] = aD[i], aF[i]
			i++
		}
		k++
	}
	n := copy(d[k:], aD[i:])
	copy(f[k:], aF[i:])
	copy(d[k+n:], bD[j:])
	copy(f[k+n:], bF[j:])
}

// createTermArray creates an int64 global array partitioned by the dense
// term ranges.
func createTermArray(c *cluster.Comm, name string, n int64, termBounds func(rank int) (lo, hi int64)) *ga.Array[int64] {
	lo, hi := termBounds(c.Rank())
	a := ga.CreateIrregular[int64](c, name, hi-lo)
	if a.N() != n {
		panic(fmt.Sprintf("invert: %s: term bounds cover %d of %d", name, a.N(), n))
	}
	return a
}

// LoadCost returns the deterministic virtual cost of inverting one load:
// two FAST-INV passes over its tokens, the one-sided reads of its fields and
// tokens, and the scatter of its posting contributions (counts in pass 1,
// doc+freq in pass 2).
func LoadCost(m *simtime.Model, l *Load) float64 {
	tokens := float64(l.Tokens())
	entries := float64(l.Entries)
	fields := float64(l.FieldHi - l.FieldLo)
	compute := 2 * m.InvertCost(tokens)
	comm := 2 * (m.OneSidedCost(8*tokens) + 3*m.OneSidedCost(8*fields))
	comm += m.OneSidedCost(16*entries) * 2
	return compute + comm
}

// LoadCosts returns the per-load cost vector and owner vector for the
// schedule simulators.
func LoadCosts(m *simtime.Model, loads []Load) (costs []float64, owners []int) {
	costs = make([]float64, len(loads))
	owners = make([]int, len(loads))
	for i := range loads {
		costs[i] = LoadCost(m, &loads[i])
		owners[i] = loads[i].Owner
	}
	return costs, owners
}

// Package segment implements the LSM-style building block of live serving:
// an immutable slice of the inverted index covering the documents ingested
// after a base snapshot was taken. A mutable Delta accumulates added
// documents in memory; Seal freezes it into a block-compressed Segment
// (postings.Writer emits the same codec the base store uses, so a segment's
// per-term Count vector doubles as its DF summary); Merge k-way-merges small
// segments into larger ones, dropping tombstoned documents — the compaction
// step that keeps the segment count bounded under sustained ingestion, and,
// with the base snapshot wrapped as a Segment too, the rebase that folds
// everything into a new base.
//
// Segments share the producing store's dense vocabulary: a term absent from
// the vocabulary cannot be ingested (the serving layers drop it), so every
// segment addresses terms [0, NumTerms) like the base. Each document lives in
// exactly one segment — a document's postings are never split — which is what
// lets boolean queries intersect per segment and union the results.
package segment

import (
	"fmt"
	"sort"

	"inspire/internal/postings"
	"inspire/internal/signature"
)

// Segment is one immutable sealed slice of a live store. All exported fields
// must be treated as read-only; every method is safe for concurrent use.
type Segment struct {
	// Docs lists the document IDs the segment covers, ascending.
	Docs []int64
	// Posts holds the segment's block-compressed postings over the full
	// shared vocabulary; Posts.Count is the segment's per-term DF summary.
	Posts *postings.Store
	// SigM is the signature dimensionality; SigVecs[i] is Docs[i]'s
	// knowledge signature (nil = null signature).
	SigM    int
	SigVecs [][]float64
	// Meta holds the metadata rows of the segment's documents.
	Meta Meta

	// sigNorms and sigSketch are derived from SigVecs on the first
	// similarity scan.
	sigNorms  signature.Norms
	sigSketch signature.Sketch
}

// SigNorms returns the Euclidean norm of every signature, parallel to
// SigVecs (0 for a null signature). Read-only.
func (s *Segment) SigNorms() []float64 { return s.sigNorms.Of(s.SigVecs) }

// SigSketch returns the low-rank summary of the signatures. Read-only.
func (s *Segment) SigSketch() *signature.Sketch {
	return s.sigSketch.Of(s.SigM, s.SigVecs, s.SigNorms())
}

// row returns doc's row, -1 when the segment does not cover it.
func (s *Segment) row(doc int64) int {
	i := sort.Search(len(s.Docs), func(i int) bool { return s.Docs[i] >= doc })
	if i < len(s.Docs) && s.Docs[i] == doc {
		return i
	}
	return -1
}

// NumDocs returns the number of documents the segment covers.
func (s *Segment) NumDocs() int64 { return int64(len(s.Docs)) }

// MaxDoc returns the largest document ID in the segment (-1 when empty).
func (s *Segment) MaxDoc() int64 {
	if len(s.Docs) == 0 {
		return -1
	}
	return s.Docs[len(s.Docs)-1]
}

// Postings returns the total posting count across all terms.
func (s *Segment) Postings() int64 {
	var n int64
	for _, c := range s.Posts.Count {
		n += c
	}
	return n
}

// ShipBytes returns the byte volume shipping this segment to a replica
// moves: the block-compressed posting store, the document table, the
// signature vectors and the metadata. The replica catch-up path counts it
// as CatchUpBytes.
func (s *Segment) ShipBytes() int64 {
	n := s.Posts.SizeBytes() + int64(8*len(s.Docs)) + s.Meta.SizeBytes()
	for _, v := range s.SigVecs {
		n += int64(8 * len(v))
	}
	return n
}

// Contains reports whether the segment covers doc.
func (s *Segment) Contains(doc int64) bool { return s.row(doc) >= 0 }

// SigVec returns doc's signature vector: (nil, true) for a present null
// signature, (nil, false) for a document outside the segment.
func (s *Segment) SigVec(doc int64) ([]float64, bool) {
	if i := s.row(doc); i >= 0 {
		return s.SigVecs[i], true
	}
	return nil, false
}

// Validate checks the structural invariants a loaded segment must satisfy.
func (s *Segment) Validate() error {
	switch {
	case s.Posts == nil:
		return fmt.Errorf("segment: no postings")
	case len(s.SigVecs) != len(s.Docs):
		return fmt.Errorf("segment: %d signatures for %d docs", len(s.SigVecs), len(s.Docs))
	case s.SigM < 0:
		return fmt.Errorf("segment: negative signature dimensionality")
	}
	for i, d := range s.Docs {
		if d < 0 {
			return fmt.Errorf("segment: negative doc ID %d", d)
		}
		if i > 0 && d <= s.Docs[i-1] {
			return fmt.Errorf("segment: doc IDs not strictly increasing at %d", i)
		}
		if v := s.SigVecs[i]; v != nil && len(v) != s.SigM {
			return fmt.Errorf("segment: doc %d signature has dim %d, want %d", d, len(v), s.SigM)
		}
	}
	if err := s.Meta.Validate(s.Docs); err != nil {
		return err
	}
	if err := s.Posts.Validate(); err != nil {
		return err
	}
	// Every posting must name a covered document.
	covered := make(map[int64]bool, len(s.Docs))
	for _, d := range s.Docs {
		covered[d] = true
	}
	for t := int64(0); t < s.Posts.NumTerms; t++ {
		docs, _ := s.Posts.Postings(t)
		for _, d := range docs {
			if !covered[d] {
				return fmt.Errorf("segment: term %d posts doc %d outside the segment", t, d)
			}
		}
	}
	return nil
}

// Delta accumulates added documents in memory until sealed. It is a plain
// data structure: callers synchronize access (the serving layer guards it
// with the store's ingest mutex).
type Delta struct {
	vocab int64
	sigM  int

	docs   []int64
	seen   map[int64]bool
	sigs   [][]float64
	times  []int64
	facets [][]string

	termDocs  map[int64][]int64
	termFreqs map[int64][]int64
	postings  int64
}

// NewDelta opens a delta over a vocabulary of the given size, producing
// signatures of dimensionality sigM.
func NewDelta(vocab int64, sigM int) *Delta {
	return &Delta{
		vocab:     vocab,
		sigM:      sigM,
		seen:      make(map[int64]bool),
		termDocs:  make(map[int64][]int64),
		termFreqs: make(map[int64][]int64),
	}
}

// NumDocs returns the number of buffered documents.
func (d *Delta) NumDocs() int { return len(d.docs) }

// Contains reports whether doc is buffered.
func (d *Delta) Contains(doc int64) bool { return d.seen[doc] }

// AddMeta buffers one document: its in-document term counts (dense term ID
// -> frequency; every key must be within the vocabulary), its signature
// (nil = null) and its metadata — ingest timestamp (unix seconds; 0 = none)
// and facet strings, strictly ascending. Documents may arrive in any ID
// order — Seal sorts — but each ID at most once. The facets slice is
// retained; callers must not mutate it.
func (d *Delta) AddMeta(doc int64, counts map[int64]int64, sig []float64, ts int64, facets []string) error {
	switch {
	case doc < 0:
		return fmt.Errorf("segment: negative doc ID %d", doc)
	case d.seen[doc]:
		return fmt.Errorf("segment: doc %d already buffered", doc)
	case sig != nil && len(sig) != d.sigM:
		return fmt.Errorf("segment: doc %d signature has dim %d, want %d", doc, len(sig), d.sigM)
	}
	for i, f := range facets {
		if f == "" || (i > 0 && f <= facets[i-1]) {
			return fmt.Errorf("segment: doc %d facets not strictly ascending", doc)
		}
	}
	for t, c := range counts {
		if t < 0 || t >= d.vocab {
			return fmt.Errorf("segment: doc %d counts term %d outside vocabulary %d", doc, t, d.vocab)
		}
		if c <= 0 {
			return fmt.Errorf("segment: doc %d has count %d for term %d", doc, c, t)
		}
	}
	d.seen[doc] = true
	d.docs = append(d.docs, doc)
	d.sigs = append(d.sigs, sig)
	d.times = append(d.times, ts)
	d.facets = append(d.facets, facets)
	for t, c := range counts {
		d.termDocs[t] = append(d.termDocs[t], doc)
		d.termFreqs[t] = append(d.termFreqs[t], c)
		d.postings++
	}
	return nil
}

// Seal freezes the delta into an immutable block-compressed segment. The
// delta must not be used afterwards.
func (d *Delta) Seal() (*Segment, error) {
	// Sort documents ascending and remember each doc's rank so the per-term
	// lists can be reordered to match.
	order := make([]int, len(d.docs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return d.docs[order[a]] < d.docs[order[b]] })
	docs := make([]int64, len(order))
	sigs := make([][]float64, len(order))
	var meta MetaBuilder
	for r, i := range order {
		docs[r] = d.docs[i]
		sigs[r] = d.sigs[i]
		meta.Add(docs[r], d.times[i], d.facets[i])
	}

	w := postings.NewWriter(d.postings)
	type pair struct{ doc, freq int64 }
	var scratch []pair
	for t := int64(0); t < d.vocab; t++ {
		td, tf := d.termDocs[t], d.termFreqs[t]
		if len(td) > 1 {
			scratch = scratch[:0]
			for i := range td {
				scratch = append(scratch, pair{td[i], tf[i]})
			}
			sort.Slice(scratch, func(a, b int) bool { return scratch[a].doc < scratch[b].doc })
			for i, p := range scratch {
				td[i], tf[i] = p.doc, p.freq
			}
		}
		if err := w.Append(td, tf); err != nil {
			return nil, fmt.Errorf("segment: seal: %w", err)
		}
	}
	seg := &Segment{Docs: docs, Posts: w.Finish(), SigM: d.sigM, SigVecs: sigs, Meta: meta.Meta()}
	*d = Delta{}
	return seg, nil
}

// Merge k-way merges segments into one, dropping every document dead reports
// as tombstoned: document rows (signatures, metadata) and, term by term,
// postings (MergeLists). All segments must share one vocabulary and
// signature dimensionality, and cover pairwise-disjoint documents. dead may
// be nil.
func Merge(segs []*Segment, dead func(doc int64) bool) (*Segment, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("segment: merge of no segments")
	}
	if dead == nil {
		dead = func(int64) bool { return false }
	}
	vocab := segs[0].Posts.NumTerms
	sigM := segs[0].SigM
	var total int64
	for _, s := range segs {
		if s.Posts.NumTerms != vocab {
			return nil, fmt.Errorf("segment: merge vocabulary mismatch (%d vs %d)", s.Posts.NumTerms, vocab)
		}
		if s.SigM != sigM {
			return nil, fmt.Errorf("segment: merge signature dim mismatch (%d vs %d)", s.SigM, sigM)
		}
		total += s.Postings()
	}

	// Merge the document lists (each ascending), their signatures and their
	// metadata rows (re-interned into one dictionary); mpos is each
	// segment's next metadata row.
	out := &Segment{SigM: sigM}
	pos, mpos := make([]int, len(segs)), make([]int, len(segs))
	var meta MetaBuilder
	var facets []string
	for {
		best := -1
		for i, s := range segs {
			if pos[i] >= len(s.Docs) {
				continue
			}
			if best < 0 || s.Docs[pos[i]] < segs[best].Docs[pos[best]] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		s := segs[best]
		d := s.Docs[pos[best]]
		row := mpos[best]
		hasRow := row < len(s.Meta.Docs) && s.Meta.Docs[row] == d
		if hasRow {
			mpos[best]++
		}
		if !dead(d) {
			out.Docs = append(out.Docs, d)
			out.SigVecs = append(out.SigVecs, s.SigVecs[pos[best]])
			if hasRow {
				facets = s.Meta.AppendFacets(facets[:0], row)
				meta.Add(d, s.Meta.Times[row], facets)
			}
		}
		pos[best]++
	}
	out.Meta = meta.Meta()

	// Merge each term's posting lists the same way.
	w := postings.NewWriter(total)
	lists := make([]List, 0, len(segs))
	var docs, freqs []int64
	for t := int64(0); t < vocab; t++ {
		lists = lists[:0]
		for _, s := range segs {
			if s.Posts.Count[t] > 0 {
				d, f := s.Posts.Postings(t)
				lists = append(lists, List{Docs: d, Freqs: f})
			}
		}
		docs, freqs = MergeLists(docs[:0], freqs[:0], lists, dead)
		if err := w.Append(docs, freqs); err != nil {
			return nil, fmt.Errorf("segment: merge: %w", err)
		}
	}
	out.Posts = w.Finish()
	return out, nil
}

// List is one posting list: document IDs, ascending, and their in-document
// frequencies.
type List struct{ Docs, Freqs []int64 }

// MergeLists k-way merges posting lists over pairwise-disjoint documents,
// appending every posting whose document dead does not report (nil: none) to
// docs and freqs in document order.
func MergeLists(docs, freqs []int64, lists []List, dead func(doc int64) bool) ([]int64, []int64) {
	pos := make([]int, len(lists))
	for {
		best := -1
		for i, l := range lists {
			if pos[i] < len(l.Docs) && (best < 0 || l.Docs[pos[i]] < lists[best].Docs[pos[best]]) {
				best = i
			}
		}
		if best < 0 {
			return docs, freqs
		}
		if d := lists[best].Docs[pos[best]]; dead == nil || !dead(d) {
			docs = append(docs, d)
			freqs = append(freqs, lists[best].Freqs[pos[best]])
		}
		pos[best]++
	}
}

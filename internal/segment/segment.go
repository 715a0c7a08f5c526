// Package segment implements the LSM-style building block of live serving:
// an immutable slice of the inverted index covering the documents ingested
// after a base snapshot was taken. A mutable Delta accumulates added
// documents in memory; Seal freezes it into a block-compressed Segment
// (postings.Writer emits the same codec the base store uses, so a segment's
// per-term Count vector doubles as its DF summary); Merge k-way-merges small
// segments into larger ones, dropping tombstoned documents — the compaction
// step that keeps the segment count bounded under sustained ingestion.
//
// Segments share the producing store's dense vocabulary: a term absent from
// the vocabulary cannot be ingested (the serving layers drop it), so every
// segment addresses terms [0, NumTerms) like the base. Each document lives in
// exactly one segment — a document's postings are never split — which is what
// lets boolean queries intersect per segment and union the results.
package segment

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sort"

	"inspire/internal/postings"
	"inspire/internal/signature"
	"inspire/internal/storefile"
)

// Segment is one immutable sealed slice of a live store. All exported fields
// are gob-persisted and must be treated as read-only; every method is safe
// for concurrent use.
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
	// Times[i] is Docs[i]'s ingest timestamp (unix seconds; 0 = none). A nil
	// vector — every pre-metadata segment file decodes to one — means no
	// document in the segment is timestamped.
	Times []int64
	// Facets[i] is Docs[i]'s facet strings ("key=value", strictly
	// ascending); nil rows and a nil outer slice mean no facets.
	Facets [][]string

	// sigNorms and sigSketch are derived from SigVecs on the first
	// similarity scan; unexported, so gob never persists them.
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

// Meta returns doc's ingest timestamp and facet strings; ok is false for a
// document outside the segment. The returned slice aliases segment state and
// must not be mutated.
func (s *Segment) Meta(doc int64) (ts int64, facets []string, ok bool) {
	i := sort.Search(len(s.Docs), func(i int) bool { return s.Docs[i] >= doc })
	if i >= len(s.Docs) || s.Docs[i] != doc {
		return 0, nil, false
	}
	if s.Times != nil {
		ts = s.Times[i]
	}
	if s.Facets != nil {
		facets = s.Facets[i]
	}
	return ts, facets, true
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
// moves: the block-compressed posting store, the document table, and the
// signature vectors. The replica catch-up path counts it as CatchUpBytes.
func (s *Segment) ShipBytes() int64 {
	n := s.Posts.SizeBytes() + int64(8*len(s.Docs)) + int64(8*len(s.Times))
	for _, v := range s.SigVecs {
		n += int64(8 * len(v))
	}
	for _, fs := range s.Facets {
		for _, f := range fs {
			n += int64(len(f))
		}
	}
	return n
}

// Contains reports whether the segment covers doc.
func (s *Segment) Contains(doc int64) bool {
	i := sort.Search(len(s.Docs), func(i int) bool { return s.Docs[i] >= doc })
	return i < len(s.Docs) && s.Docs[i] == doc
}

// SigVec returns doc's signature vector: (nil, true) for a present null
// signature, (nil, false) for a document outside the segment.
func (s *Segment) SigVec(doc int64) ([]float64, bool) {
	i := sort.Search(len(s.Docs), func(i int) bool { return s.Docs[i] >= doc })
	if i >= len(s.Docs) || s.Docs[i] != doc {
		return nil, false
	}
	return s.SigVecs[i], true
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
	case s.Times != nil && len(s.Times) != len(s.Docs):
		return fmt.Errorf("segment: %d timestamps for %d docs", len(s.Times), len(s.Docs))
	case s.Facets != nil && len(s.Facets) != len(s.Docs):
		return fmt.Errorf("segment: %d facet rows for %d docs", len(s.Facets), len(s.Docs))
	}
	for i, fs := range s.Facets {
		for j, f := range fs {
			if f == "" || (j > 0 && f <= fs[j-1]) {
				return fmt.Errorf("segment: doc %d facets not strictly ascending", s.Docs[i])
			}
		}
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

// Add buffers one document: its in-document term counts (dense term ID ->
// frequency; every key must be within the vocabulary) and its signature
// (nil = null). Documents may arrive in any ID order — Seal sorts — but each
// ID at most once.
func (d *Delta) Add(doc int64, counts map[int64]int64, sig []float64) error {
	return d.AddMeta(doc, counts, sig, 0, nil)
}

// AddMeta is Add carrying the document's metadata: its ingest timestamp
// (unix seconds; 0 = none) and facet strings, which must be strictly
// ascending. The facets slice is retained; callers must not mutate it.
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
	if len(facets) == 0 {
		facets = nil
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
	times := make([]int64, len(order))
	facets := make([][]string, len(order))
	anyMeta := false
	for r, i := range order {
		docs[r] = d.docs[i]
		sigs[r] = d.sigs[i]
		times[r] = d.times[i]
		facets[r] = d.facets[i]
		if times[r] != 0 || facets[r] != nil {
			anyMeta = true
		}
	}
	if !anyMeta {
		// Metadata-free segments stay byte-identical to the pre-metadata
		// format: gob omits nil vectors entirely.
		times, facets = nil, nil
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
	seg := &Segment{Docs: docs, Posts: w.Finish(), SigM: d.sigM, SigVecs: sigs, Times: times, Facets: facets}
	*d = Delta{}
	return seg, nil
}

// Merge k-way merges segments into one, dropping every document dead reports
// as tombstoned. All segments must share one vocabulary and signature
// dimensionality, and cover pairwise-disjoint documents. dead may be nil.
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
	// metadata.
	out := &Segment{SigM: sigM}
	pos := make([]int, len(segs))
	anyMeta := false
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
		d := segs[best].Docs[pos[best]]
		if !dead(d) {
			out.Docs = append(out.Docs, d)
			out.SigVecs = append(out.SigVecs, segs[best].SigVecs[pos[best]])
			var ts int64
			var fs []string
			if segs[best].Times != nil {
				ts = segs[best].Times[pos[best]]
			}
			if segs[best].Facets != nil {
				fs = segs[best].Facets[pos[best]]
			}
			out.Times = append(out.Times, ts)
			out.Facets = append(out.Facets, fs)
			if ts != 0 || fs != nil {
				anyMeta = true
			}
		}
		pos[best]++
	}
	if !anyMeta {
		out.Times, out.Facets = nil, nil
	}

	// Merge each term's posting lists the same way.
	w := postings.NewWriter(total)
	type cursor struct{ docs, freqs []int64 }
	curs := make([]cursor, len(segs))
	var docs, freqs []int64
	for t := int64(0); t < vocab; t++ {
		docs, freqs = docs[:0], freqs[:0]
		for i, s := range segs {
			if s.Posts.Count[t] == 0 {
				curs[i] = cursor{}
				continue
			}
			d, f := s.Posts.Postings(t)
			curs[i] = cursor{docs: d, freqs: f}
		}
		tpos := make([]int, len(segs))
		for {
			best := -1
			for i := range curs {
				if tpos[i] >= len(curs[i].docs) {
					continue
				}
				if best < 0 || curs[i].docs[tpos[i]] < curs[best].docs[tpos[best]] {
					best = i
				}
			}
			if best < 0 {
				break
			}
			if d := curs[best].docs[tpos[best]]; !dead(d) {
				docs = append(docs, d)
				freqs = append(freqs, curs[best].freqs[tpos[best]])
			}
			tpos[best]++
		}
		if err := w.Append(docs, freqs); err != nil {
			return nil, fmt.Errorf("segment: merge: %w", err)
		}
	}
	out.Posts = w.Finish()
	return out, nil
}

// segMagic heads a persisted segment file.
const segMagic = "INSPSEG1\n"

// Save writes the segment in its persistent format (magic + gob body).
func (s *Segment) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, segMagic); err != nil {
		return err
	}
	if err := gob.NewEncoder(bw).Encode(s); err != nil {
		return fmt.Errorf("segment: save: %w", err)
	}
	return bw.Flush()
}

// SaveFile persists the segment to a file atomically: a crash mid-save
// leaves any previous segment file intact.
func (s *Segment) SaveFile(path string) error {
	return storefile.WriteFileAtomic(path, s.Save)
}

// Load reads a segment written by Save and validates it.
func Load(r io.Reader) (*Segment, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("segment: load: %w", err)
	}
	if string(magic) != segMagic {
		return nil, fmt.Errorf("segment: load: bad magic %q", magic)
	}
	s := &Segment{}
	if err := gob.NewDecoder(br).Decode(s); err != nil {
		return nil, fmt.Errorf("segment: load: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadFile reads a persisted segment by path.
func LoadFile(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Package postings implements the block-compressed posting-list codec the
// serving layer stores its inverted index in. Doc IDs are delta-coded and
// varint-packed in blocks of BlockSize entries; frequencies are varint-packed
// in parallel blocks. A per-block skip directory (max doc ID + byte bounds of
// every interior block) lets boolean queries rule out whole blocks without
// decoding them, and every block decodes independently — the first doc ID of
// a block is absolute, not a delta from the previous block.
//
// The layout is flat and shared: one doc blob and one freq blob hold every
// term's blocks back to back, and three offset vectors (byte start of each
// term's doc blocks, of its freq blocks, and its slice of the block
// directory) address them. Single-block terms — the long tail of a Zipf
// vocabulary — carry no directory entries at all: their block bounds are the
// term bounds. This is the same compaction that lets one front-end serve
// million-document corpora (cf. Cartolabe, Textiverse): ~2-3 bytes per
// posting against 16 for the flat []int64 pair.
//
// Terms dense enough in their doc-ID span (more than one posting per
// BitmapDensity candidate IDs, at least one full block's worth) use a second
// container: a packed 64-bit-word bitmap instead of varint doc blocks, chosen
// per term by Writer.Append. Boolean kernels then work on whole words —
// dense∧dense is one `&` per 64 candidate docs (AndBitmapsInto), dense∧sparse
// a per-doc bit probe (IntersectInto dispatches) — and the word arrays
// persist as 8-aligned raw sections a mapped store serves in place. See
// bitmap.go.
package postings

import (
	"encoding/binary"
	"fmt"
)

// BlockSize is the number of postings per compressed block. 128 keeps a
// decoded block in two cache lines' worth of int64s while making the skip
// directory overhead (24 bytes per interior block) negligible.
const BlockSize = 128

// Store holds the block-compressed posting lists of dense term IDs
// [0, NumTerms). All fields are exported for gob persistence and must be
// treated as immutable; every method is safe for concurrent use.
type Store struct {
	NumTerms int64
	// Count[t] is term t's posting count (its document frequency).
	Count []int64

	// DocBlob and FreqBlob are every term's blocks, back to back in term
	// order. Term t's doc blocks are DocBlob[TermDoc[t]:TermDoc[t+1]] and
	// its freq blocks FreqBlob[TermFreq[t]:TermFreq[t+1]].
	DocBlob  []byte
	FreqBlob []byte
	TermDoc  []int64 // len NumTerms+1
	TermFreq []int64 // len NumTerms+1

	// Skip directory: one entry per interior block (blocks 0..B-2 of every
	// term with B > 1 blocks). Term t's entries are indexes
	// [TermBlk[t], TermBlk[t+1]). The final block of a term needs none: its
	// byte bounds are the term bounds and its max doc is the list's last.
	TermBlk    []int64 // len NumTerms+1
	BlkMax     []int64 // max doc ID of interior block j
	BlkDocEnd  []int64 // absolute byte end of interior block j in DocBlob
	BlkFreqEnd []int64 // absolute byte end of interior block j in FreqBlob

	// Adaptive bitmap containers. All three are nil on block-only stores so
	// files written before this representation read back byte-identically.
	// Term t is bitmap-backed iff len(TermBit) > 0 && TermBit[t+1] >
	// TermBit[t]; its doc IDs are then the set bits of
	// BitWords[TermBit[t]:TermBit[t+1]] offset by BitBase[t] (a multiple of
	// 64), its doc-block and directory spans are empty, and its frequencies
	// are a plain varint run in FreqBlob (no block structure — the bitmap has
	// none to parallel).
	TermBit  []int64  // len NumTerms+1 when present: word offsets into BitWords
	BitBase  []int64  // len NumTerms when present: doc ID of word 0 bit 0
	BitWords []uint64 // packed 64-doc words, back to back in term order
}

// Blocks returns the number of varint blocks of term t — 0 for a
// bitmap-backed term, which has no block structure to skip or decode.
func (s *Store) Blocks(t int64) int64 {
	if s.IsBitmap(t) {
		return 0
	}
	return (s.Count[t] + BlockSize - 1) / BlockSize
}

// SizeBytes returns the total in-memory footprint of the compressed layout:
// both blobs plus every directory vector. This is the quantity the bench
// figure compares against 16 bytes per posting of the flat layout.
func (s *Store) SizeBytes() int64 {
	ints := len(s.Count) + len(s.TermDoc) + len(s.TermFreq) + len(s.TermBlk) +
		len(s.BlkMax) + len(s.BlkDocEnd) + len(s.BlkFreqEnd) +
		len(s.TermBit) + len(s.BitBase) + len(s.BitWords)
	return int64(len(s.DocBlob)) + int64(len(s.FreqBlob)) + 8*int64(ints)
}

// blockSpan returns the posting count and byte bounds of block j of term t.
func (s *Store) blockSpan(t, j int64) (n int, docLo, docHi, freqLo, freqHi int64) {
	b := s.Blocks(t)
	e := s.TermBlk[t]
	if j == 0 {
		docLo, freqLo = s.TermDoc[t], s.TermFreq[t]
	} else {
		docLo, freqLo = s.BlkDocEnd[e+j-1], s.BlkFreqEnd[e+j-1]
	}
	if j == b-1 {
		docHi, freqHi = s.TermDoc[t+1], s.TermFreq[t+1]
	} else {
		docHi, freqHi = s.BlkDocEnd[e+j], s.BlkFreqEnd[e+j]
	}
	n = BlockSize
	if j == b-1 {
		n = int(s.Count[t] - j*BlockSize)
	}
	return n, docLo, docHi, freqLo, freqHi
}

// decodeDocBlock decodes block j of term t's doc IDs into dst (len >=
// BlockSize) and returns the decoded prefix.
func (s *Store) decodeDocBlock(t, j int64, dst []int64) []int64 {
	n, lo, hi, _, _ := s.blockSpan(t, j)
	buf := s.DocBlob[lo:hi]
	var prev int64
	for i := 0; i < n; i++ {
		v, w := binary.Uvarint(buf)
		if w <= 0 {
			panic(fmt.Sprintf("postings: corrupt doc block (term %d block %d)", t, j))
		}
		buf = buf[w:]
		if i == 0 {
			prev = int64(v)
		} else {
			prev += int64(v)
		}
		dst[i] = prev
	}
	return dst[:n]
}

// Postings decodes term t's full posting list into fresh slices, sorted by
// document ID. Both slices are nil when the term has no postings. A bitmap
// term enumerates its set bits — no varint doc decode happens.
func (s *Store) Postings(t int64) (docs, freqs []int64) {
	n := s.Count[t]
	if n == 0 {
		return nil, nil
	}
	if s.IsBitmap(t) {
		docs = s.BitmapDocsInto(make([]int64, 0, n), t)
		freqs = s.bitmapFreqs(make([]int64, 0, n), t)
		return docs, freqs
	}
	docs = make([]int64, n)
	freqs = make([]int64, n)
	dbuf := s.DocBlob[s.TermDoc[t]:s.TermDoc[t+1]]
	fbuf := s.FreqBlob[s.TermFreq[t]:s.TermFreq[t+1]]
	var prev int64
	for i := int64(0); i < n; i++ {
		v, w := binary.Uvarint(dbuf)
		if w <= 0 {
			panic(fmt.Sprintf("postings: corrupt doc blocks of term %d", t))
		}
		dbuf = dbuf[w:]
		if i%BlockSize == 0 {
			prev = int64(v) // block-leading docs are absolute
		} else {
			prev += int64(v)
		}
		docs[i] = prev
		f, w := binary.Uvarint(fbuf)
		if w <= 0 {
			panic(fmt.Sprintf("postings: corrupt freq blocks of term %d", t))
		}
		fbuf = fbuf[w:]
		freqs[i] = int64(f)
	}
	return docs, freqs
}

// IntersectStats accounts one intersection: how many of the term's blocks
// were decoded and how many the skip directory ruled out. A bitmap probe
// reports its single-doc membership tests (BitProbes) instead and leaves the
// block counters at zero, because nothing is decoded.
type IntersectStats struct {
	BlocksDecoded int
	BlocksSkipped int
	BitProbes     int
}

// Intersect returns acc ∩ postings(t) for an ascending-sorted acc, decoding
// only the blocks whose skip-directory max admits a candidate — blocks the
// directory rules out are never touched. The result is freshly allocated and
// sorted; acc is not mutated.
func (s *Store) Intersect(acc []int64, t int64) ([]int64, IntersectStats) {
	return s.IntersectInto(nil, acc, t)
}

// IntersectInto is Intersect with a caller-owned result buffer: the
// intersection is written over dst[:0] and the (possibly regrown) slice
// returned, so a session can reuse one scratch buffer across queries and keep
// the And hot path allocation-free once the buffer reaches working-set size.
// dst must not alias acc.
func (s *Store) IntersectInto(dst, acc []int64, t int64) ([]int64, IntersectStats) {
	var ist IntersectStats
	n := s.Count[t]
	if n == 0 || len(acc) == 0 {
		ist.BlocksSkipped = int(s.Blocks(t))
		// dst[:0], not nil: the caller keeps its buffer for the next query.
		return dst[:0], ist
	}
	if s.IsBitmap(t) {
		return s.bitmapProbeInto(dst, acc, t)
	}
	b := s.Blocks(t)
	e := s.TermBlk[t]
	out := dst[:0]
	var block [BlockSize]int64
	var cur []int64
	j, loaded, pos := int64(0), int64(-1), 0
	for _, a := range acc {
		// Skip whole blocks whose max doc is below the candidate. The final
		// block has no directory entry; it is never skipped, only reached.
		for j < b-1 && s.BlkMax[e+j] < a {
			j++
		}
		if j != loaded {
			ist.BlocksSkipped += int(j - loaded - 1)
			ist.BlocksDecoded++
			cur = s.decodeDocBlock(t, j, block[:])
			loaded, pos = j, 0
		}
		for pos < len(cur) && cur[pos] < a {
			pos++
		}
		if pos < len(cur) && cur[pos] == a {
			out = append(out, a)
		}
	}
	ist.BlocksSkipped += int(b - loaded - 1) // blocks past the last one decoded
	return out, ist
}

// Split partitions the store by document into n stores with the same dense
// term IDs: posting (doc, freq) pairs of every term are routed to the store
// route(doc) selects. Each output store's Count vector is that shard's
// per-term document-frequency summary — what a scatter-gather router prunes
// fan-out on. Lists are decoded once and re-encoded per shard.
func (s *Store) Split(n int, route func(doc int64) int) ([]*Store, error) {
	if n <= 0 {
		return nil, fmt.Errorf("postings: split into %d shards", n)
	}
	writers := make([]*Writer, n)
	for i := range writers {
		writers[i] = NewWriter(int64(len(s.DocBlob)) / int64(n))
	}
	partDocs := make([][]int64, n)
	partFreqs := make([][]int64, n)
	for t := int64(0); t < s.NumTerms; t++ {
		for i := range partDocs {
			partDocs[i] = partDocs[i][:0]
			partFreqs[i] = partFreqs[i][:0]
		}
		docs, freqs := s.Postings(t)
		for i, d := range docs {
			r := route(d)
			if r < 0 || r >= n {
				return nil, fmt.Errorf("postings: split routed doc %d to shard %d of %d", d, r, n)
			}
			partDocs[r] = append(partDocs[r], d)
			partFreqs[r] = append(partFreqs[r], freqs[i])
		}
		for i, w := range writers {
			if err := w.Append(partDocs[i], partFreqs[i]); err != nil {
				return nil, err
			}
		}
	}
	out := make([]*Store, n)
	for i, w := range writers {
		out[i] = w.Finish()
	}
	return out, nil
}

// Validate checks the structural invariants of the layout: vector lengths,
// monotone offsets, and directory extents consistent with the block counts.
func (s *Store) Validate() error {
	v := s.NumTerms
	switch {
	case v < 0:
		return fmt.Errorf("postings: negative term count %d", v)
	case int64(len(s.Count)) != v:
		return fmt.Errorf("postings: %d counts for %d terms", len(s.Count), v)
	case int64(len(s.TermDoc)) != v+1 || int64(len(s.TermFreq)) != v+1 || int64(len(s.TermBlk)) != v+1:
		return fmt.Errorf("postings: term directory lengths %d/%d/%d, want %d",
			len(s.TermDoc), len(s.TermFreq), len(s.TermBlk), v+1)
	case len(s.BlkMax) != len(s.BlkDocEnd) || len(s.BlkMax) != len(s.BlkFreqEnd):
		return fmt.Errorf("postings: block directory lengths disagree")
	case s.TermDoc[v] != int64(len(s.DocBlob)) || s.TermFreq[v] != int64(len(s.FreqBlob)):
		return fmt.Errorf("postings: blobs not fully addressed by term directory")
	case s.TermBlk[v] != int64(len(s.BlkMax)):
		return fmt.Errorf("postings: block directory not fully addressed")
	case len(s.TermBit) != 0 && (int64(len(s.TermBit)) != v+1 || int64(len(s.BitBase)) != v):
		return fmt.Errorf("postings: bitmap directory lengths %d/%d, want %d/%d",
			len(s.TermBit), len(s.BitBase), v+1, v)
	case len(s.TermBit) == 0 && len(s.BitWords) != 0:
		return fmt.Errorf("postings: %d bitmap words with no bitmap directory", len(s.BitWords))
	case len(s.TermBit) != 0 && s.TermBit[v] != int64(len(s.BitWords)):
		return fmt.Errorf("postings: bitmap words not fully addressed by directory")
	}
	for t := int64(0); t < v; t++ {
		if s.Count[t] < 0 {
			return fmt.Errorf("postings: term %d has negative count", t)
		}
		if len(s.TermBit) != 0 {
			if s.TermBit[t] > s.TermBit[t+1] {
				return fmt.Errorf("postings: term %d bitmap offsets not monotone", t)
			}
			if err := s.validateBitmap(t); err != nil {
				return err
			}
		}
		if s.TermDoc[t] > s.TermDoc[t+1] || s.TermFreq[t] > s.TermFreq[t+1] {
			return fmt.Errorf("postings: term %d byte offsets not monotone", t)
		}
		interior := s.Blocks(t) - 1
		if interior < 0 {
			interior = 0
		}
		if s.TermBlk[t+1]-s.TermBlk[t] != interior {
			return fmt.Errorf("postings: term %d has %d directory entries, want %d",
				t, s.TermBlk[t+1]-s.TermBlk[t], interior)
		}
		for e := s.TermBlk[t]; e < s.TermBlk[t+1]; e++ {
			if s.BlkDocEnd[e] < s.TermDoc[t] || s.BlkDocEnd[e] > s.TermDoc[t+1] ||
				s.BlkFreqEnd[e] < s.TermFreq[t] || s.BlkFreqEnd[e] > s.TermFreq[t+1] {
				return fmt.Errorf("postings: term %d directory entry %d out of term bounds", t, e)
			}
			if e > s.TermBlk[t] && (s.BlkDocEnd[e] < s.BlkDocEnd[e-1] || s.BlkFreqEnd[e] < s.BlkFreqEnd[e-1] ||
				s.BlkMax[e] <= s.BlkMax[e-1]) {
				return fmt.Errorf("postings: term %d directory not monotone at entry %d", t, e)
			}
		}
	}
	return nil
}

// Writer builds a Store one term at a time, in dense-ID order. The indexing
// layer (invert), segment sealing/merging and the serving snapshot all emit
// containers through it, so the per-term representation choice made here
// propagates everywhere lists are (re)encoded.
type Writer struct {
	st          Store
	forceBlocks bool
}

// ForceBlocks pins every subsequent Append to the varint block container,
// disabling the bitmap density heuristic. It is the reference encoder of the
// bitmap differential tests and the block fuzzers; nothing that serves or
// persists calls it.
func (w *Writer) ForceBlocks() {
	w.forceBlocks = true
}

// NewWriter returns a writer; sizeHint (total postings, 0 if unknown) presizes
// the blobs.
func NewWriter(sizeHint int64) *Writer {
	w := &Writer{st: Store{
		TermDoc:  []int64{0},
		TermFreq: []int64{0},
		TermBlk:  []int64{0},
	}}
	if sizeHint > 0 {
		w.st.DocBlob = make([]byte, 0, 2*sizeHint)
		w.st.FreqBlob = make([]byte, 0, sizeHint)
	}
	return w
}

// Append encodes the next term's posting list. docs must be strictly
// increasing non-negative IDs; freqs parallel and non-negative. An empty list
// appends a term with no postings. Lists at least one block long whose
// density in their doc-ID span clears 1/BitmapDensity are stored as packed
// bitmaps (unless ForceBlocks was called); everything else takes the varint
// block container.
func (w *Writer) Append(docs, freqs []int64) error {
	t := w.st.NumTerms
	if len(docs) != len(freqs) {
		return fmt.Errorf("postings: term %d has %d docs for %d freqs", t, len(docs), len(freqs))
	}
	for i, d := range docs {
		switch {
		case d < 0:
			return fmt.Errorf("postings: term %d doc %d is negative", t, d)
		case i > 0 && d <= docs[i-1]:
			return fmt.Errorf("postings: term %d docs not strictly increasing at %d", t, i)
		case freqs[i] < 0:
			return fmt.Errorf("postings: term %d freq %d is negative", t, freqs[i])
		}
	}
	if !w.forceBlocks && len(docs) >= BlockSize && Dense(int64(len(docs)), docs[0], docs[len(docs)-1]) {
		w.appendBitmap(docs, freqs)
		return nil
	}
	st := &w.st
	blocks := (int64(len(docs)) + BlockSize - 1) / BlockSize
	for j := int64(0); j < blocks; j++ {
		lo := j * BlockSize
		hi := lo + BlockSize
		if hi > int64(len(docs)) {
			hi = int64(len(docs))
		}
		prev := int64(0)
		for i := lo; i < hi; i++ {
			if i == lo {
				st.DocBlob = binary.AppendUvarint(st.DocBlob, uint64(docs[i]))
			} else {
				st.DocBlob = binary.AppendUvarint(st.DocBlob, uint64(docs[i]-prev))
			}
			prev = docs[i]
			st.FreqBlob = binary.AppendUvarint(st.FreqBlob, uint64(freqs[i]))
		}
		if j < blocks-1 { // interior block: record its skip entry
			st.BlkMax = append(st.BlkMax, docs[hi-1])
			st.BlkDocEnd = append(st.BlkDocEnd, int64(len(st.DocBlob)))
			st.BlkFreqEnd = append(st.BlkFreqEnd, int64(len(st.FreqBlob)))
		}
	}
	st.NumTerms++
	st.Count = append(st.Count, int64(len(docs)))
	st.TermDoc = append(st.TermDoc, int64(len(st.DocBlob)))
	st.TermFreq = append(st.TermFreq, int64(len(st.FreqBlob)))
	st.TermBlk = append(st.TermBlk, int64(len(st.BlkMax)))
	if st.TermBit != nil { // a bitmap term exists: keep the directory parallel
		st.TermBit = append(st.TermBit, int64(len(st.BitWords)))
		st.BitBase = append(st.BitBase, 0)
	}
	return nil
}

// Finish returns the completed store. The writer must not be used after.
// A store that ended up all-blocks drops its empty bitmap directory so its
// gob encoding is byte-identical to one written before bitmaps existed.
func (w *Writer) Finish() *Store {
	st := w.st
	w.st = Store{}
	if len(st.BitWords) == 0 {
		st.TermBit, st.BitBase, st.BitWords = nil, nil, nil
	}
	return &st
}

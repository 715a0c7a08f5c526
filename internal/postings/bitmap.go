// Bitmap posting containers: the dense half of the adaptive layout.
//
// A term whose postings cover more than 1/BitmapDensity of their doc-ID span
// stores those IDs as set bits in packed 64-bit words instead of delta+varint
// blocks (the Roaring-style hybrid, collapsed to two container kinds). The
// win is twofold: dense∧dense intersection degenerates to one AND per 64
// candidate documents with no decode at all, and the word array is plain
// fixed-width data an mmap'd store aliases in place — the kernel runs
// straight off the page cache, so a hot boolean query touches neither the
// varint decoder nor the posting LRU.
package postings

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// BitmapDensity is the density threshold for the bitmap container: a list of
// at least BlockSize postings is stored as a bitmap when it has more than one
// posting per BitmapDensity doc IDs of its span. At 32 the bitmap costs at
// most span/8 bytes over span/32 postings — under 4 bytes per posting at the
// threshold, shrinking toward 1 bit as density grows — close enough to the
// ~2-3 bytes/posting of varint blocks that the word-wise kernels come almost
// free in space.
const BitmapDensity = 32

// IsBitmap reports whether term t uses the bitmap container.
func (s *Store) IsBitmap(t int64) bool {
	return len(s.TermBit) > 0 && s.TermBit[t+1] > s.TermBit[t]
}

// HasBitmaps reports whether any term uses the bitmap container; a store
// file carries the three bitmap sections only when it does.
func (s *Store) HasBitmaps() bool {
	return len(s.BitWords) > 0
}

// bitmapRange returns term t's packed words and the doc ID of word 0, bit 0.
func (s *Store) bitmapRange(t int64) (words []uint64, base int64) {
	return s.BitWords[s.TermBit[t]:s.TermBit[t+1]], s.BitBase[t]
}

// appendBitmap encodes docs as term t's packed bitmap and freqs as a plain
// varint run. Called by Append once the density heuristic picked the bitmap
// container; docs is non-empty and validated.
func (w *Writer) appendBitmap(docs, freqs []int64) {
	st := &w.st
	if st.TermBit == nil { // first bitmap term: backfill the directory
		st.TermBit = make([]int64, st.NumTerms+1)
		st.BitBase = make([]int64, st.NumTerms)
	}
	base := docs[0] &^ 63 // word-aligned so overlapping bitmaps AND without shifts
	nWords := (docs[len(docs)-1]-base)/64 + 1
	lo := len(st.BitWords)
	st.BitWords = append(st.BitWords, make([]uint64, nWords)...)
	words := st.BitWords[lo:]
	for _, d := range docs {
		off := d - base
		words[off>>6] |= 1 << uint(off&63)
	}
	for _, f := range freqs {
		st.FreqBlob = binary.AppendUvarint(st.FreqBlob, uint64(f))
	}
	st.NumTerms++
	st.Count = append(st.Count, int64(len(docs)))
	st.TermDoc = append(st.TermDoc, int64(len(st.DocBlob))) // empty doc span
	st.TermFreq = append(st.TermFreq, int64(len(st.FreqBlob)))
	st.TermBlk = append(st.TermBlk, int64(len(st.BlkMax))) // empty directory span
	st.BitBase = append(st.BitBase, base)
	st.TermBit = append(st.TermBit, int64(len(st.BitWords)))
}

// BitmapDocsInto appends term t's doc IDs, ascending, over dst[:0] and
// returns the (possibly regrown) slice. t must be a bitmap term. Enumeration
// is a popcount walk over the words — no varint decode.
func (s *Store) BitmapDocsInto(dst []int64, t int64) []int64 {
	words, base := s.bitmapRange(t)
	return appendDocs(dst[:0], words, base)
}

// appendDocs appends the doc IDs of the set bits of words, whose word 0, bit
// 0 is base, to dst in ascending order: a popcount walk, no decode.
func appendDocs(dst []int64, words []uint64, base int64) []int64 {
	for i, w := range words {
		wb := base + int64(i)<<6
		for w != 0 {
			dst = append(dst, wb+int64(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// bitmapFreqs appends term t's frequencies, in doc order, over dst[:0].
func (s *Store) bitmapFreqs(dst []int64, t int64) []int64 {
	buf := s.FreqBlob[s.TermFreq[t]:s.TermFreq[t+1]]
	out := dst[:0]
	for i := int64(0); i < s.Count[t]; i++ {
		f, w := binary.Uvarint(buf)
		if w <= 0 {
			panic(fmt.Sprintf("postings: corrupt freq run of bitmap term %d", t))
		}
		buf = buf[w:]
		out = append(out, int64(f))
	}
	return out
}

// AndBitmapsInto intersects two bitmap terms word-wise into dst[:0]: one AND
// per 64 candidate doc IDs across the overlap of the two spans, zero decode.
// Both bases are multiples of 64, so the word grids line up with no shifting.
// Nothing is decoded or probed, so the stats are always zero; the return
// keeps the shape of the other intersection kernels.
func (s *Store) AndBitmapsInto(dst []int64, a, b int64) ([]int64, IntersectStats) {
	wa, baseA := s.bitmapRange(a)
	wb, baseB := s.bitmapRange(b)
	lo, hi := baseA, baseA+int64(len(wa))<<6
	if baseB > lo {
		lo = baseB
	}
	if end := baseB + int64(len(wb))<<6; end < hi {
		hi = end
	}
	out := dst[:0]
	for w0 := lo; w0 < hi; w0 += 64 {
		w := wa[(w0-baseA)>>6] & wb[(w0-baseB)>>6]
		for w != 0 {
			out = append(out, w0+int64(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out, IntersectStats{}
}

// OrBitmapsInto unions two bitmap terms word-wise into dst[:0], ascending.
func (s *Store) OrBitmapsInto(dst []int64, a, b int64) []int64 {
	wa, baseA := s.bitmapRange(a)
	wb, baseB := s.bitmapRange(b)
	endA, endB := baseA+int64(len(wa))<<6, baseB+int64(len(wb))<<6
	lo, hi := baseA, endA
	if baseB < lo {
		lo = baseB
	}
	if endB > hi {
		hi = endB
	}
	out := dst[:0]
	for w0 := lo; w0 < hi; w0 += 64 {
		var w uint64
		if w0 >= baseA && w0 < endA {
			w = wa[(w0-baseA)>>6]
		}
		if w0 >= baseB && w0 < endB {
			w |= wb[(w0-baseB)>>6]
		}
		for w != 0 {
			out = append(out, w0+int64(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}

// bitmapProbeInto is the dense∧sparse kernel: each accumulator doc costs one
// bit probe into term t's words. IntersectInto dispatches here, so every
// block-skip caller handles bitmap terms transparently.
func (s *Store) bitmapProbeInto(dst, acc []int64, t int64) ([]int64, IntersectStats) {
	var ist IntersectStats
	words, base := s.bitmapRange(t)
	end := base + int64(len(words))<<6
	out := dst[:0]
	ist.BitProbes = len(acc)
	for _, d := range acc {
		if d < base || d >= end {
			continue
		}
		off := d - base
		if words[off>>6]>>(uint(off)&63)&1 != 0 {
			out = append(out, d)
		}
	}
	return out, ist
}

// validateBitmap checks term t's container invariants from either side: a
// bitmap term's popcount must equal its Count and its block spans must be
// empty; a block term must carry no words and a zero base.
func (s *Store) validateBitmap(t int64) error {
	if !s.IsBitmap(t) {
		if s.BitBase[t] != 0 {
			return fmt.Errorf("postings: block term %d has bitmap base %d", t, s.BitBase[t])
		}
		return nil
	}
	if s.TermDoc[t+1] != s.TermDoc[t] || s.TermBlk[t+1] != s.TermBlk[t] {
		return fmt.Errorf("postings: bitmap term %d also has doc blocks", t)
	}
	if base := s.BitBase[t]; base < 0 || base&63 != 0 {
		return fmt.Errorf("postings: bitmap term %d base %d not a non-negative multiple of 64", t, base)
	}
	words, _ := s.bitmapRange(t)
	var n int64
	for _, w := range words {
		n += int64(bits.OnesCount64(w))
	}
	if n != s.Count[t] {
		return fmt.Errorf("postings: bitmap term %d has %d set bits for count %d", t, n, s.Count[t])
	}
	if len(words) > 0 && (words[0] == 0 || words[len(words)-1] == 0) {
		return fmt.Errorf("postings: bitmap term %d has empty boundary words", t)
	}
	return nil
}

package postings

import (
	"math"
	"math/bits"
)

// Bits is a caller-built packed doc-ID set sharing the bitmap containers'
// layout: a word-aligned base and 64 IDs per uint64 word. The serving layer
// builds one per (epoch, filter) for dense metadata selections, so filtered
// boolean queries run the same word-wise kernels the dense posting
// containers use instead of a per-document comparison loop; its sessions
// keep one more as scratch to union dense answers through (UnionInto).
type Bits struct {
	// Base is the doc ID of word 0, bit 0; a multiple of 64 so the word grid
	// lines up with the bitmap posting containers with no shifting.
	Base int64
	// Words holds the packed membership bits.
	Words []uint64
}

// NewBits returns an empty set able to hold doc IDs in [lo, hi).
func NewBits(lo, hi int64) *Bits {
	if hi < lo {
		hi = lo
	}
	base := lo &^ 63
	return &Bits{Base: base, Words: make([]uint64, (hi-base+63)>>6)}
}

// Dense reports whether n doc IDs spanning [lo, hi] are dense by the rule
// Writer picks the bitmap container with: more than one ID per
// BitmapDensity IDs of the span. A word array over such a span costs under
// half a word per ID, so the merges union dense answers through one and
// k-way compare only sparse ones. Negative IDs (off the word grid) and an
// hi of math.MaxInt64 (whose half-open end overflows) are never dense.
func Dense(n, lo, hi int64) bool {
	if lo < 0 || hi < lo || hi == math.MaxInt64 {
		return false
	}
	return uint64(n)*BitmapDensity > uint64(hi-lo)+1
}

// Reset re-grids b as an empty set able to hold doc IDs in [lo, hi),
// reusing its word array when it is large enough: the merges keep one Bits
// per session as scratch. lo must be non-negative.
func (b *Bits) Reset(lo, hi int64) {
	if hi < lo {
		hi = lo
	}
	b.Base = lo &^ 63
	n := int((hi - b.Base + 63) >> 6)
	if cap(b.Words) < n {
		b.Words = make([]uint64, n)
		return
	}
	b.Words = b.Words[:n]
	clear(b.Words)
}

// UnionInto writes the ascending, duplicate-free union of ascending doc-ID
// lists over dst[:0] and returns it (regrown if need be) and true, computed
// through b's words: one bit set per input ID, then the popcount walk
// BitmapDocsInto emits with, so no step compares one list's head with
// another's and repeats collapse for free. b is scratch, re-gridded over the
// lists' span. When the lists are not Dense over that span it computes
// nothing and returns dst, false: a comparison merge is cheaper than span/64
// words there.
func (b *Bits) UnionInto(dst []int64, lists [][]int64) ([]int64, bool) {
	var n int64
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, l := range lists {
		if len(l) > 0 {
			n += int64(len(l))
			lo, hi = min(lo, l[0]), max(hi, l[len(l)-1])
		}
	}
	if !Dense(n, lo, hi) {
		return dst, false
	}
	b.Reset(lo, hi+1)
	words, base := b.Words, b.Base
	for _, l := range lists {
		for _, d := range l {
			off := d - base
			words[off>>6] |= 1 << uint(off&63)
		}
	}
	if n := int(b.Len()); cap(dst) < n {
		dst = make([]int64, 0, n)
	}
	return appendDocs(dst[:0], words, base), true
}

// Set adds doc to the set. doc must be within the range the set was built
// for.
func (b *Bits) Set(doc int64) {
	off := doc - b.Base
	b.Words[off>>6] |= 1 << uint(off&63)
}

// Contains reports whether doc is in the set — one word probe.
func (b *Bits) Contains(doc int64) bool {
	off := doc - b.Base
	if off < 0 || off>>6 >= int64(len(b.Words)) {
		return false
	}
	return b.Words[off>>6]>>(uint(off)&63)&1 != 0
}

// Len returns the number of set bits.
func (b *Bits) Len() int64 {
	var n int64
	for _, w := range b.Words {
		n += int64(bits.OnesCount64(w))
	}
	return n
}

// FilterInto appends the members of docs (ascending) that are in the set
// over dst[:0] — the dense membership filter, one bit probe per candidate.
func (b *Bits) FilterInto(dst, docs []int64) ([]int64, IntersectStats) {
	var ist IntersectStats
	end := b.Base + int64(len(b.Words))<<6
	out := dst[:0]
	ist.BitProbes = len(docs)
	for _, d := range docs {
		if d < b.Base || d >= end {
			continue
		}
		off := d - b.Base
		if b.Words[off>>6]>>(uint(off)&63)&1 != 0 {
			out = append(out, d)
		}
	}
	return out, ist
}

// AndBitsInto intersects bitmap term t with the set word-wise into dst[:0]:
// one AND per 64 candidate doc IDs across the overlap of the two spans, zero
// decode — the dense∧dense kernel with a caller-built operand. t must be a
// bitmap term. Both bases are multiples of 64, so the grids align.
func (s *Store) AndBitsInto(dst []int64, t int64, b *Bits) []int64 {
	wt, baseT := s.bitmapRange(t)
	lo, hi := baseT, baseT+int64(len(wt))<<6
	if b.Base > lo {
		lo = b.Base
	}
	if end := b.Base + int64(len(b.Words))<<6; end < hi {
		hi = end
	}
	out := dst[:0]
	for w0 := lo; w0 < hi; w0 += 64 {
		w := wt[(w0-baseT)>>6] & b.Words[(w0-b.Base)>>6]
		for w != 0 {
			out = append(out, w0+int64(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}

package postings

import (
	"testing"
)

// buildAllocStore writes one term with enough postings to span several
// blocks, so the intersect exercises the skip directory and block decode.
func buildAllocStore(t testing.TB) *Store {
	t.Helper()
	w := NewWriter(0)
	docs := make([]int64, 0, 5*BlockSize)
	freqs := make([]int64, 0, 5*BlockSize)
	for d := int64(0); d < 5*BlockSize; d++ {
		docs = append(docs, 3*d) // stride 3 so the accumulator misses too
		freqs = append(freqs, 1+d%7)
	}
	if err := w.Append(docs, freqs); err != nil {
		t.Fatal(err)
	}
	return w.Finish()
}

// TestIntersectIntoAllocFree pins the tentpole's postings win: a warm
// block-skipping intersect into a caller-owned buffer performs zero
// allocations. Intersect (the allocating wrapper) must keep costing exactly
// the result slice, no more.
func TestIntersectIntoAllocFree(t *testing.T) {
	s := buildAllocStore(t)
	acc := make([]int64, 0, 2*BlockSize)
	for d := int64(0); d < 2*BlockSize; d++ {
		acc = append(acc, 6*d) // every other posting of the stride-3 list
	}
	// Warm once so dst reaches working-set size.
	dst, _ := s.IntersectInto(nil, acc, 0)
	if len(dst) != len(acc) {
		t.Fatalf("intersect kept %d of %d candidates", len(dst), len(acc))
	}
	got := testing.AllocsPerRun(100, func() {
		dst, _ = s.IntersectInto(dst[:0], acc, 0)
	})
	if got != 0 {
		t.Fatalf("warm IntersectInto allocates %v objects/op, want 0", got)
	}
}

// buildBitmapAllocStore writes two dense overlapping terms so both land in
// the bitmap container.
func buildBitmapAllocStore(t testing.TB) *Store {
	t.Helper()
	w := NewWriter(0)
	for term := int64(0); term < 2; term++ {
		docs := make([]int64, 0, 8*BlockSize)
		freqs := make([]int64, 0, 8*BlockSize)
		for d := int64(0); d < 8*BlockSize; d++ {
			docs = append(docs, term+2*d) // stride 2, offset by term: half overlap
			freqs = append(freqs, 1)
		}
		if err := w.Append(docs, freqs); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Finish()
	if !st.IsBitmap(0) || !st.IsBitmap(1) {
		t.Fatal("alloc fixture terms not bitmaps")
	}
	return st
}

// TestBitmapKernelsAllocFree pins the dense kernels at zero allocations
// warm: dense∧dense (AndBitmapsInto), dense∧sparse (the probe dispatch in
// IntersectInto), dense∨dense (OrBitmapsInto) and full enumeration
// (BitmapDocsInto) all run entirely in caller-owned buffers.
func TestBitmapKernelsAllocFree(t *testing.T) {
	s := buildBitmapAllocStore(t)
	acc := make([]int64, 0, BlockSize)
	for d := int64(0); d < BlockSize; d++ {
		acc = append(acc, 4*d)
	}

	dst, _ := s.AndBitmapsInto(nil, 0, 1)
	if got := testing.AllocsPerRun(100, func() {
		dst, _ = s.AndBitmapsInto(dst[:0], 0, 1)
	}); got != 0 {
		t.Fatalf("warm AndBitmapsInto allocates %v objects/op, want 0", got)
	}

	dst, _ = s.IntersectInto(dst[:0], acc, 0)
	if got := testing.AllocsPerRun(100, func() {
		dst, _ = s.IntersectInto(dst[:0], acc, 0)
	}); got != 0 {
		t.Fatalf("warm bitmap probe allocates %v objects/op, want 0", got)
	}

	dst = s.OrBitmapsInto(dst[:0], 0, 1)
	if got := testing.AllocsPerRun(100, func() {
		dst = s.OrBitmapsInto(dst[:0], 0, 1)
	}); got != 0 {
		t.Fatalf("warm OrBitmapsInto allocates %v objects/op, want 0", got)
	}

	dst = s.BitmapDocsInto(dst[:0], 0)
	if got := testing.AllocsPerRun(100, func() {
		dst = s.BitmapDocsInto(dst[:0], 0)
	}); got != 0 {
		t.Fatalf("warm BitmapDocsInto allocates %v objects/op, want 0", got)
	}
}

func BenchmarkIntersect(b *testing.B) {
	s := buildAllocStore(b)
	acc := make([]int64, 0, 2*BlockSize)
	for d := int64(0); d < 2*BlockSize; d++ {
		acc = append(acc, 6*d)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Intersect(acc, 0)
	}
}

func BenchmarkIntersectInto(b *testing.B) {
	s := buildAllocStore(b)
	acc := make([]int64, 0, 2*BlockSize)
	for d := int64(0); d < 2*BlockSize; d++ {
		acc = append(acc, 6*d)
	}
	dst, _ := s.IntersectInto(nil, acc, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst, _ = s.IntersectInto(dst[:0], acc, 0)
	}
}

// BenchmarkDenseAndBitmap vs BenchmarkDenseAndBlocks is the kernel-level
// version of the wall harness's dense_and_speedup: the same two dense lists
// intersected word-wise against block-skip decode.
func BenchmarkDenseAndBitmap(b *testing.B) {
	s := buildBitmapAllocStore(b)
	dst, _ := s.AndBitmapsInto(nil, 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst, _ = s.AndBitmapsInto(dst[:0], 0, 1)
	}
}

func BenchmarkDenseAndBlocks(b *testing.B) {
	s := buildBitmapAllocStore(b)
	docs, _ := s.Postings(0)
	w := NewWriter(0)
	w.ForceBlocks()
	for t := int64(0); t < 2; t++ {
		d, f := s.Postings(t)
		if err := w.Append(d, f); err != nil {
			b.Fatal(err)
		}
	}
	blocks := w.Finish()
	dst, _ := blocks.IntersectInto(nil, docs, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst, _ = blocks.IntersectInto(dst[:0], docs, 1)
	}
}

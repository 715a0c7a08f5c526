package postings

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

// FuzzBlockRoundTrip drives the block codec with arbitrary gap/freq streams:
// the fuzzer's bytes become posting gaps and frequencies, which must encode
// and decode to identity, keep the skip directory consistent with the block
// contents, self-intersect to identity, and survive gob persistence.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1, 2, 3, 255, 0, 7}, uint16(1))
	f.Add(bytes.Repeat([]byte{9, 1}, 400), uint16(3*BlockSize))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		// Derive a strictly increasing doc list and parallel freqs from the
		// raw bytes; n caps the length so giant inputs stay fast.
		count := int(n)%(4*BlockSize+3) + len(data)%7
		docs := make([]int64, 0, count)
		freqs := make([]int64, 0, count)
		cur := int64(0)
		for i := 0; i < count; i++ {
			gap, fr := int64(1), int64(0)
			if len(data) > 0 {
				gap += int64(data[i%len(data)])
				fr = int64(data[(i*2+1)%len(data)])
			}
			cur += gap
			docs = append(docs, cur)
			freqs = append(freqs, fr)
		}

		w := NewWriter(int64(count))
		w.ForceBlocks() // this fuzzer targets the block codec; bitmaps have their own
		if err := w.Append(docs, freqs); err != nil {
			t.Fatalf("valid list rejected: %v", err)
		}
		if err := w.Append(nil, nil); err != nil { // empty term rides along
			t.Fatalf("empty list rejected: %v", err)
		}
		st := w.Finish()
		if err := st.Validate(); err != nil {
			t.Fatalf("encoded store invalid: %v", err)
		}

		gotDocs, gotFreqs := st.Postings(0)
		if count == 0 {
			if gotDocs != nil || gotFreqs != nil {
				t.Fatal("empty term decoded non-nil")
			}
		} else if !reflect.DeepEqual(gotDocs, docs) || !reflect.DeepEqual(gotFreqs, freqs) {
			t.Fatal("round trip mismatch")
		}

		// Skip-directory consistency: every interior entry is the true block
		// max and the recorded boundaries decode block-locally.
		var buf [BlockSize]int64
		for j := int64(0); j < st.Blocks(0); j++ {
			blk := st.decodeDocBlock(0, j, buf[:])
			lo := int(j) * BlockSize
			hi := min(lo+BlockSize, len(docs))
			if !reflect.DeepEqual(blk, docs[lo:hi]) {
				t.Fatalf("block %d decodes wrong", j)
			}
			if j < st.Blocks(0)-1 && st.BlkMax[j] != docs[hi-1] {
				t.Fatalf("block %d skip max %d, want %d", j, st.BlkMax[j], docs[hi-1])
			}
		}

		// Self-intersection is identity and touches every block.
		inter, ist := st.Intersect(docs, 0)
		if count > 0 && !reflect.DeepEqual(inter, docs) {
			t.Fatal("self-intersection differs")
		}
		if int64(ist.BlocksDecoded+ist.BlocksSkipped) != st.Blocks(0) {
			t.Fatalf("block accounting off: %+v over %d blocks", ist, st.Blocks(0))
		}

		// The layout survives its persistence encoding.
		var pb bytes.Buffer
		if err := gob.NewEncoder(&pb).Encode(st); err != nil {
			t.Fatal(err)
		}
		var re Store
		if err := gob.NewDecoder(&pb).Decode(&re); err != nil {
			t.Fatal(err)
		}
		if err := re.Validate(); err != nil {
			t.Fatalf("reloaded store invalid: %v", err)
		}
	})
}

// fuzzList derives a strictly increasing doc list and parallel freqs from
// fuzz bytes. gapMod caps the gaps, steering density: small caps force the
// bitmap container, large ones the block container.
func fuzzList(data []byte, n uint16, gapMod int64) (docs, freqs []int64) {
	count := int(n)%(4*BlockSize+3) + len(data)%7
	docs = make([]int64, 0, count)
	freqs = make([]int64, 0, count)
	cur := int64(0)
	for i := 0; i < count; i++ {
		gap, fr := int64(1), int64(0)
		if len(data) > 0 {
			gap += int64(data[i%len(data)]) % gapMod
			fr = int64(data[(i*2+1)%len(data)])
		}
		cur += gap
		docs = append(docs, cur)
		freqs = append(freqs, fr)
	}
	return docs, freqs
}

// FuzzBitmapRoundTrip drives the adaptive writer with dense gap streams so
// the bitmap container is exercised: whatever container Append picks must
// decode to identity, self-intersect to identity with consistent accounting,
// validate, and survive gob persistence.
func FuzzBitmapRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add(bytes.Repeat([]byte{1}, 16), uint16(2*BlockSize))
	f.Add(bytes.Repeat([]byte{3, 1, 200}, 100), uint16(4*BlockSize))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		docs, freqs := fuzzList(data, n, 8) // gaps 1..8: above 1/32 density
		w := NewWriter(int64(len(docs)))
		if err := w.Append(docs, freqs); err != nil {
			t.Fatalf("valid list rejected: %v", err)
		}
		if err := w.Append(nil, nil); err != nil {
			t.Fatalf("empty list rejected: %v", err)
		}
		st := w.Finish()
		if err := st.Validate(); err != nil {
			t.Fatalf("encoded store invalid: %v", err)
		}
		if len(docs) >= BlockSize && !st.IsBitmap(0) {
			t.Fatalf("dense %d-posting list not a bitmap", len(docs))
		}

		gotDocs, gotFreqs := st.Postings(0)
		if len(docs) == 0 {
			if gotDocs != nil || gotFreqs != nil {
				t.Fatal("empty term decoded non-nil")
			}
		} else if !reflect.DeepEqual(gotDocs, docs) || !reflect.DeepEqual(gotFreqs, freqs) {
			t.Fatal("round trip mismatch")
		}
		if st.IsBitmap(0) {
			if got := st.BitmapDocsInto(nil, 0); !reflect.DeepEqual(got, docs) {
				t.Fatal("BitmapDocsInto mismatch")
			}
			if self, ist := st.AndBitmapsInto(nil, 0, 0); !reflect.DeepEqual(self, docs) || ist.BlocksDecoded != 0 {
				t.Fatalf("bitmap self-AND broken (%+v)", ist)
			}
		}
		inter, _ := st.Intersect(docs, 0)
		if len(docs) > 0 && !reflect.DeepEqual(inter, docs) {
			t.Fatal("self-intersection differs")
		}

		var pb bytes.Buffer
		if err := gob.NewEncoder(&pb).Encode(st); err != nil {
			t.Fatal(err)
		}
		var re Store
		if err := gob.NewDecoder(&pb).Decode(&re); err != nil {
			t.Fatal(err)
		}
		if err := re.Validate(); err != nil {
			t.Fatalf("reloaded store invalid: %v", err)
		}
		if gd, gf := re.Postings(0); len(docs) > 0 &&
			(!reflect.DeepEqual(gd, docs) || !reflect.DeepEqual(gf, freqs)) {
			t.Fatal("reloaded round trip mismatch")
		}
	})
}

// FuzzContainerIntersect pins cross-representation answers: for arbitrary
// pairs of lists, AND and OR through the adaptive store (whatever mix of
// containers Append chose) match the forced-block store exactly, and the
// dedicated word-wise kernels agree whenever both terms are bitmaps.
func FuzzContainerIntersect(f *testing.F) {
	f.Add([]byte{1, 1, 1}, []byte{2, 1, 9}, uint16(300), uint16(200))
	f.Add(bytes.Repeat([]byte{1}, 8), bytes.Repeat([]byte{255}, 8), uint16(4*BlockSize), uint16(64))
	f.Fuzz(func(t *testing.T, da, db []byte, na, nb uint16) {
		docsA, freqsA := fuzzList(da, na, 6)   // dense-leaning
		docsB, freqsB := fuzzList(db, nb, 250) // sparse-leaning
		adaptive := NewWriter(0)
		forced := NewWriter(0)
		forced.ForceBlocks()
		for _, l := range [][2][]int64{{docsA, freqsA}, {docsB, freqsB}} {
			if err := adaptive.Append(l[0], l[1]); err != nil {
				t.Fatal(err)
			}
			if err := forced.Append(l[0], l[1]); err != nil {
				t.Fatal(err)
			}
		}
		ad, bl := adaptive.Finish(), forced.Finish()
		if err := ad.Validate(); err != nil {
			t.Fatal(err)
		}

		// A ∩ B both ways through IntersectInto's dispatch.
		for _, pair := range [][2]int64{{0, 1}, {1, 0}} {
			accD, _ := ad.Postings(pair[0])
			got, gist := ad.IntersectInto(nil, accD, pair[1])
			want, _ := bl.IntersectInto(nil, accD, pair[1])
			if !reflect.DeepEqual(append([]int64{}, got...), append([]int64{}, want...)) {
				t.Fatalf("intersect(%d,%d) diverges across containers", pair[0], pair[1])
			}
			if ad.IsBitmap(pair[1]) && gist.BlocksDecoded != 0 {
				t.Fatalf("bitmap operand decoded blocks: %+v", gist)
			}
		}

		if ad.IsBitmap(0) && ad.IsBitmap(1) {
			want, _ := bl.IntersectInto(nil, docsA, 1)
			got, ist := ad.AndBitmapsInto(nil, 0, 1)
			if !reflect.DeepEqual(append([]int64{}, got...), append([]int64{}, want...)) {
				t.Fatal("AndBitmapsInto diverges from block-skip answer")
			}
			if ist.BlocksDecoded != 0 || ist.BitProbes != 0 {
				t.Fatalf("dense AND decoded or probed something: %+v", ist)
			}
			gotOr := ad.OrBitmapsInto(nil, 0, 1)
			wantOr := mergeUnion(docsA, docsB)
			if !reflect.DeepEqual(append([]int64{}, gotOr...), append([]int64{}, wantOr...)) {
				t.Fatal("OrBitmapsInto diverges from merge union")
			}
		}
	})
}

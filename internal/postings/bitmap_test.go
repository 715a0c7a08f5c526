package postings

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"
)

// genDense builds a sorted list of n docs starting near base with gaps of
// 1..maxGap — dense enough for the bitmap container when maxGap is small.
func genDense(rng *rand.Rand, base int64, n int, maxGap int64) (docs, freqs []int64) {
	docs = make([]int64, n)
	freqs = make([]int64, n)
	cur := base
	for i := 0; i < n; i++ {
		cur += 1 + rng.Int63n(maxGap)
		docs[i] = cur
		freqs[i] = 1 + rng.Int63n(9)
	}
	return docs, freqs
}

// TestWriterPicksContainers pins the density heuristic: short or sparse
// lists stay blocks, long dense lists become bitmaps, and ForceBlocks
// overrides the choice.
func TestWriterPicksContainers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dense, df := genDense(rng, 1000, 4*BlockSize, 4) // ~1/2.5 density
	sparse, sf := genDense(rng, 0, 4*BlockSize, 100) // ~1/50 density
	short, shf := genDense(rng, 0, BlockSize-1, 1)   // dense but under a block
	st := buildStoreFrom(t, [][2][]int64{{dense, df}, {sparse, sf}, {short, shf}, {nil, nil}})

	if !st.IsBitmap(0) || !st.HasBitmaps() {
		t.Fatal("dense multi-block list not stored as a bitmap")
	}
	for _, tt := range []int64{1, 2, 3} {
		if st.IsBitmap(tt) {
			t.Fatalf("term %d stored as a bitmap", tt)
		}
	}
	if st.Blocks(0) != 0 {
		t.Fatalf("bitmap term reports %d blocks", st.Blocks(0))
	}

	forced := buildBlockStoreFrom(t, [][2][]int64{{dense, df}})
	if forced.HasBitmaps() || forced.TermBit != nil {
		t.Fatal("ForceBlocks still produced a bitmap")
	}
}

// TestBitmapRoundTrip pins decode equivalence: a bitmap term's Postings,
// BitmapDocsInto and gob round trip all reproduce the input exactly.
func TestBitmapRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	docs, freqs := genDense(rng, 777, 3*BlockSize+11, 3)
	st := buildStoreFrom(t, [][2][]int64{{docs, freqs}})
	if !st.IsBitmap(0) {
		t.Fatal("test list not dense enough for a bitmap")
	}

	gd, gf := st.Postings(0)
	if !reflect.DeepEqual(gd, docs) || !reflect.DeepEqual(gf, freqs) {
		t.Fatal("bitmap Postings round trip mismatch")
	}
	if got := st.BitmapDocsInto(nil, 0); !reflect.DeepEqual(got, docs) {
		t.Fatal("BitmapDocsInto mismatch")
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var back Store
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	gd, gf = back.Postings(0)
	if !reflect.DeepEqual(gd, docs) || !reflect.DeepEqual(gf, freqs) {
		t.Fatal("gob round trip mismatch")
	}
}

// TestBitmapKernelsAgreeWithBlocks pins cross-representation answers: the
// word-wise AND/OR kernels and the probe dispatch all agree with the
// block-skip path over the same lists, for overlapping, disjoint and nested
// spans.
func TestBitmapKernelsAgreeWithBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := []struct {
		name         string
		baseA, baseB int64
		nA, nB       int
		gapA, gapB   int64
	}{
		{"overlapping", 0, 300, 4 * BlockSize, 3 * BlockSize, 3, 4},
		{"disjoint", 0, 100000, 2 * BlockSize, 2 * BlockSize, 2, 2},
		{"nested", 0, 128, 8 * BlockSize, BlockSize, 3, 2},
		{"identical", 64, 64, 2 * BlockSize, 2 * BlockSize, 1, 1},
	}
	for _, tc := range cases {
		rngA := rand.New(rand.NewSource(rng.Int63()))
		da, fa := genDense(rngA, tc.baseA, tc.nA, tc.gapA)
		db, fb := genDense(rngA, tc.baseB, tc.nB, tc.gapB)
		st := buildStoreFrom(t, [][2][]int64{{da, fa}, {db, fb}})
		if !st.IsBitmap(0) || !st.IsBitmap(1) {
			t.Fatalf("%s: lists not dense enough for bitmaps", tc.name)
		}
		blocks := buildBlockStoreFrom(t, [][2][]int64{{da, fa}, {db, fb}})

		wantAnd := mergeIntersect(da, db)
		got, ist := st.AndBitmapsInto(nil, 0, 1)
		if !reflect.DeepEqual(append([]int64{}, got...), append([]int64{}, wantAnd...)) {
			t.Fatalf("%s: AndBitmapsInto = %v, want %v", tc.name, got, wantAnd)
		}
		if ist.BlocksDecoded != 0 || ist.BitProbes != 0 {
			t.Fatalf("%s: bitmap AND decoded or probed something: %+v", tc.name, ist)
		}

		// The probe dispatch (dense∧sparse) agrees with the block path.
		probe, pist := st.IntersectInto(nil, da, 1)
		ref, _ := blocks.IntersectInto(nil, da, 1)
		if !reflect.DeepEqual(append([]int64{}, probe...), append([]int64{}, ref...)) {
			t.Fatalf("%s: probe path diverges from block path", tc.name)
		}
		if pist.BitProbes != len(da) || pist.BlocksDecoded != 0 {
			t.Fatalf("%s: probe stats %+v", tc.name, pist)
		}

		wantOr := mergeUnion(da, db)
		gotOr := st.OrBitmapsInto(nil, 0, 1)
		if !reflect.DeepEqual(append([]int64{}, gotOr...), append([]int64{}, wantOr...)) {
			t.Fatalf("%s: OrBitmapsInto = %v, want %v", tc.name, gotOr, wantOr)
		}
	}
}

func mergeUnion(a, b []int64) []int64 {
	out := []int64{}
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// TestMixedStoreSplitAndValidate pins that a store mixing both containers
// splits by document into valid shards (Split re-encodes, so each shard
// re-chooses its containers) and that bitmap corruption is caught loudly.
func TestMixedStoreSplitAndValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dense, df := genDense(rng, 0, 6*BlockSize, 2)
	sparse, sf := genDense(rng, 0, 2*BlockSize, 200)
	st := buildStoreFrom(t, [][2][]int64{{dense, df}, {sparse, sf}})
	if !st.IsBitmap(0) || st.IsBitmap(1) {
		t.Fatal("container choice not mixed")
	}

	shards, err := st.Split(3, func(doc int64) int { return int(doc % 3) })
	if err != nil {
		t.Fatal(err)
	}
	var mergedDense []int64
	for _, sh := range shards {
		if err := sh.Validate(); err != nil {
			t.Fatal(err)
		}
		d, _ := sh.Postings(0)
		mergedDense = mergeUnion(mergedDense, d)
	}
	if !reflect.DeepEqual(mergedDense, dense) {
		t.Fatal("split lost or invented postings")
	}

	// Corruption: a flipped word breaks the popcount invariant.
	bad := *st
	bad.BitWords = append([]uint64(nil), bad.BitWords...)
	bad.BitWords[1] ^= 1 << 7
	if bad.Validate() == nil {
		t.Fatal("popcount corruption validated")
	}
	// A truncated word array breaks the directory extent.
	bad = *st
	bad.BitWords = bad.BitWords[:len(bad.BitWords)-1]
	if bad.Validate() == nil {
		t.Fatal("truncated bitmap words validated")
	}
	// An unaligned base is rejected.
	bad = *st
	bad.BitBase = append([]int64(nil), bad.BitBase...)
	bad.BitBase[0] += 3
	if bad.Validate() == nil {
		t.Fatal("unaligned bitmap base validated")
	}
}

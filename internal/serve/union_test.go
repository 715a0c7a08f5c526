package serve

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"inspire/internal/postings"
	"inspire/internal/query"
)

// oracleUnion is the comparison-merge union every dense path is held to:
// mergeDocs, then a dedup pass.
func oracleUnion(lists [][]int64) []int64 {
	merged := mergeDocs(nil, lists)
	if merged == nil {
		return nil
	}
	return slices.Compact(merged)
}

// dealByShard splits ascending docs into shards parts by ShardOf, each
// posting's Freq naming its document and shard so a posting stored at the
// wrong rank shows.
func dealByShard(docs []int64, shards int) ([][]int64, [][]query.Posting) {
	ds := make([][]int64, shards)
	ps := make([][]query.Posting, shards)
	for _, d := range docs {
		s := ShardOf(d, shards)
		ds[s] = append(ds[s], d)
		ps[s] = append(ps[s], query.Posting{Doc: d, Freq: d*31 + int64(s)})
	}
	return ds, ps
}

// checkUnion holds the router's and the shard's unions over parts to the
// comparison merges, and the word-array kernel to the density rule: it must
// run exactly when the parts are Dense over their span, and answer the same.
func checkUnion(t *testing.T, b *postings.Bits, ranks *[]int, docs [][]int64, posts [][]query.Posting) {
	t.Helper()
	want := oracleUnion(docs)
	if got := unionSorted(nil, b, docs); !slices.Equal(got, want) {
		t.Fatalf("unionSorted(%v) = %v, want %v", docs, got, want)
	}
	var n int64
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, l := range docs {
		if len(l) > 0 {
			n += int64(len(l))
			lo, hi = min(lo, l[0]), max(hi, l[len(l)-1])
		}
	}
	got, ok := b.UnionInto(nil, docs)
	if ok != postings.Dense(n, lo, hi) {
		t.Fatalf("Union(%v) took the word array = %v; Dense(%d, %d, %d) = %v", docs, ok, n, lo, hi, !ok)
	}
	if ok && !slices.Equal(got, want) {
		t.Fatalf("Union(%v) = %v, want %v", docs, got, want)
	}
	if posts != nil {
		wantPosts := mergePostings(nil, posts)
		if got := unionPostings(nil, b, ranks, posts); !slices.Equal(got, wantPosts) {
			t.Fatalf("unionPostings(%v) = %v, want %v", posts, got, wantPosts)
		}
	}
}

// TestDenseUnionMatchesMerge holds the word-array unions to the comparison
// merges they replace: mergeByDoc on shard-disjoint parts (docs and
// postings, each Freq kept), and the old unionSorted on overlapping lists.
// One Bits and one rank array serve every case, so a re-grid that left
// stale bits or ranks shows.
func TestDenseUnionMatchesMerge(t *testing.T) {
	var b postings.Bits
	var ranks []int
	rng := rand.New(rand.NewSource(1))
	// Densities on both sides of 1/BitmapDensity, spans starting at 0 and on
	// every side of a word edge, shard counts past the 16 stack cursors.
	densities := []float64{1.0 / 100, 1.0 / 33, 1.0 / 31, 0.36, 1}
	starts := []int64{0, 1, 62, 63, 64, 65, 127, 128, 1<<20 - 1}
	for _, rho := range densities {
		for _, lo := range starts {
			for _, shards := range []int{1, 2, 3, 4, 17, 24} {
				span := 64 + rng.Int63n(2000)
				var docs []int64
				for d := lo; d < lo+span; d++ {
					if rng.Float64() < rho {
						docs = append(docs, d)
					}
				}
				ds, ps := dealByShard(docs, shards)
				checkUnion(t, &b, &ranks, ds, ps)
				// Pruned and empty parts: the scatter asked only some shards.
				var pd [][]int64
				var pp [][]query.Posting
				for s := range ds {
					switch rng.Intn(3) {
					case 0: // pruned: no part at all
					case 1:
						pd, pp = append(pd, nil), append(pp, nil)
					default:
						pd, pp = append(pd, ds[s]), append(pp, ps[s])
					}
				}
				checkUnion(t, &b, &ranks, pd, pp)
			}
		}
	}

	// Word edges and one-word answers.
	for _, docs := range [][]int64{
		{0}, {63}, {64}, {0, 63}, {63, 64}, {0, 64}, {64, 127}, {127, 128},
		{0, 1, 2, 3, 4, 5, 6, 7, 63}, {64, 70, 80, 90, 100, 127},
		{128, 129, 130, 131, 132, 133, 134, 135, 136, 137, 138, 139, 140, 141, 142, 191},
	} {
		for _, shards := range []int{1, 2, 4} {
			ds, ps := dealByShard(docs, shards)
			checkUnion(t, &b, &ranks, ds, ps)
		}
	}

	// Overlapping lists (the shard's or): terms share documents.
	for trial := 0; trial < 200; trial++ {
		lists := make([][]int64, 1+rng.Intn(20))
		lo := rng.Int63n(300)
		span := 1 + rng.Int63n(3000)
		rho := densities[rng.Intn(len(densities))]
		for i := range lists {
			for d := lo; d < lo+span; d++ {
				if rng.Float64() < rho {
					lists[i] = append(lists[i], d)
				}
			}
		}
		checkUnion(t, &b, &ranks, lists, nil)
	}

	// Negative and extreme IDs never reach the word grid; the comparison
	// path answers them.
	for _, docs := range [][]int64{
		{-1, 0, 1, 2, 3}, {math.MinInt64, 0, 1}, {-64, -63, -1},
		{0, math.MaxInt64}, {math.MaxInt64 - 3, math.MaxInt64 - 2, math.MaxInt64 - 1, math.MaxInt64},
	} {
		checkUnion(t, &b, &ranks, [][]int64{docs}, nil)
		checkUnion(t, &b, &ranks, [][]int64{docs, docs}, nil)
		ps := make([]query.Posting, len(docs))
		for i, d := range docs {
			ps[i] = query.Posting{Doc: d, Freq: int64(i)}
		}
		if got := unionPostings(nil, &b, &ranks, [][]query.Posting{ps}); !slices.Equal(got, ps) {
			t.Fatalf("unionPostings(%v) = %v", ps, got)
		}
	}

	// Any partition of the documents takes the word array, in any part
	// order; a document held by two parts (or twice by one) falls back to
	// the duplicate-preserving merge.
	dense := make([]int64, 512)
	for i := range dense {
		dense[i] = int64(i)
	}
	for _, parts := range [][][]int64{
		{dense[:256], dense[256:]},
		{dense[256:], dense[:256]},
		{dense[:300], dense[299:]},
		{dense[:100], dense[100:200], dense[200:]},
		{{0, 4, 8}, {1, 2, 3, 5, 6, 7}},
		{{0, 2, 4}, {1, 3, 4}},
		{{0, 2, 4}, {1, 3}, {4}},
		{{0, 1, 1, 2}},
	} {
		ps := make([][]query.Posting, len(parts))
		for i, p := range parts {
			for _, d := range p {
				ps[i] = append(ps[i], query.Posting{Doc: d, Freq: int64(i)})
			}
		}
		want := mergePostings(nil, ps)
		if got := unionPostings(nil, &b, &ranks, ps); !slices.Equal(got, want) {
			t.Fatalf("unionPostings(%v) = %v, want %v", ps, got, want)
		}
	}
}

// FuzzDenseUnion holds the word-array unions to the comparison merges on
// arbitrary ascending documents: gaps from the input bytes keep most inputs
// dense, the shard count and the start come from the fuzzer too.
func FuzzDenseUnion(f *testing.F) {
	f.Add([]byte{1, 1, 1, 2, 3, 1, 1}, uint8(4), uint32(0))
	f.Add([]byte{0, 63, 1, 64, 200}, uint8(3), uint32(63))
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, uint8(20), uint32(1<<20))
	var b postings.Bits
	var ranks []int
	f.Fuzz(func(t *testing.T, gaps []byte, shards uint8, lo uint32) {
		s := 1 + int(shards%24)
		var docs []int64
		d := int64(lo)
		for i, g := range gaps {
			if i > 0 {
				d += 1 + int64(g)
			}
			docs = append(docs, d)
		}
		ds, ps := dealByShard(docs, s)
		checkUnion(t, &b, &ranks, ds, ps)
		// The same documents as overlapping lists: each list takes the
		// documents whose input byte has its bit set.
		lists := make([][]int64, 3)
		for i, g := range gaps {
			for j := range lists {
				if g&(1<<j) != 0 || j == 0 {
					lists[j] = append(lists[j], docs[i])
				}
			}
		}
		checkUnion(t, &b, &ranks, lists, nil)
	})
}

package serve

import (
	"context"
	"math/rand"
	"testing"

	"inspire/internal/postings"
	"inspire/internal/query"
)

// BenchmarkMergePostings measures the router's gather merge of a routed term
// on the shape lookup-hot gives it: four shards' doc-sorted posting lists,
// 8000 postings in all, dealt out by ShardOf. dense draws the documents at
// lookup-hot's measured density, 0.36 of the span, and takes the word-array
// union; sparse draws them at 1/100, under 1/BitmapDensity, and must stay on
// the comparison merge.
func BenchmarkMergePostings(b *testing.B) {
	const shards, total = 4, 8000
	for _, c := range []struct {
		name string
		rho  float64
	}{{"dense", 0.36}, {"sparse", 0.01}} {
		rng := rand.New(rand.NewSource(1))
		parts := make([][]query.Posting, shards)
		for d, n := int64(0), 0; n < total; d++ {
			if rng.Float64() < c.rho {
				s := ShardOf(d, shards)
				parts[s] = append(parts[s], query.Posting{Doc: d, Freq: 1 + d%5})
				n++
			}
		}
		var bits postings.Bits
		var ranks []int
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(total * 16)
			b.ReportAllocs()
			for b.Loop() {
				if out := unionPostings(nil, &bits, &ranks, parts); len(out) != total {
					b.Fatalf("merged %d postings, want %d", len(out), total)
				}
			}
		})
	}
}

// BenchmarkUnionOr measures the shard's or on the shape lookup-hot gives it:
// two hot terms' lists on shard 0 of four (every fourth document ID of a
// 16k-document corpus), in 60% and 40% of its documents, overlapping.
func BenchmarkUnionOr(b *testing.B) {
	const shards, span = 4, 16000
	rng := rand.New(rand.NewSource(1))
	lists := make([][]int64, 2)
	var want int
	for d := int64(0); d < span; d += shards {
		a, c := rng.Float64() < 0.6, rng.Float64() < 0.4
		if a {
			lists[0] = append(lists[0], d)
		}
		if c {
			lists[1] = append(lists[1], d)
		}
		if a || c {
			want++
		}
	}
	var bits postings.Bits
	b.SetBytes(int64(len(lists[0])+len(lists[1])) * 8)
	b.ReportAllocs()
	for b.Loop() {
		if out := unionSorted(nil, &bits, lists); len(out) != want {
			b.Fatalf("union of %d documents, want %d", len(out), want)
		}
	}
}

// BenchmarkScanSimilar measures one shard's similarity scan on the shape
// similar-cold gives it (4000 signatures, M=100, k=10). pruned is the serving
// path on signatures of 16 themes, where the Sketch bound rejects most
// candidates; random is the same path on isotropic signatures, where it can
// reject none and must cost next to nothing; oracle is the
// score-everything-then-sort both are held to (similar_test.go).
func BenchmarkScanSimilar(b *testing.B) {
	const n, m, k = 4000, 100, 10
	for _, c := range []struct {
		name   string
		themes int
		scan   func(*view, []float64, int64, int) []query.Hit
	}{{"pruned", 16, scanSimilar}, {"random", 0, scanSimilar}, {"oracle", 0, func(v *view, target []float64, exclude int64, k int) []query.Hit {
		hits, _ := oracleScanSimilar(v, target, exclude, k)
		return hits
	}}} {
		v := randomSimView(rand.New(rand.NewSource(1)), n, m, c.themes, 0)
		// Not one of the first signatures: a Sketch draws its directions
		// from those, and bounds a target inside their span exactly.
		target := v.blocks[0].SigVecs[n/2]
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(n * m * 8)
			b.ReportAllocs()
			for b.Loop() {
				if hits := c.scan(v, target, n/2, k); len(hits) != k {
					b.Fatalf("%d hits, want %d", len(hits), k)
				}
			}
		})
	}
}

// BenchmarkNear measures the radius query on the shape galaxy-pan gives it:
// 16k projected documents on one store and a radius whose leaves hold about
// 2000 candidates, some 1300 of them inside the circle.
func BenchmarkNear(b *testing.B) {
	srv, err := NewServer(mapStore(16000, 16, 1), Config{})
	if err != nil {
		b.Fatal(err)
	}
	sess := srv.NewSession()
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		if docs := sess.Near(ctx, 0.5, 0.5, 0.16); len(docs) < 1000 {
			b.Fatalf("%d documents in range", len(docs))
		}
	}
}

// BenchmarkThemeDocs measures one cluster's document list out of 16k
// assignments in 16 clusters — about 1000 documents a call.
func BenchmarkThemeDocs(b *testing.B) {
	srv, err := NewServer(mapStore(16000, 16, 1), Config{})
	if err != nil {
		b.Fatal(err)
	}
	sess := srv.NewSession()
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		if docs := sess.ThemeDocs(ctx, 3); len(docs) < 500 {
			b.Fatalf("%d documents in the theme", len(docs))
		}
	}
}

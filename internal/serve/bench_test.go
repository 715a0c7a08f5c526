package serve

import (
	"context"
	"math/rand"
	"testing"

	"inspire/internal/query"
)

// BenchmarkMergePostings measures the router's gather merge on the shape
// lookup-hot gives it: four shards' doc-sorted posting lists, 8000 postings
// in all, interleaved the way ShardOf deals documents out.
func BenchmarkMergePostings(b *testing.B) {
	const shards, total = 4, 8000
	parts := make([][]query.Posting, shards)
	for d := 0; d < total; d++ {
		// A multiplicative scramble of the shard choice keeps the winner of
		// each step unpredictable, as hashed document placement does.
		s := (d * 2654435761 >> 7) % shards
		parts[s] = append(parts[s], query.Posting{Doc: int64(d * 3), Freq: int64(1 + d%5)})
	}
	b.SetBytes(total * 16)
	b.ReportAllocs()
	for b.Loop() {
		if out := mergePostings(parts); len(out) != total {
			b.Fatalf("merged %d postings, want %d", len(out), total)
		}
	}
}

// BenchmarkScanSimilar measures one shard's similarity scan on the shape
// similar-cold gives it (4000 signatures, M=100, k=10): topk is the serving
// path, oracle the score-everything-then-sort it replaced (kept in
// similar_test.go as the differential oracle).
func BenchmarkScanSimilar(b *testing.B) {
	const n, m, k = 4000, 100, 10
	v := randomSimView(rand.New(rand.NewSource(1)), n, m, 0)
	target := v.sigs.Vecs[1]
	for _, c := range []struct {
		name string
		scan func(*view, []float64, int64, int) ([]query.Hit, float64)
	}{{"topk", scanSimilar}, {"oracle", oracleScanSimilar}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(n * m * 8)
			b.ReportAllocs()
			for b.Loop() {
				if hits, _ := c.scan(v, target, 1, k); len(hits) != k {
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

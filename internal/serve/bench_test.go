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

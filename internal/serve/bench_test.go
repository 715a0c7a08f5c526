package serve

import (
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

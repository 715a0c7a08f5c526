package invert

import (
	"testing"

	"inspire/internal/cluster"
	"inspire/internal/corpus"
	"inspire/internal/dhash"
	"inspire/internal/scan"
)

// BenchmarkInvert times the indexing component alone — publish excluded, both
// FAST-INV passes and the owner-side finalize included — on a 4 MB PubMed
// draw at P=4 under the paper's dynamic scheme.
func BenchmarkInvert(b *testing.B) {
	sources := corpus.Generate(corpus.GenSpec{
		Format: corpus.FormatPubMed, TargetBytes: 4 << 20, Sources: 8, Seed: 3, VocabSize: 20000, Topics: 8,
	})
	b.ReportAllocs()
	var postings int64
	err := scanned(4, sources, func(c *cluster.Comm, fwd *scan.Forward, vocab *dhash.Map, n int64) error {
		gf := PublishForward(c, fwd)
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			ix := Invert(c, gf, n, vocab.DenseRange, Options{Strategy: DynamicGA, ChunkTokens: 4096})
			if c.Rank() == 0 {
				postings = ix.PostDoc.N()
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(postings)*float64(b.N)/b.Elapsed().Seconds(), "postings/s")
}

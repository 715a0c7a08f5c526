package kmeans

import (
	"testing"

	"inspire/internal/cluster"
	"inspire/internal/simtime"
)

// BenchmarkKMeans clusters small blobs at several P, and once in the
// benchmark corpus's shape: about 16 000 signatures of M = 100 into K = 16
// at P = 4.
func BenchmarkKMeans(b *testing.B) {
	cases := []struct {
		name    string
		n, m, p int
		cfg     Config
	}{
		{"P=1", 2000, 16, 1, Config{K: 8, MaxIter: 10}},
		{"P=2", 2000, 16, 2, Config{K: 8, MaxIter: 10}},
		{"P=4", 2000, 16, 4, Config{K: 8, MaxIter: 10}},
		{"n=16000,M=100,K=16,P=4", 16000, 100, 4, Config{K: 16}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			vecs, ids, _ := blobs(tc.n, tc.m, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := cluster.Run(tc.p, simtime.Zero(), func(c *cluster.Comm) error {
					v, id := scatter(vecs, ids, tc.p, c.Rank())
					Run(c, v, id, int64(len(vecs)), tc.cfg)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package bench

import (
	"fmt"
	"testing"

	"inspire/internal/serve"
)

func TestServingStoreReusedAcrossCalls(t *testing.T) {
	a, err := ServingStore(testScale, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ServingStore(testScale, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("serving store not memoized")
	}
	if a.TotalDocs == 0 || a.VocabSize == 0 {
		t.Fatalf("empty serving store: %d docs, %d terms", a.TotalDocs, a.VocabSize)
	}
}

// BenchmarkServingThroughput is the serving smoke benchmark: one pipeline
// run snapshotted, then a seeded mixed workload replayed per session count.
// Custom metrics carry the figure's quantities; ns/op is the host cost.
func BenchmarkServingThroughput(b *testing.B) {
	st, err := ServingStore(DefaultScale*16, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range ServingSessionCounts {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			var rep *serve.WorkloadReport
			for i := 0; i < b.N; i++ {
				srv, err := serve.NewServer(st, serve.Config{})
				if err != nil {
					b.Fatal(err)
				}
				rep, err = serve.Replay(srv, serve.WorkloadConfig{
					Sessions:      n,
					OpsPerSession: 100,
					Seed:          1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.QPS, "qps")
			b.ReportMetric(100*rep.Stats.PostingHitRate(), "hit-pct")
			b.ReportMetric(rep.MeanVirtualMS, "virt-ms")
		})
	}
}

package ga

import (
	"testing"

	"inspire/internal/cluster"
	"inspire/internal/simtime"
)

func BenchmarkGetLocalVsRemote(b *testing.B) {
	for _, mode := range []string{"local", "remote"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			_, err := cluster.Run(2, simtime.Zero(), func(c *cluster.Comm) error {
				a := Create[float64](c, "bench", 1<<16)
				buf := make([]float64, 1024)
				if c.Rank() != 0 {
					return nil
				}
				lo := int64(0)
				if mode == "remote" {
					lo, _ = a.Distribution(1)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a.Get(lo, buf)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkReadIncContended(b *testing.B) {
	for _, p := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "P=1", 2: "P=2", 4: "P=4"}[p], func(b *testing.B) {
			_, err := cluster.Run(p, simtime.Zero(), func(c *cluster.Comm) error {
				a := Create[int64](c, "ctr", 1)
				for i := 0; i < b.N; i++ {
					a.ReadInc(0, 1)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkScatterAcc(b *testing.B) {
	_, err := cluster.Run(2, simtime.Zero(), func(c *cluster.Comm) error {
		a := Create[int64](c, "sc", 1<<14)
		idxs := make([]int64, 512)
		vals := make([]int64, 512)
		for i := range idxs {
			idxs[i] = int64(i * 7 % (1 << 14))
			vals[i] = 1
		}
		if c.Rank() != 0 {
			return nil
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.ScatterAcc(idxs, vals)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReserveAndPutRuns is the traffic of one inversion load in pass 2:
// reserve a slot range under each of 512 terms, then send their postings as
// one run per term, twice (documents, frequencies).
func BenchmarkReserveAndPutRuns(b *testing.B) {
	const terms, perTerm = 512, 3
	_, err := cluster.Run(4, simtime.Zero(), func(c *cluster.Comm) error {
		cursor := Create[int64](c, "cursor", 1<<14)
		post := Create[int64](c, "post", (1<<14)*perTerm)
		if c.Rank() == 0 {
			offs := make([]int64, 1<<14)
			for i := range offs {
				offs[i] = int64(i * perTerm)
			}
			cursor.Put(0, offs)
		}
		cursor.Sync()
		if c.Rank() != 0 {
			return nil
		}
		idxs := make([]int64, terms)
		lens := make([]int64, terms)
		zero := make([]int64, terms)
		slots := make([]int64, terms)
		vals := make([]int64, terms*perTerm)
		for i := range idxs {
			idxs[i] = int64(i * 31)
			lens[i] = perTerm
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A zero increment keeps every iteration inside its term's range.
			cursor.ReadIncIndexed(idxs, zero, slots)
			post.PutRuns(slots, lens, vals)
			post.PutRuns(slots, lens, vals)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// Load-balancing demonstration (the paper's Figure 9 and §3.3): inverted
// file indexing under three load-distribution strategies —
//
//   - static partitioning (each process inverts only its own loads),
//   - the paper's GA atomic-fetch-and-increment task queue with
//     own-loads-first stealing, and
//   - a master-worker dispatcher (one RPC per load to rank 0).
//
// A deliberately skewed corpus (TREC-like heavy-tailed documents) makes the
// static scheme imbalanced; the task queue restores balance with a few lines
// of fetch-and-increment, while the master-worker variant pays dispatcher
// serialization as P grows.
//
// A second act plays the same balancing theme on the serving side: the
// indexed corpus is mounted behind a Router at two replicas per shard, one
// replica is made pathologically slow, and hedged reads balance around it in
// time the way the task queue balances work in space. Then a replica is
// killed outright under a live replay — the session stream must not notice —
// and revived, catching up over shipped segments rather than a rebuild.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"inspire/internal/cluster"
	"inspire/internal/core"
	"inspire/internal/corpus"
	"inspire/internal/invert"
	"inspire/internal/serve"
	"inspire/internal/simtime"
)

func main() {
	sources := corpus.Generate(corpus.GenSpec{
		Format:      corpus.FormatTREC, // heavy-tailed record sizes
		TargetBytes: 2 << 20,
		Sources:     12,
		Seed:        99,
		Topics:      8,
		VocabSize:   9000,
	})
	model := simtime.PNNLCluster2007()
	model.DataScale = 512 // model a ~1 GB corpus

	fmt.Println("indexing component under three load-distribution strategies")
	fmt.Println("(virtual minutes on the modeled 2007 cluster; imbalance = max/mean rank time)")
	fmt.Println()
	fmt.Printf("%-14s %16s %16s %16s\n", "P", "static", "dynamic-ga", "master-worker")
	for _, p := range []int{4, 8, 16, 32} {
		row := fmt.Sprintf("%-14d", p)
		for _, strat := range []invert.Strategy{invert.Static, invert.DynamicGA, invert.MasterWorker} {
			sum, err := core.RunStandalone(p, model, sources, core.Config{Strategy: strat})
			if err != nil {
				log.Fatal(err)
			}
			row += fmt.Sprintf(" %7.2fm (x%.2f)",
				sum.ComponentSeconds(core.CompIndex)/60,
				sum.Breakdown.Imbalance(core.CompIndex))
		}
		fmt.Println(row)
	}
	fmt.Println()
	fmt.Println("expected shape: static grows imbalanced (ratio >> 1) and stops scaling once")
	fmt.Println("some ranks own more bytes than others; dynamic-ga stays near 1.0 and keeps")
	fmt.Println("scaling. master-worker matches dynamic-ga on time at this granularity — the")
	fmt.Println("paper's §3.3 point is that the GA atomic queue achieves this with a few lines")
	fmt.Println("of fetch-and-increment while the dispatcher adds per-load RPCs, a serial")
	fmt.Println("master, and implementation complexity.")

	replicatedServing(sources, model)
}

// replicatedServing is the serving-side coda: load balancing across replicas
// in time (hedged reads around a slow node) and across failures (kill one
// replica under live traffic, then catch it back up from shipped segments).
func replicatedServing(sources []*corpus.Source, model *simtime.Model) {
	fmt.Println()
	fmt.Println("replicated serving: the same balancing problem, query side")
	fmt.Println()

	// Index the skewed corpus through the real pipeline into a store.
	var st *serve.Store
	w, err := cluster.NewWorld(4, model)
	if err != nil {
		log.Fatal(err)
	}
	err = w.Run(func(c *cluster.Comm) error {
		res, err := core.Run(c, sources, core.Config{CollectSignatures: true})
		if err != nil {
			return err
		}
		got, err := serve.Snapshot(c, res)
		if c.Rank() == 0 {
			st = got
		}
		return err
	})
	if err != nil {
		log.Fatal(err)
	}

	parts, err := st.Shard(2)
	if err != nil {
		log.Fatal(err)
	}
	svc, err := serve.NewService(serve.Options{Shards: parts, Config: serve.Config{Replicas: 2}})
	if err != nil {
		log.Fatal(err)
	}
	r := svc.(*serve.Router)
	ctx := context.Background()
	terms := r.TopTerms(ctx, 16)

	// One replica turns pathologically slow — an overloaded node, not a dead
	// one. Hedged reads launch a second attempt past the hedge delay, so the
	// session tail tracks the healthy sibling instead of the straggler.
	r.Replica(0, 1).SetStall(5 * time.Millisecond)
	rs := r.NewSession()
	lat := make([]float64, 0, 120)
	for i := 0; i < 120; i++ {
		start := time.Now()
		if _, err := rs.Exec(ctx, serve.Query{Op: serve.OpTerm, Terms: terms[i%len(terms) : i%len(terms)+1]}); err != nil {
			log.Fatal(err)
		}
		lat = append(lat, time.Since(start).Seconds()*1e3)
	}
	sort.Float64s(lat)
	stats := r.Stats()
	fmt.Printf("  one replica stalled 5ms/read: p50 %.2fms p99 %.2fms over 120 reads\n",
		lat[len(lat)/2], lat[len(lat)*99/100])
	fmt.Printf("  (%d hedged attempts; p2c steers around the straggler's in-flight depth,\n", stats.Hedges)
	fmt.Println("   hedging covers the reads that picked it anyway)")
	r.Replica(0, 1).SetStall(0)

	// Now kill a replica mid-replay. The sessions must finish error-free:
	// in-flight reads fail over, and the dead replica simply stops being
	// picked. Revival ships the sealed segments it missed.
	done := make(chan error, 1)
	go func() {
		_, err := serve.Replay(r, serve.WorkloadConfig{Sessions: 16, OpsPerSession: 25, Seed: 7})
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	r.KillReplica(0, 1)
	ws := r.NewSession()
	for i := 0; i < 40; i++ {
		if _, err := ws.Exec(ctx, serve.Query{Op: serve.OpAdd, Text: terms[0] + " " + terms[1]}); err != nil {
			log.Fatal(err)
		}
	}
	if err := r.FlushLive(ctx); err != nil {
		log.Fatal(err)
	}
	if err := <-done; err != nil {
		log.Fatalf("replay saw a client-visible error: %v", err)
	}
	fmt.Println("  killed shard 0 replica 1 mid-replay: 16 sessions finished, zero errors")

	before := r.Stats()
	if err := r.ReviveReplica(0, 1); err != nil {
		log.Fatal(err)
	}
	after := r.Stats()
	fmt.Printf("  revived: caught up via %d shipped segments (%d bytes), not a rebuild\n",
		after.CatchUpSegments-before.CatchUpSegments, after.CatchUpBytes-before.CatchUpBytes)
}

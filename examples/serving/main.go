// Serving scenario — the ROADMAP's "heavy traffic" axis over the paper's
// interactive-analysis frontier. The pipeline runs once over a synthetic
// PubMed-style corpus; the finished run is snapshotted into a serving store;
// then N concurrent analyst sessions replay a mixed workload (term lookups,
// boolean queries, similarity search, theme drill-down, ThemeView region
// queries) against one serve.Server.
//
// The replay reports the serving scoreboard: sustained queries/sec on the
// host, posting/similarity cache hit rates and how many posting fetches were
// coalesced across sessions. Repeated queries hit the caches without
// changing a single answer — the determinism the engine guarantees end to
// end.
//
// The same snapshot is then partitioned into 4 document shards behind a
// scatter-gather Router and the identical workload replays through it: the
// router prunes shards by their DF summaries and merges the rest, with every
// answer still byte-identical. (Host throughput on one machine measures the
// scatter's overhead, not a cluster's speedup; the repository benchmark,
// go run ./benchmark, is the instrument for serving performance.)
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"inspire/internal/cluster"
	"inspire/internal/core"
	"inspire/internal/corpus"
	"inspire/internal/serve"
	"inspire/internal/simtime"
)

func main() {
	sources := corpus.Generate(corpus.GenSpec{
		Format:      corpus.FormatPubMed,
		TargetBytes: 1 << 20,
		Sources:     12,
		Seed:        11,
		Topics:      6,
		VocabSize:   6000,
	})

	// Index once: one pipeline run, snapshotted into the serving store.
	const p = 4
	var st *serve.Store
	w, err := cluster.NewWorld(p, simtime.PNNLCluster2007())
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
	fmt.Printf("indexed %d documents, %d terms, %d themes (P=%d pipeline run)\n",
		st.TotalDocs, st.VocabSize, st.K, p)

	// Serve many: concurrent sessions over one server.
	srv, err := serve.NewServer(st, serve.Config{})
	if err != nil {
		log.Fatal(err)
	}
	const sessions = 12
	rep, err := serve.Replay(srv, serve.WorkloadConfig{
		Sessions:      sessions,
		OpsPerSession: 60,
		Seed:          42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmixed workload (%s):\n%s\n", rep.OpMix(), rep)

	// Determinism across cache states: replaying the same workload against
	// warm caches answers faster but identically; spot-check one query on a
	// cold server vs the warm one.
	warm := srv.NewSession()
	cold := mustSession(st)
	term := st.TopTerms(1)[0]
	termQ := serve.Query{Op: serve.OpTerm, Terms: []string{term}}
	t0 := time.Now()
	a := exec(warm, termQ).Postings
	t1 := time.Now()
	b := exec(cold, termQ).Postings
	t2 := time.Now()
	same := len(a) == len(b)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == b[i]
	}
	fmt.Printf("\nspot check %q: warm-cache answer == cold-server answer: %v "+
		"(warm %v vs cold %v on this host)\n",
		term, same, t1.Sub(t0), t2.Sub(t1))

	// Scatter-gather sharding: partition the same snapshot 4 ways and replay
	// the identical workload through the router.
	const nShards = 4
	shards, err := st.Shard(nShards)
	if err != nil {
		log.Fatal(err)
	}
	router, err := serve.NewRouter(shards, serve.Config{})
	if err != nil {
		log.Fatal(err)
	}
	rep4, err := serve.Replay(router, serve.WorkloadConfig{
		Sessions:      sessions,
		OpsPerSession: 60,
		Seed:          42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsharded %d ways behind the router:\n%s\n", nShards, rep4)
	fmt.Printf("\nsharding: host throughput %.0f -> %.0f queries/sec; %d shard sub-queries, %d pruned by DF summaries\n",
		rep.QPS, rep4.QPS, rep4.Stats.ShardQueries, rep4.Stats.ShardsPruned)

	// Answers through the router stay byte-identical to the monolithic
	// server's.
	rsess := router.NewSession()
	c, d := exec(warm, termQ).Postings, exec(rsess, termQ).Postings
	same = len(c) == len(d)
	for i := 0; same && i < len(c); i++ {
		same = c[i] == d[i]
	}
	fmt.Printf("spot check %q: routed answer == single-store answer: %v\n", term, same)
}

// exec runs one interaction on a session, failing the example on an error.
func exec(s interface {
	Exec(context.Context, serve.Query) (serve.Result, error)
}, q serve.Query) serve.Result {
	res, err := s.Exec(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// mustSession opens a session on a fresh (cold-cache) server over the store.
func mustSession(st *serve.Store) *serve.Session {
	srv, err := serve.NewServer(st, serve.Config{})
	if err != nil {
		log.Fatal(err)
	}
	return srv.NewSession()
}

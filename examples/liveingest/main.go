// Live-ingestion scenario — the serving stack absorbing new documents while
// heavy query traffic keeps flowing, the capability every production
// deployment of the paper's pipeline needs (Textiverse's incrementally
// updated geotagged corpora, Cartolabe's re-projected collections) and the
// one a frozen snapshot cannot offer.
//
// One pipeline run builds the base snapshot; analyst sessions then replay a
// mixed workload while another stream of sessions adds documents through the
// live path: each add is tokenized with the producing run's normalization,
// projected into signature space with its frozen association matrix, and
// becomes visible when its delta seals into a block-compressed segment — an
// atomic epoch swap readers never block on. A background compactor folds
// small segments together; deletes tombstone immediately; and the whole live
// state rebases back into an ordinary store file at the end.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"sync"
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
		TargetBytes: 512 << 10,
		Sources:     8,
		Seed:        23,
		Topics:      5,
		VocabSize:   4000,
	})

	// Index once. Half the corpus builds the base snapshot; the other half
	// arrives later, through the live path.
	sort.Slice(sources, func(i, j int) bool { return sources[i].Name < sources[j].Name })
	baseSources := sources[:len(sources)/2]
	var st *serve.Store
	w, err := cluster.NewWorld(4, simtime.PNNLCluster2007())
	if err != nil {
		log.Fatal(err)
	}
	err = w.Run(func(c *cluster.Comm) error {
		res, err := core.Run(c, baseSources, core.Config{CollectSignatures: true})
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
	fmt.Printf("base snapshot: %d documents, %d terms, %d themes\n", st.TotalDocs, st.VocabSize, st.K)

	// The late half of the corpus, as raw record texts.
	var lateTexts []string
	for _, src := range sources[len(sources)/2:] {
		recs, err := corpus.Parse(src)
		if err != nil {
			log.Fatal(err)
		}
		for i := range recs {
			lateTexts = append(lateTexts, recs[i].Text())
		}
	}

	st.SetLivePolicy(serve.LivePolicy{SealDocs: 32, CompactSegments: 3})
	srv, err := serve.NewServer(st, serve.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// Queries and ingestion run concurrently: 8 analyst sessions replay the
	// mixed workload while 2 ingest sessions stream the late documents in.
	var wg sync.WaitGroup
	var rep *serve.WorkloadReport
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		rep, err = serve.Replay(srv, serve.WorkloadConfig{Sessions: 8, OpsPerSession: 60, Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
	}()
	start := time.Now()
	var ingest sync.WaitGroup
	for g := 0; g < 2; g++ {
		ingest.Add(1)
		go func(g int) {
			defer ingest.Done()
			sess := srv.NewSession()
			for i := g; i < len(lateTexts); i += 2 {
				exec(sess, serve.Query{Op: serve.OpAdd, Text: lateTexts[i]})
			}
		}(g)
	}
	ingest.Wait()
	ingestSecs := time.Since(start).Seconds()
	wg.Wait()
	if err := st.Flush(); err != nil {
		log.Fatal(err)
	}
	st.WaitCompaction()

	fmt.Printf("\nqueries while ingesting (%s):\n%s\n", rep.OpMix(), rep)
	stats := srv.Stats()
	fmt.Printf("\ningested %d documents in %.2f host seconds (%d seals, %d compactions, %d live segments, %d visible docs)\n",
		stats.Adds, ingestSecs, stats.Seals, stats.Compactions, st.LiveSegments(), st.LiveDocs())

	// Deletes tombstone immediately; queries filter them on the next
	// interaction.
	sess := srv.NewSession()
	term := []string{srv.TopTerms(context.Background(), 1)[0]}
	// An answer's postings are the session's until its next interaction:
	// keep the document ID, not the slice.
	if docs := exec(sess, serve.Query{Op: serve.OpTerm, Terms: term}).Postings; len(docs) > 0 {
		doc := docs[0].Doc
		exec(sess, serve.Query{Op: serve.OpDelete, Doc: doc})
		after := exec(sess, serve.Query{Op: serve.OpTerm, Terms: term}).Postings
		fmt.Printf("\ndeleted doc %d: %q now matches %d docs (DF still reports %d until compaction drops the postings)\n",
			doc, term[0], len(after), exec(sess, serve.Query{Op: serve.OpDF, Terms: term}).DF)
	}

	// Rebase folds base + segments - tombstones into a fresh base: the
	// store is a single ordinary INSPSTORE4 file again.
	if err := st.Rebase(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrebased: %d live documents, %d segments, store ready to persist as one file\n",
		st.LiveDocs(), st.LiveSegments())
}

// exec runs one interaction on a session, failing the example on an error.
func exec(sess *serve.Session, q serve.Query) serve.Result {
	res, err := sess.Exec(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

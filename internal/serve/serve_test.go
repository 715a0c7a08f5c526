package serve

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"inspire/internal/cluster"
	"inspire/internal/core"
	"inspire/internal/corpus"
	"inspire/internal/query"
	"inspire/internal/signature"
	"inspire/internal/simtime"
)

// miniDocs is the hand corpus with known term/document structure shared with
// the query tests.
var miniDocs = []string{
	"apple apple banana banana cherry",        // doc 0
	"apple banana banana",                     // doc 1
	"apple apple cherry cherry",               // doc 2
	"durian durian elder elder fig fig",       // doc 3
	"durian elder elder fig",                  // doc 4
	"grape grape honeydew honeydew kiwi kiwi", // doc 5
}

// buildStoreT runs the pipeline over miniDocs at P ranks and snapshots it.
func buildStoreT(t *testing.T, p int) *Store {
	t.Helper()
	src := corpus.FromTexts("mini", miniDocs)
	var st *Store
	_, err := cluster.Run(p, simtime.Zero(), func(c *cluster.Comm) error {
		res, err := core.Run(c, []*corpus.Source{src}, core.Config{TopN: 100, TopicFrac: 0.5})
		if err != nil {
			return err
		}
		got, err := Snapshot(c, res)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			st = got
		} else if got != nil {
			return fmt.Errorf("rank %d got a non-nil store", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("no store from rank 0")
	}
	return st
}

func newServerT(t *testing.T, st *Store, cfg Config) *Server {
	t.Helper()
	srv, err := NewServer(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestSnapshotMatchesCorpus(t *testing.T) {
	st := buildStoreT(t, 3)
	if st.TotalDocs != int64(len(miniDocs)) {
		t.Fatalf("store has %d docs, want %d", st.TotalDocs, len(miniDocs))
	}
	srv := newServerT(t, st, Config{})
	sess := srv.NewSession()

	ps := sess.TermDocs(context.Background(), "apple")
	wantFreq := map[int64]int64{0: 2, 1: 1, 2: 2}
	if len(ps) != 3 {
		t.Fatalf("apple in %d docs: %v", len(ps), ps)
	}
	for _, p := range ps {
		if wantFreq[p.Doc] != p.Freq {
			t.Fatalf("apple in doc %d freq %d, want %d", p.Doc, p.Freq, wantFreq[p.Doc])
		}
	}
	if got := sess.TermDocs(context.Background(), "APPLE"); len(got) != 3 {
		t.Fatal("case folding failed")
	}
	if got := sess.TermDocs(context.Background(), "nonexistent"); got != nil {
		t.Fatalf("phantom postings: %v", got)
	}
	if sess.DF(context.Background(), "banana") != 2 || sess.DF(context.Background(), "nonexistent") != 0 {
		t.Fatal("df wrong")
	}
	if got := sess.And(context.Background(), "apple", "banana"); !reflect.DeepEqual(got, []int64{0, 1}) {
		t.Fatalf("apple AND banana = %v", got)
	}
	if got := sess.And(context.Background(), "apple", "durian"); got != nil {
		t.Fatalf("disjoint AND = %v", got)
	}
	if got := sess.Or(context.Background(), "cherry", "fig"); !reflect.DeepEqual(got, []int64{0, 2, 3, 4}) {
		t.Fatalf("cherry OR fig = %v", got)
	}

	hits, err := sess.Similar(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]bool{}
	for _, h := range hits {
		got[h.Doc] = true
	}
	if !got[1] || !got[2] {
		t.Fatalf("neighbours of doc 0: %+v", hits)
	}
	if _, err := sess.Similar(context.Background(), 999, 2); err == nil {
		t.Fatal("similar to missing doc should fail")
	}

	// Themes partition the documents.
	seen := map[int64]int{}
	for k := 0; k < st.K; k++ {
		for _, d := range sess.ThemeDocs(context.Background(), k) {
			seen[d]++
		}
	}
	for d, n := range seen {
		if n != 1 {
			t.Fatalf("doc %d in %d themes", d, n)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no themed documents")
	}
	if all := sess.Near(context.Background(), 0, 0, 1e9); len(all) != len(miniDocs) {
		t.Fatalf("near-all found %d of %d", len(all), len(miniDocs))
	}

	// Every interaction counts once, the failed Similar included: three
	// term, two DF, two And, one Or, two Similar, K theme and one Near reads.
	if got, want := srv.Stats().Queries, uint64(11+st.K); got != want {
		t.Fatalf("server counted %d queries, want %d", got, want)
	}
}

func TestCachedAnswersIdenticalToCold(t *testing.T) {
	st := buildStoreT(t, 3)
	srv := newServerT(t, st, Config{})
	sess := srv.NewSession()

	cold := sess.TermDocs(context.Background(), "banana")
	warm := sess.TermDocs(context.Background(), "banana")
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cached postings differ: %v vs %v", cold, warm)
	}
	coldSim, err := sess.Similar(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	warmSim, err := sess.Similar(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldSim, warmSim) {
		t.Fatalf("cached similarity differs: %v vs %v", coldSim, warmSim)
	}

	stats := srv.Stats()
	if stats.PostingMisses != 1 || stats.PostingHits != 1 {
		t.Fatalf("posting cache counters: %+v", stats)
	}
	if stats.SimMisses != 1 || stats.SimHits != 1 {
		t.Fatalf("sim cache counters: %+v", stats)
	}

	// A fresh server (cold caches) answers identically.
	srv2 := newServerT(t, st, Config{})
	sess2 := srv2.NewSession()
	if got := sess2.TermDocs(context.Background(), "banana"); !reflect.DeepEqual(got, cold) {
		t.Fatalf("fresh server differs: %v vs %v", got, cold)
	}
	got2, err := sess2.Similar(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, coldSim) {
		t.Fatalf("fresh server similarity differs")
	}

	// A repeat is answered from the cache: the first read of a term decodes
	// its list once, the second decodes nothing and joins no fetch.
	srv3 := newServerT(t, st, Config{})
	s3 := srv3.NewSession()
	s3.TermDocs(context.Background(), "cherry")
	if s := srv3.Stats(); s.PostingMisses != 1 || s.PostingHits != 0 || s.Coalesced != 0 {
		t.Fatalf("cold read: %d misses, %d hits, %d coalesced; want 1, 0, 0", s.PostingMisses, s.PostingHits, s.Coalesced)
	}
	s3.TermDocs(context.Background(), "cherry")
	if s := srv3.Stats(); s.PostingMisses != 1 || s.PostingHits != 1 || s.Coalesced != 0 {
		t.Fatalf("warm read: %d misses, %d hits, %d coalesced; want 1, 1, 0", s.PostingMisses, s.PostingHits, s.Coalesced)
	}
}

func TestCacheEviction(t *testing.T) {
	st := buildStoreT(t, 2)
	srv := newServerT(t, st, Config{PostingCacheEntries: 2})
	sess := srv.NewSession()
	terms := []string{"apple", "banana", "cherry", "durian", "elder", "fig"}
	for _, term := range terms {
		if sess.TermDocs(context.Background(), term) == nil {
			t.Fatalf("no postings for %q", term)
		}
	}
	stats := srv.Stats()
	if stats.PostingEvictions == 0 {
		t.Fatalf("no evictions with cache cap 2 and %d terms: %+v", len(terms), stats)
	}
	if stats.PostingMisses != uint64(len(terms)) {
		t.Fatalf("expected %d misses, got %+v", len(terms), stats)
	}
	// Evicted entries still answer correctly on refetch.
	if got := sess.TermDocs(context.Background(), "apple"); len(got) != 3 {
		t.Fatalf("refetch after eviction wrong: %v", got)
	}
}

func TestCoalescingConcurrentGets(t *testing.T) {
	st := buildStoreT(t, 2)
	srv := newServerT(t, st, Config{})
	const n = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([][]query.Posting, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := srv.NewSession()
			<-start
			results[i] = sess.TermDocs(context.Background(), "apple")
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("concurrent sessions disagree: %v vs %v", results[i], results[0])
		}
	}
	stats := srv.Stats()
	if stats.PostingMisses != 1 {
		t.Fatalf("concurrent gets for one term issued %d transfers, want 1 (%+v)", stats.PostingMisses, stats)
	}
	if stats.PostingHits+stats.Coalesced != n-1 {
		t.Fatalf("hits %d + coalesced %d != %d", stats.PostingHits, stats.Coalesced, n-1)
	}
}

func TestConcurrentMixedWorkloadRace(t *testing.T) {
	st := buildStoreT(t, 3)
	srv := newServerT(t, st, Config{PostingCacheEntries: 4, SimCacheEntries: 2})
	rep, err := Replay(srv, WorkloadConfig{Sessions: 10, OpsPerSession: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 400 {
		t.Fatalf("replayed %d ops, want 400", rep.Ops)
	}
	if rep.Stats.Queries != 400 {
		t.Fatalf("server counted %d queries", rep.Stats.Queries)
	}
	if rep.Stats.PostingHitRate() <= 0 {
		t.Fatalf("skewed workload produced no cache hits: %+v", rep.Stats)
	}
	if rep.QPS <= 0 || rep.WallSeconds <= 0 {
		t.Fatalf("no host throughput measured: %+v", rep)
	}
	if rep.String() == "" || rep.OpMix() == "" {
		t.Fatal("empty report rendering")
	}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	st := buildStoreT(t, 3)
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a := newServerT(t, st, Config{}).NewSession()
	b := newServerT(t, loaded, Config{}).NewSession()
	if !reflect.DeepEqual(a.TermDocs(context.Background(), "apple"), b.TermDocs(context.Background(), "apple")) {
		t.Fatal("loaded store postings differ")
	}
	if !reflect.DeepEqual(a.And(context.Background(), "apple", "cherry"), b.And(context.Background(), "apple", "cherry")) {
		t.Fatal("loaded store boolean differs")
	}
	ha, err := a.Similar(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Similar(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ha, hb) {
		t.Fatal("loaded store similarity differs")
	}
	if _, err := LoadStore(bytes.NewReader([]byte("not a store"))); err == nil {
		t.Fatal("garbage store loaded")
	}
}

// TestPostingCompressionFloor holds the posting codec to its floor: the
// block-coded lists (bitmap containers included) of a generated PubMed-style
// corpus take at most 1/2.5 of the 16 bytes per (doc, freq) pair a flat
// layout would. The corpus is the paper's 2.75 GB PubMed set at 1/1024 scale,
// the one the figures harness (internal/bench) generates by default; it
// compresses 3.49x.
func TestPostingCompressionFloor(t *testing.T) {
	sources := corpus.Generate(corpus.GenSpec{
		Format: corpus.FormatPubMed, TargetBytes: 2.75 * (1 << 30) / 1024, Sources: 64, Seed: 275, VocabSize: 24000, Topics: 16,
	})
	st := batchStore(t, sources, 4)
	var pairs int64
	for _, n := range st.DF {
		pairs += n
	}
	ratio := 16 * float64(pairs) / float64(st.Posts.SizeBytes())
	t.Logf("%d postings in %d bytes: %.2fx smaller than flat", pairs, st.Posts.SizeBytes(), ratio)
	if ratio < 2.5 {
		t.Fatalf("postings compress %.2fx, below the 2.5x floor", ratio)
	}
}

func TestApplyPersistedSignatures(t *testing.T) {
	st := buildStoreT(t, 2)
	// Persist the snapshot's own signatures and reload them through the
	// serving load path; similarity answers must be unchanged.
	var buf bytes.Buffer
	if err := signature.Save(&buf, st.SigM, st.SigDocs, st.SigVecs); err != nil {
		t.Fatal(err)
	}
	before, err := newServerT(t, st, Config{}).NewSession().Similar(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	set, err := signature.LoadSet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ApplySignatures(set); err != nil {
		t.Fatal(err)
	}
	after, err := newServerT(t, st, Config{}).NewSession().Similar(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("persisted signatures change answers: %v vs %v", before, after)
	}
	if err := st.ApplySignatures(nil); err == nil {
		t.Fatal("nil signature set accepted")
	}
}

func TestTopTermsAndSampleDocs(t *testing.T) {
	st := buildStoreT(t, 2)
	top := st.TopTerms(3)
	if len(top) != 3 {
		t.Fatalf("top terms: %v", top)
	}
	// Highest-DF terms of miniDocs: apple (3 docs) leads.
	if top[0] != "apple" {
		t.Fatalf("top term %q, want apple", top[0])
	}
	docs := st.SampleDocs(4)
	if len(docs) == 0 {
		t.Fatal("no sample docs")
	}
	for i := 1; i < len(docs); i++ {
		if docs[i] <= docs[i-1] {
			t.Fatalf("sample docs unsorted: %v", docs)
		}
	}
}

func TestAndShortCircuitsDoomedQueries(t *testing.T) {
	st := buildStoreT(t, 3).Fork()
	// A sealed segment holding both known terms, so a conjunction that read
	// postings would have segment lists to fetch too.
	if _, err := st.Add("apple banana"); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	srv := newServerT(t, st, Config{})
	sess := srv.NewSession()
	// A conjunction containing an unknown term must not read a single
	// posting list: only the vocabulary and DF descriptors are consulted.
	if got := sess.And(context.Background(), "apple", "nonexistent", "banana"); got != nil {
		t.Fatalf("doomed And = %v", got)
	}
	s := srv.Stats()
	if s.PostingHits+s.PostingMisses+s.Coalesced != 0 || s.PartialFetches != 0 || s.SegmentFetches != 0 {
		t.Fatalf("doomed And moved posting lists: %+v", s)
	}
	if s.Queries != 1 {
		t.Fatalf("doomed And counted %d interactions, want 1", s.Queries)
	}
}

func TestAndBlockSkippingAgreesWithDecodedPaths(t *testing.T) {
	// A generated corpus gives the DF spread the path policy keys on: tail
	// terms (sparse candidate sets) intersect off compressed blocks, head
	// terms fetch decoded through the LRU.
	sources := corpus.Generate(corpus.GenSpec{
		Format: corpus.FormatPubMed, TargetBytes: 40_000, Sources: 4, Seed: 9, VocabSize: 1200, Topics: 4,
	})
	var st *Store
	_, err := cluster.Run(3, simtime.Zero(), func(c *cluster.Comm) error {
		res, err := core.Run(c, sources, core.Config{CollectSignatures: true})
		if err != nil {
			return err
		}
		got, err := Snapshot(c, res)
		if c.Rank() == 0 {
			st = got
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// The reference decodes both lists whole and merges them: no skip
	// directory, no cache, no path policy.
	decodedAnd := func(a, b string) []int64 {
		ida, _ := st.TermID(a)
		idb, _ := st.TermID(b)
		da, _ := st.Postings(ida)
		db, _ := st.Postings(idb)
		return query.IntersectSorted(da, db)
	}

	// Pick the head term and a handful of tail terms by DF.
	head := st.TopTerms(1)[0]
	var tails []string
	for id, df := range st.DF {
		if df >= 1 && df <= 2 {
			tails = append(tails, st.TermList[id])
			if len(tails) == 6 {
				break
			}
		}
	}
	if len(tails) == 0 {
		t.Fatal("corpus has no tail terms")
	}

	srvC := newServerT(t, st, Config{})
	cold := srvC.NewSession()
	for _, tail := range tails {
		q := []string{tail, head}
		want := decodedAnd(tail, head)
		if got := cold.And(context.Background(), q...); !sameDocs(got, want) {
			t.Fatalf("block-skipping And(%v) = %v, decoded lists say %v", q, got, want)
		}
	}
	s := srvC.Stats()
	if s.PartialFetches == 0 || s.BlocksDecoded == 0 {
		t.Fatalf("sparse conjunctions never intersected off compressed blocks: %+v", s)
	}
	// Warm the head list into the decoded cache: And answers must not
	// change when the cached fast path takes over.
	warm := srvC.NewSession()
	warm.TermDocs(context.Background(), head)
	for _, tail := range tails {
		q := []string{tail, head}
		want := decodedAnd(tail, head)
		if got := warm.And(context.Background(), q...); !sameDocs(got, want) {
			t.Fatalf("warm compressed And(%v) = %v, want %v", q, got, want)
		}
	}
	// Dense conjunctions (head x head) take the full-fetch path, so repeats
	// hit the LRU instead of re-transferring compressed blocks.
	top := st.TopTerms(2)
	dense := srvC.NewSession()
	dense.And(context.Background(), top[0], top[1])
	before := srvC.Stats()
	dense.And(context.Background(), top[0], top[1])
	after := srvC.Stats()
	if after.PostingMisses != before.PostingMisses || after.PartialFetches != before.PartialFetches {
		t.Fatalf("repeated dense And re-transferred: before %+v after %+v", before, after)
	}
	if after.PostingHits <= before.PostingHits {
		t.Fatalf("repeated dense And missed the cache: before %+v after %+v", before, after)
	}
}

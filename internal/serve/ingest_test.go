package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"inspire/internal/cluster"
	"inspire/internal/core"
	"inspire/internal/corpus"
	"inspire/internal/signature"
	"inspire/internal/simtime"
)

// ingestSources is the generated corpus shared by the equivalence tests: big
// enough for a real vocabulary spread, small enough to index in milliseconds.
func ingestSources() []*corpus.Source {
	return corpus.Generate(corpus.GenSpec{
		Format: corpus.FormatPubMed, TargetBytes: 30_000, Sources: 3, Seed: 17, VocabSize: 900, Topics: 4,
	})
}

// batchStore indexes sources in one pipeline run and snapshots it.
func batchStore(t *testing.T, sources []*corpus.Source, p int) *Store {
	t.Helper()
	var st *Store
	_, err := cluster.Run(p, simtime.Zero(), func(c *cluster.Comm) error {
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
	if st.Proj == nil {
		t.Fatal("snapshot carries no signature projection")
	}
	return st
}

// recordTexts returns every record's whole text in global document-ID order
// (sources sorted by name, records in source order — exactly how
// AssignGlobalDocIDs numbers them).
func recordTexts(t *testing.T, sources []*corpus.Source) []string {
	t.Helper()
	sorted := append([]*corpus.Source(nil), sources...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var texts []string
	for _, src := range sorted {
		recs, err := corpus.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			texts = append(texts, recs[i].Text())
		}
	}
	return texts
}

// queryTerms picks a deterministic probe vocabulary: head terms, tail terms
// and misses.
func queryTerms(st *Store) []string {
	terms := st.TopTerms(12)
	var tails int
	for id, df := range st.DF {
		if df >= 1 && df <= 2 {
			terms = append(terms, st.TermList[id])
			if tails++; tails == 12 {
				break
			}
		}
	}
	return append(terms, "zzz-missing", "absent")
}

// agreeQueries fails the test unless both queriers answer an identical mixed
// stream of DF/TermDocs/And/Or/Similar queries identically.
func agreeQueries(t *testing.T, label string, want, got Querier, terms []string, simDocs []int64) {
	t.Helper()
	for _, term := range terms {
		if a, b := want.DF(context.Background(), term), got.DF(context.Background(), term); a != b {
			t.Fatalf("%s: DF(%q) = %d, want %d", label, term, b, a)
		}
		if a, b := want.TermDocs(context.Background(), term), got.TermDocs(context.Background(), term); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: TermDocs(%q) = %v, want %v", label, term, b, a)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		n := 1 + rng.Intn(3)
		q := make([]string, n)
		for j := range q {
			q[j] = terms[rng.Intn(len(terms))]
		}
		if a, b := want.And(context.Background(), q...), got.And(context.Background(), q...); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: And(%v) = %v, want %v", label, q, b, a)
		}
		if a, b := want.Or(context.Background(), q...), got.Or(context.Background(), q...); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: Or(%v) = %v, want %v", label, q, b, a)
		}
	}
	for _, doc := range simDocs {
		a, errA := want.Similar(context.Background(), doc, 5)
		b, errB := got.Similar(context.Background(), doc, 5)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: Similar(%d) errors disagree: %v vs %v", label, doc, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: Similar(%d) = %v, want %v", label, doc, b, a)
		}
	}
	// Spatial probes: ingested documents land on the ThemeView plane via the
	// frozen Planar model, bit-for-bit where the batch run projected them,
	// so region queries must agree at every radius.
	for i := 0; i < 30; i++ {
		x, y := rng.Float64()*2-1, rng.Float64()*2-1
		r := rng.Float64() * 0.7
		if a, b := want.Near(context.Background(), x, y, r), got.Near(context.Background(), x, y, r); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: Near(%g,%g,%g) = %v, want %v", label, x, y, r, b, a)
		}
	}
	if a, b := want.Near(context.Background(), 0, 0, 1e9), got.Near(context.Background(), 0, 0, 1e9); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: Near(all) = %d docs, want %d", label, len(b), len(a))
	}
}

// TestIngestedEqualsBatchSingle is the offline-vs-ingested equivalence check
// on a single store: indexing a corpus in one batch and ingesting the same
// records doc-by-doc into an EmptyCopy must answer And/Or/DF/TermDocs/
// Similar identically — while the ingested store still serves from multiple
// sealed segments, after compaction, and after a full rebase.
func TestIngestedEqualsBatchSingle(t *testing.T) {
	sources := ingestSources()
	st := batchStore(t, sources, 3)
	texts := recordTexts(t, sources)
	if int64(len(texts)) != st.TotalDocs {
		t.Fatalf("parsed %d records for %d docs", len(texts), st.TotalDocs)
	}

	live := st.EmptyCopy()
	live.SetLivePolicy(LivePolicy{SealDocs: 7, CompactSegments: 3, ManualCompaction: true})
	for i, text := range texts {
		doc, err := live.Add(text)
		if err != nil {
			t.Fatal(err)
		}
		if doc != int64(i) {
			t.Fatalf("add %d assigned doc %d", i, doc)
		}
	}
	if err := live.Flush(); err != nil {
		t.Fatal(err)
	}
	if live.LiveDocs() != st.TotalDocs {
		t.Fatalf("live store sees %d docs, want %d", live.LiveDocs(), st.TotalDocs)
	}
	if live.LiveSegments() < 2 {
		t.Fatalf("expected multiple segments, got %d", live.LiveSegments())
	}

	terms := queryTerms(st)
	simDocs := append(st.SampleDocs(6), 1<<40) // including a miss
	batchSrv := newServerT(t, st, Config{})
	check := func(label string) {
		t.Helper()
		agreeQueries(t, label, batchSrv.NewSession(), newServerT(t, live, Config{}).NewSession(), terms, simDocs)
	}
	check("segmented")

	if err := live.Compact(); err != nil {
		t.Fatal(err)
	}
	if live.LiveSegments() != 1 {
		t.Fatalf("compaction left %d segments", live.LiveSegments())
	}
	check("compacted")

	if err := live.Rebase(); err != nil {
		t.Fatal(err)
	}
	if live.LiveSegments() != 0 || live.TotalDocs != st.TotalDocs {
		t.Fatalf("rebase left %d segments, %d docs", live.LiveSegments(), live.TotalDocs)
	}
	check("rebased")

	if s := newServerT(t, live, Config{}).Stats(); s.Adds != uint64(len(texts)) || s.Seals == 0 || s.Compactions == 0 {
		t.Fatalf("ingest counters: %+v", s)
	}
}

// TestIngestedEqualsBatchSharded runs the same equivalence through the
// Router: a batch-built 3-shard set versus an empty 3-shard set ingested
// entirely through routed adds (which tokenize at the router and land on
// shard doc mod S).
func TestIngestedEqualsBatchSharded(t *testing.T) {
	sources := ingestSources()
	st := batchStore(t, sources, 3)
	texts := recordTexts(t, sources)

	batchShards, err := st.Shard(3)
	if err != nil {
		t.Fatal(err)
	}
	batchRouter, err := NewRouter(batchShards, Config{})
	if err != nil {
		t.Fatal(err)
	}

	emptyShards, err := st.EmptyCopy().Shard(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range emptyShards {
		sh.SetLivePolicy(LivePolicy{SealDocs: 5, CompactSegments: 3, ManualCompaction: true})
	}
	liveRouter, err := NewRouter(emptyShards, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sess := liveRouter.NewSession()
	for i, text := range texts {
		doc, err := sess.Add(context.Background(), text)
		if err != nil {
			t.Fatal(err)
		}
		if doc != int64(i) {
			t.Fatalf("routed add %d assigned doc %d", i, doc)
		}
	}
	if err := liveRouter.FlushLive(context.Background()); err != nil {
		t.Fatal(err)
	}

	terms := queryTerms(st)
	simDocs := append(st.SampleDocs(6), 1<<40)
	agreeQueries(t, "routed segmented", batchRouter.NewSession(), liveRouter.NewSession(), terms, simDocs)

	if err := liveRouter.CompactLive(context.Background()); err != nil {
		t.Fatal(err)
	}
	agreeQueries(t, "routed compacted", batchRouter.NewSession(), liveRouter.NewSession(), terms, simDocs)

	// The routed set also agrees with the monolithic batch server.
	agreeQueries(t, "routed vs single", newServerT(t, st, Config{}).NewSession(), liveRouter.NewSession(), terms, simDocs)

	if s := liveRouter.Stats(); s.Adds != uint64(len(texts)) || s.Seals == 0 {
		t.Fatalf("routed ingest counters: %+v", s)
	}
}

// TestDeleteTombstones checks the delete path end to end: tombstoned
// documents vanish from every query immediately, DF overcounts until the
// postings are physically dropped, and Rebase makes the counts exact again.
func TestDeleteTombstones(t *testing.T) {
	st := buildStoreT(t, 3).Fork()
	srv := newServerT(t, st, Config{})
	sess := srv.NewSession()

	dfBefore := sess.DF(context.Background(), "apple")
	if got := sess.And(context.Background(), "apple", "banana"); !reflect.DeepEqual(got, []int64{0, 1}) {
		t.Fatalf("precondition: %v", got)
	}
	if err := sess.Delete(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if got := sess.And(context.Background(), "apple", "banana"); !reflect.DeepEqual(got, []int64{0}) {
		t.Fatalf("And after delete = %v", got)
	}
	if got := sess.Or(context.Background(), "banana"); !reflect.DeepEqual(got, []int64{0}) {
		t.Fatalf("Or after delete = %v", got)
	}
	for _, p := range sess.TermDocs(context.Background(), "banana") {
		if p.Doc == 1 {
			t.Fatal("tombstoned doc in TermDocs")
		}
	}
	if _, err := sess.Similar(context.Background(), 1, 3); err == nil {
		t.Fatal("Similar to a deleted doc should fail")
	}
	hits, err := sess.Similar(context.Background(), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.Doc == 1 {
			t.Fatal("tombstoned doc in Similar results")
		}
	}
	for k := 0; k < st.K; k++ {
		for _, d := range sess.ThemeDocs(context.Background(), k) {
			if d == 1 {
				t.Fatal("tombstoned doc in ThemeDocs")
			}
		}
	}
	for _, d := range sess.Near(context.Background(), 0, 0, 1e9) {
		if d == 1 {
			t.Fatal("tombstoned doc in Near")
		}
	}
	// DF keeps counting the tombstoned doc until the postings drop.
	if got := sess.DF(context.Background(), "apple"); got != dfBefore {
		t.Fatalf("DF before rebase = %d, want the overcount %d", got, dfBefore)
	}
	if err := st.Rebase(); err != nil {
		t.Fatal(err)
	}
	if got := srv.NewSession().DF(context.Background(), "apple"); got != dfBefore-1 {
		t.Fatalf("DF after rebase = %d, want %d", got, dfBefore-1)
	}

	if err := srv.NewSession().Delete(context.Background(), 999); err == nil {
		t.Fatal("deleting an unknown doc should fail")
	}
	if err := st.AddAt(1, "resurrection"); err == nil {
		t.Fatal("re-adding a base doc ID should fail")
	}
}

// TestRefreshSimilarDropsCompactedTombstones pins the lineage-walk filter of
// the incremental similarity refresh: a document sealed into a segment,
// deleted, and then compacted away loses its tombstone from the published
// view (the data went with it), but the lineage segments a cached top-K is
// patched forward across still carry its signature — the refresh must filter
// the tombstones walked along the lineage, not just the view's set, or it
// resurrects the deleted document.
func TestRefreshSimilarDropsCompactedTombstones(t *testing.T) {
	st := buildStoreT(t, 2).Fork()
	st.SetLivePolicy(LivePolicy{SealDocs: 100, CompactSegments: 100, ManualCompaction: true})
	srv := newServerT(t, st, Config{})
	sess := srv.NewSession()
	k := int(st.TotalDocs) + 4 // large enough that every visible doc ranks

	// Prime the similarity cache at the base epoch.
	if _, err := sess.Similar(context.Background(), 0, k); err != nil {
		t.Fatal(err)
	}

	// Seal doc x (a duplicate of doc 0's text, so it scores at the top) into
	// its own segment, then a second segment so compaction has work to do.
	x, err := st.Add(miniDocs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Add(miniDocs[3]); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if vec, ok := st.SignatureOf(x); !ok || vec == nil {
		t.Fatal("ingested doc has no signature; the scenario needs a scorable one")
	}
	if err := st.Delete(x); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if v := st.viewNow(); v.tombs[x] {
		t.Fatal("compaction kept the tombstone; the regression needs it dropped")
	}

	hits, err := sess.Similar(context.Background(), 0, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.Doc == x {
			t.Fatalf("deleted doc %d resurrected by the incremental refresh: %v", x, hits)
		}
	}
	if srv.Stats().SimRefreshes == 0 {
		t.Fatal("a full rescan answered the query; the refresh path was not exercised")
	}
	// The patched answer equals a cold full scan.
	cold, err := newServerT(t, st, Config{}).NewSession().Similar(context.Background(), 0, k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hits, cold) {
		t.Fatalf("refreshed answer %v differs from cold scan %v", hits, cold)
	}
}

// TestPersistedNextDocNeverReusesIDs pins the ID high-water mark across
// persistence: delete every ingested document and compact, and the segments
// and tombstones that recorded the assigned IDs are all gone — only the
// manifest's NextDoc mark keeps a reloaded set from re-assigning them.
func TestPersistedNextDocNeverReusesIDs(t *testing.T) {
	st := buildStoreT(t, 2)
	shards, err := st.Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		sh.SetLivePolicy(LivePolicy{SealDocs: 2, CompactSegments: 100, ManualCompaction: true})
	}
	router, err := NewRouter(shards, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sess := router.NewSession()
	first, last := int64(-1), int64(-1)
	for i := 0; i < 8; i++ {
		doc, err := sess.Add(context.Background(), fmt.Sprintf("apple banana %d", i))
		if err != nil {
			t.Fatal(err)
		}
		if first < 0 {
			first = doc
		}
		last = doc
	}
	if err := router.FlushLive(context.Background()); err != nil {
		t.Fatal(err)
	}
	for d := first; d <= last; d++ {
		if err := sess.Delete(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	if err := router.CompactLive(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, sh := range shards {
		if sh.LiveSegments() != 0 || len(sh.viewNow().tombs) != 0 {
			t.Fatalf("shard %d still carries segments/tombstones; the scenario needs them compacted away", i)
		}
	}

	dir := t.TempDir()
	manifest := filepath.Join(dir, "set.live")
	if err := router.SaveLive(context.Background(), manifest); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing but the mark is live, and the mark alone must force v2.
	if !bytes.HasPrefix(data, []byte(manifestMagicV2)) {
		t.Fatalf("manifest magic %q: the ID high-water mark was not persisted", data[:12])
	}

	_, loaded, err := LoadShards(manifest)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := NewRouter(loaded, Config{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := reloaded.NewSession().Add(context.Background(), "apple fresh")
	if err != nil {
		t.Fatal(err)
	}
	if doc != last+1 {
		t.Fatalf("reloaded router assigned doc %d, want %d (deleted IDs are never reused)", doc, last+1)
	}
}

// TestOutOfOrderAddsAndRetiredIDs pins the retirement-floor semantics: the
// router assigns global IDs atomically but concurrent sessions' appends can
// reach a shard out of ID order, so a later-assigned ID landing first must
// not retire an earlier one still in flight — while genuinely retired IDs
// (tombstones dropped by compaction together with their data) reject
// forever.
func TestOutOfOrderAddsAndRetiredIDs(t *testing.T) {
	st := buildStoreT(t, 2).Fork()
	st.SetLivePolicy(LivePolicy{SealDocs: 2, CompactSegments: 100, ManualCompaction: true})
	base := st.TotalDocs
	// The later-assigned ID lands first (the concurrent routed-add shape).
	if err := st.AddCounts(base+3, map[int64]int64{0: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.AddCounts(base, map[int64]int64{0: 1}, nil); err != nil {
		t.Fatalf("out-of-order add below the rolling high-water rejected: %v", err)
	}
	if err := st.AddCounts(base+1, map[int64]int64{0: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.AddCounts(base+2, map[int64]int64{0: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.AddCounts(base, map[int64]int64{0: 1}, nil); err == nil {
		t.Fatal("duplicate ingested ID accepted")
	}
	if st.LiveSegments() != 2 {
		t.Fatalf("expected 2 sealed segments, got %d", st.LiveSegments())
	}
	// Delete the highest ID and compact it away: the tombstone drops with
	// the data, and the retired set must remember exactly that ID — while a
	// lower, never-used ID whose routed add is still in flight stays
	// addable.
	if err := st.Delete(base + 3); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if len(st.viewNow().tombs) != 0 {
		t.Fatal("compaction kept the tombstone; the scenario needs it dropped")
	}
	if err := st.AddCounts(base+3, map[int64]int64{0: 1}, nil); err == nil {
		t.Fatal("compacted-away retired ID reused")
	}
	doc, err := st.Add("apple fresh")
	if err != nil {
		t.Fatal(err)
	}
	if doc != base+4 {
		t.Fatalf("next self-assigned add got %d, want %d", doc, base+4)
	}
	// The in-flight shape again, past a retired ID: a routed add assigned
	// base+5 lands after base+6 was already ingested, deleted and compacted
	// away on this shard — base+5 must still go through.
	if err := st.AddCounts(base+6, map[int64]int64{0: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(base + 6); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.AddCounts(base+5, map[int64]int64{0: 1}, nil); err != nil {
		t.Fatalf("in-flight ID below a compaction-retired one rejected: %v", err)
	}
	if err := st.AddCounts(base+6, map[int64]int64{0: 1}, nil); err == nil {
		t.Fatal("compacted-away retired ID reused after later adds")
	}

	// A rebase folds the retired IDs into persistent holes.
	if err := st.Rebase(); err != nil {
		t.Fatal(err)
	}
	for _, hole := range []int64{base + 3, base + 6} {
		found := false
		for _, d := range st.Holes {
			if d == hole {
				found = true
			}
		}
		if !found {
			t.Fatalf("retired ID %d not folded into holes %v", hole, st.Holes)
		}
	}
}

// TestRebaseLeavesHolesAbsent pins the hole semantics of a rebase that
// dropped deletions: the retired IDs stay covered by the high-water mark
// (never reused) but must read as absent — not as live base documents that
// inflate LiveDocs, accept a second Delete, or shard.
func TestRebaseLeavesHolesAbsent(t *testing.T) {
	st := buildStoreT(t, 2).Fork()
	st.SetLivePolicy(LivePolicy{SealDocs: 100, CompactSegments: 100, ManualCompaction: true})
	base := st.LiveDocs()
	doc, err := st.Add("apple banana transient")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(doc); err != nil {
		t.Fatal(err)
	}
	if err := st.Rebase(); err != nil {
		t.Fatal(err)
	}
	if got := st.LiveDocs(); got != base {
		t.Fatalf("LiveDocs after rebase = %d, want %d (hole counted as live)", got, base)
	}
	if err := st.Delete(doc); err == nil {
		t.Fatal("deleting a rebased-away hole accepted")
	}
	if err := st.AddAt(doc, "resurrection"); err == nil {
		t.Fatal("hole ID reused")
	}
	if _, err := st.Shard(2); err == nil {
		t.Fatal("holey store sharded")
	}
	next, err := st.Add("apple fresh")
	if err != nil {
		t.Fatal(err)
	}
	if next != doc+1 {
		t.Fatalf("next add assigned %d, want %d", next, doc+1)
	}

	// The holes persist: flush, rebase again, save, reload.
	if err := st.Rebase(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "holey.store")
	if err := st.SaveFile(file); err != nil {
		t.Fatal(err)
	}
	back, err := LoadStoreFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.LiveDocs(); got != base+1 {
		t.Fatalf("reloaded LiveDocs = %d, want %d", got, base+1)
	}
	if err := back.Delete(doc); err == nil {
		t.Fatal("reloaded store accepted deleting a hole")
	}
	if err := back.Delete(next); err != nil {
		t.Fatalf("reloaded store rejects a real document: %v", err)
	}
}

// TestLoadShardsBackfillsLegacyRoutingMetadata pins the routing-metadata
// contract of a persisted set: every shard file records its partition, a
// reloaded set ingests and deletes against the recorded global ID space, and
// a shard file whose recorded partition disagrees with the manifest — or
// that records none, a monolithic store listed as a shard — is refused
// rather than silently misrouted.
func TestLoadShardsBackfillsLegacyRoutingMetadata(t *testing.T) {
	st := buildStoreT(t, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, "set.shards")
	if err := st.SaveShards(path, 2); err != nil {
		t.Fatal(err)
	}
	man, loaded, err := LoadShards(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range loaded {
		if sh.ShardCount != 2 || sh.ShardIndex != i || sh.GlobalDocs != st.TotalDocs {
			t.Fatalf("shard %d routing metadata lost: count=%d index=%d global=%d",
				i, sh.ShardCount, sh.ShardIndex, sh.GlobalDocs)
		}
	}
	router, err := NewRouter(loaded, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sess := router.NewSession()
	doc, err := sess.Add(context.Background(), "apple banana reloaded")
	if err != nil {
		t.Fatal(err)
	}
	if doc != st.TotalDocs {
		t.Fatalf("reloaded set assigned doc %d, want %d (must not collide with base documents)", doc, st.TotalDocs)
	}
	// The highest base doc is deletable (the dense per-shard rule would call
	// any base ID >= the shard's own count unknown).
	if err := sess.Delete(context.Background(), st.TotalDocs-1); err != nil {
		t.Fatal(err)
	}

	shard0 := filepath.Join(dir, man.Shards[0].File)
	for name, tc := range map[string]struct {
		count int
		want  string
	}{
		"disagrees": {3, "3-way partition, manifest says 2"},
		"none":      {0, "records no partition"},
	} {
		bad, err := LoadStoreFileHeap(shard0)
		if err != nil {
			t.Fatal(err)
		}
		bad.ShardCount, bad.ShardIndex, bad.GlobalDocs = tc.count, 0, st.TotalDocs
		if err := bad.SaveFile(shard0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadShards(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("partition %s: LoadShards error %v, want one naming %q", name, err, tc.want)
		}
	}
}

// TestIngestVisibilityFollowsSeals checks the refresh-lag contract: buffered
// adds are invisible until the delta seals (threshold or Flush), and every
// interaction after the swap sees them.
func TestIngestVisibilityFollowsSeals(t *testing.T) {
	st := buildStoreT(t, 2).Fork()
	st.SetLivePolicy(LivePolicy{SealDocs: 3, CompactSegments: 100, ManualCompaction: true})
	srv := newServerT(t, st, Config{})
	sess := srv.NewSession()
	base := sess.DF(context.Background(), "apple")

	if _, err := st.Add("apple apple kiwi quarterly"); err != nil {
		t.Fatal(err)
	}
	if st.PendingDocs() != 1 {
		t.Fatalf("pending %d", st.PendingDocs())
	}
	if got := sess.DF(context.Background(), "apple"); got != base {
		t.Fatalf("buffered add already visible: DF %d", got)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sess.DF(context.Background(), "apple"); got != base+1 {
		t.Fatalf("flushed add invisible: DF %d, want %d", got, base+1)
	}
	// The new doc answers boolean queries merged with the base: apple lives
	// in base docs {0,1,2} and kiwi only in base doc 5, so the conjunction
	// can only be satisfied inside the ingested segment.
	docs := sess.And(context.Background(), "apple", "kiwi")
	if len(docs) != 1 || docs[0] != st.TotalDocs {
		t.Fatalf("And over base+segment = %v", docs)
	}
	// Out-of-vocabulary terms ("quarterly" is not in the mini vocabulary)
	// are dropped, not indexed: the vocabulary is frozen at snapshot time.
	if got := sess.DF(context.Background(), "quarterly"); got != 0 {
		t.Fatalf("OOV term got DF %d", got)
	}

	// Auto-seal at the threshold: the third add trips it.
	for i := 0; i < 3; i++ {
		if _, err := st.Add(fmt.Sprintf("banana cargo %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if st.PendingDocs() != 0 {
		t.Fatalf("auto-seal did not fire: pending %d", st.PendingDocs())
	}
	if got, want := sess.DF(context.Background(), "banana"), int64(2+3); got != want {
		t.Fatalf("DF after auto-seal = %d, want %d", got, want)
	}
}

// TestDeletePendingDocSealsFirst pins the delete-of-a-buffered-doc contract:
// the delta seals so the tombstone targets a visible document, and the live
// document count stays exact.
func TestDeletePendingDocSealsFirst(t *testing.T) {
	st := buildStoreT(t, 2).Fork()
	st.SetLivePolicy(LivePolicy{SealDocs: 100, CompactSegments: 100, ManualCompaction: true})
	base := st.LiveDocs()
	doc, err := st.Add("apple banana transient")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(doc); err != nil {
		t.Fatal(err)
	}
	if st.PendingDocs() != 0 {
		t.Fatalf("delete left %d pending docs", st.PendingDocs())
	}
	if got := st.LiveDocs(); got != base {
		t.Fatalf("LiveDocs = %d, want %d", got, base)
	}
	if err := st.Delete(doc); err == nil {
		t.Fatal("double delete accepted")
	}
}

// TestApplySignaturesRejectsDimMismatchWithLiveState pins the dimensionality
// guard: a set of a different M cannot land while segments carry vectors of
// the old dimensionality, or while the ingest projection maps into it.
func TestApplySignaturesRejectsDimMismatchWithLiveState(t *testing.T) {
	st := buildStoreT(t, 2).Fork()
	st.SetLivePolicy(LivePolicy{SealDocs: 1, CompactSegments: 100, ManualCompaction: true})
	if _, err := st.Add("apple banana"); err != nil {
		t.Fatal(err)
	}
	other, err := signature.NewSet(st.SigM+3, []int64{0}, [][]float64{make([]float64, st.SigM+3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ApplySignatures(other); err == nil {
		t.Fatal("dimensionality change accepted over live segments")
	}
	if err := st.Rebase(); err != nil {
		t.Fatal(err)
	}
	// Even rebased, the frozen projection still maps into the old space.
	if st.Proj != nil {
		if err := st.ApplySignatures(other); err == nil {
			t.Fatal("dimensionality change accepted despite the ingest projection")
		}
	}
}

// TestApplySignaturesReachesRunningServers locks in the epoch-swap fix: a
// signature set applied to the store is visible to servers built before the
// swap, on their very next interaction, and the similarity caches cannot
// serve stale merges across it.
func TestApplySignaturesReachesRunningServers(t *testing.T) {
	st := buildStoreT(t, 2).Fork()
	srv := newServerT(t, st, Config{})
	sess := srv.NewSession()
	before, err := sess.Similar(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}

	// A permuted set: every doc gets the signature of the next signed doc,
	// so the nearest-neighbour structure genuinely changes.
	docs := append([]int64(nil), st.SigDocs...)
	vecs := make([][]float64, len(st.SigVecs))
	var signed []int
	for i, v := range st.SigVecs {
		if v != nil {
			signed = append(signed, i)
		}
	}
	if len(signed) < 2 {
		t.Skip("not enough signed docs to permute")
	}
	for j, i := range signed {
		vecs[i] = st.SigVecs[signed[(j+1)%len(signed)]]
	}
	permuted, err := signature.NewSet(st.SigM, docs, vecs)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ApplySignatures(permuted); err != nil {
		t.Fatal(err)
	}
	after, err := sess.Similar(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(before, after) {
		t.Fatal("running server still answers from the old signature set")
	}
	// A fresh server agrees with the running one — no construction-time
	// capture anymore.
	fresh, err := newServerT(t, st, Config{}).NewSession().Similar(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, fresh) {
		t.Fatalf("running server %v, fresh server %v", after, fresh)
	}
}

// TestApplySignaturesConcurrentWithSimilar races signature swaps against
// similarity queries (run under -race in CI): every answer must equal the
// result of one of the two sets — never a blend — and nothing may error.
func TestApplySignaturesConcurrentWithSimilar(t *testing.T) {
	st := buildStoreT(t, 2).Fork()
	setA := st.Signatures()
	docs := append([]int64(nil), setA.Docs...)
	vecs := make([][]float64, len(setA.Vecs))
	var signed []int
	for i, v := range setA.Vecs {
		if v != nil {
			signed = append(signed, i)
		}
	}
	for j, i := range signed {
		vecs[i] = setA.Vecs[signed[(j+1)%len(signed)]]
	}
	setB, err := signature.NewSet(st.SigM, docs, vecs)
	if err != nil {
		t.Fatal(err)
	}

	srv := newServerT(t, st, Config{})
	wantA, err := srv.NewSession().Similar(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ApplySignatures(setB); err != nil {
		t.Fatal(err)
	}
	wantB, err := srv.NewSession().Similar(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}

	var appliers, queriers sync.WaitGroup
	stop := make(chan struct{})
	appliers.Add(1)
	go func() {
		defer appliers.Done()
		sets := []*signature.Set{setA, setB}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.ApplySignatures(sets[i%2]); err != nil {
				t.Errorf("apply: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		queriers.Add(1)
		go func() {
			defer queriers.Done()
			sess := srv.NewSession()
			for i := 0; i < 200; i++ {
				got, err := sess.Similar(context.Background(), 0, 3)
				if err != nil {
					t.Errorf("similar: %v", err)
					return
				}
				if !reflect.DeepEqual(got, wantA) && !reflect.DeepEqual(got, wantB) {
					t.Errorf("blended answer: %v", got)
					return
				}
			}
		}()
	}
	queriers.Wait()
	close(stop)
	appliers.Wait()
}

// TestBackgroundCompactionKeepsServing exercises the auto-seal +
// background-compaction path under concurrent queries (meaningful under
// -race): ingestion proceeds, queries never block or err, and the segment
// count stays bounded.
func TestBackgroundCompactionKeepsServing(t *testing.T) {
	sources := ingestSources()
	st := batchStore(t, sources, 2)
	texts := recordTexts(t, sources)

	live := st.EmptyCopy()
	live.SetLivePolicy(LivePolicy{SealDocs: 4, CompactSegments: 3})
	srv := newServerT(t, live, Config{})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := srv.NewSession()
			terms := queryTerms(st)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sess.DF(context.Background(), terms[i%len(terms)])
				sess.And(context.Background(), terms[i%len(terms)], terms[(i+3)%len(terms)])
				sess.Or(context.Background(), terms[i%len(terms)], terms[(i+7)%len(terms)])
			}
		}(g)
	}
	ingester := srv.NewSession()
	for _, text := range texts {
		if _, err := ingester.Add(context.Background(), text); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := live.Flush(); err != nil {
		t.Fatal(err)
	}
	live.WaitCompaction()

	s := srv.Stats()
	if s.Seals == 0 || s.Compactions == 0 {
		t.Fatalf("background machinery idle: %+v", s)
	}
	// After a final explicit compaction the store agrees with the batch run.
	if err := live.Compact(); err != nil {
		t.Fatal(err)
	}
	agreeQueries(t, "post-compaction", newServerT(t, st, Config{}).NewSession(),
		srv.NewSession(), queryTerms(st), st.SampleDocs(4))
}

// TestLiveSetPersistence round-trips live state through disk: a sharded set
// with sealed segments and tombstones saves behind an INSPSHARDS2 manifest
// and reloads answering identically; a single live store rebases into an
// ordinary INSPSTORE2 file.
func TestLiveSetPersistence(t *testing.T) {
	sources := ingestSources()
	sort.Slice(sources, func(i, j int) bool { return sources[i].Name < sources[j].Name })
	st := batchStore(t, sources, 2)
	texts := recordTexts(t, sources)
	dir := t.TempDir()

	// Sharded: batch-index a name-ordered prefix of the corpus as the base,
	// ingest the rest through the router, delete a few docs, save, reload.
	baseSt := batchStore(t, sources[:2], 2)
	half := len(recordTexts(t, sources[:2]))
	shards, err := baseSt.Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		sh.SetLivePolicy(LivePolicy{SealDocs: 4, CompactSegments: 100, ManualCompaction: true})
	}
	router, err := NewRouter(shards, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sess := router.NewSession()
	for i := half; i < len(texts); i++ {
		if _, err := sess.Add(context.Background(), texts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Delete(context.Background(), int64(half)+1); err != nil {
		t.Fatal(err)
	}
	if err := sess.Delete(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "set.live")
	if err := router.SaveLive(context.Background(), manifest); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("INSPSHARDS2\n")) {
		t.Fatalf("live manifest magic %q", data[:12])
	}

	_, loaded, err := LoadShards(manifest)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := NewRouter(loaded, Config{})
	if err != nil {
		t.Fatal(err)
	}
	terms := queryTerms(st)
	simDocs := baseSt.SampleDocs(4)
	agreeQueries(t, "reloaded live set", router.NewSession(), reloaded.NewSession(), terms, simDocs)

	// The generic service loader serves it too.
	svc, err := LoadServiceFile(manifest, Config{})
	if err != nil {
		t.Fatal(err)
	}
	agreeQueries(t, "LoadServiceFile live set", router.NewSession(), svc.NewQuerier(), terms, simDocs)

	// Single store: ingest, delete, SaveLive rebases to one INSPSTORE2 file.
	single := baseSt.Fork()
	single.SetLivePolicy(LivePolicy{SealDocs: 8, CompactSegments: 100, ManualCompaction: true})
	srv := newServerT(t, single, Config{})
	s2 := srv.NewSession()
	for i := half; i < len(texts); i++ {
		if _, err := s2.Add(context.Background(), texts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Delete(context.Background(), int64(half)+1); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "single.store")
	if err := srv.SaveLive(context.Background(), file); err != nil {
		t.Fatal(err)
	}
	back, err := LoadStoreFile(file)
	if err != nil {
		t.Fatal(err)
	}
	agreeQueries(t, "rebased single store", srv.NewSession(),
		newServerT(t, back, Config{}).NewSession(), terms, simDocs)
}

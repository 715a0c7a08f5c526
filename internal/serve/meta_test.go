package serve

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"inspire/internal/tiles"
)

// docMetaRow is the test's own record of one document's stamped metadata —
// the independent ground truth the brute-force filter checks resolve
// against, deliberately not the store's resolution path.
type docMetaRow struct {
	ts     int64
	facets []string
}

// stampMetaT installs deterministic metadata on every signature-bearing base
// document and returns the ground-truth table.
func stampMetaT(t *testing.T, st *Store) map[int64]docMetaRow {
	t.Helper()
	set := st.Signatures()
	truth := make(map[int64]docMetaRow, len(set.Docs))
	docs := append([]int64(nil), set.Docs...)
	times := make([]int64, len(docs))
	rows := make([][]string, len(docs))
	for i, d := range docs {
		times[i] = 1000 + d*10
		rows[i] = []string{
			fmt.Sprintf("source=s%d", d%3),
			fmt.Sprintf("lang=l%d", d%2),
		}
		truth[d] = docMetaRow{ts: times[i], facets: append([]string(nil), rows[i]...)}
	}
	if err := st.SetBaseMeta(docs, times, rows); err != nil {
		t.Fatal(err)
	}
	return truth
}

// probeFilters is the filter palette the equivalence tests sweep: empty,
// time-only, single facet, facet conjunction, combined, and one that can
// match nothing.
func probeFilters() []Filter {
	return []Filter{
		{},
		{After: 1015, Before: 1085},
		{Facets: []string{"source=s1"}},
		{Facets: []string{"lang=l0", "source=s2"}},
		{After: 1025, Facets: []string{"lang=l1"}},
		{Facets: []string{"source=s99"}},
	}
}

// metaMatches is the brute-force predicate, written against the documented
// semantics rather than the serving code: inclusive time bounds that an
// untimestamped document always fails, and facets that must all be present.
func metaMatches(f Filter, row docMetaRow) bool {
	if f.After != 0 || f.Before != 0 {
		if row.ts == 0 || (f.After != 0 && row.ts < f.After) || (f.Before != 0 && row.ts > f.Before) {
			return false
		}
	}
	for _, w := range f.Facets {
		found := false
		for _, h := range row.facets {
			if h == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func bruteFilter(f Filter, truth map[int64]docMetaRow, docs []int64) []int64 {
	out := make([]int64, 0, len(docs))
	for _, d := range docs {
		if metaMatches(f, truth[d]) {
			out = append(out, d)
		}
	}
	return out
}

func TestSetBaseMetaValidates(t *testing.T) {
	st := buildStoreT(t, 2)
	row := [][]string{{"k=v"}}
	if err := st.SetBaseMeta([]int64{0, 1}, []int64{5}, [][]string{nil, nil}); err == nil {
		t.Fatal("mismatched vector lengths accepted")
	}
	if err := st.SetBaseMeta([]int64{-1}, []int64{5}, row); err == nil {
		t.Fatal("negative doc ID accepted")
	}
	if err := st.SetBaseMeta([]int64{2, 2}, []int64{5, 6}, [][]string{{"k=v"}, {"k=w"}}); err == nil {
		t.Fatal("duplicate doc ID accepted")
	}
	if err := st.SetBaseMeta([]int64{0}, []int64{5}, [][]string{{"no-equals"}}); err == nil {
		t.Fatal("malformed facet accepted")
	}
	if err := st.SetBaseMeta([]int64{0}, []int64{5}, [][]string{{"=v"}}); err == nil {
		t.Fatal("empty facet key accepted")
	}

	// Unsorted input with duplicate facet strings installs normalized.
	if err := st.SetBaseMeta([]int64{1, 0}, []int64{20, 10}, [][]string{{"b=2", "a=1", "b=2"}, {"c=3"}}); err != nil {
		t.Fatal(err)
	}
	if ts, facets := st.viewNow().docMeta(0); ts != 10 || !reflect.DeepEqual(facets, []string{"c=3"}) {
		t.Fatalf("doc 0 meta = (%d, %v)", ts, facets)
	}
	if ts, facets := st.viewNow().docMeta(1); ts != 20 || !reflect.DeepEqual(facets, []string{"a=1", "b=2"}) {
		t.Fatalf("doc 1 meta = (%d, %v), want dedup+sorted", ts, facets)
	}

	// Zero rows are the canonical "no metadata" and are dropped.
	if err := st.SetBaseMeta([]int64{0}, []int64{0}, [][]string{nil}); err != nil {
		t.Fatal(err)
	}
	if len(st.Meta.Docs) != 0 {
		t.Fatalf("all-zero row kept %d metadata rows", len(st.Meta.Docs))
	}

	// Live state blocks the bulk path.
	if _, err := st.AddMeta("apple banana", 99, []string{"k=v"}); err != nil {
		t.Fatal(err)
	}
	if err := st.SetBaseMeta([]int64{0}, []int64{5}, row); err == nil {
		t.Fatal("SetBaseMeta accepted a store with live segments")
	}
}

func TestFilterValidation(t *testing.T) {
	st := buildStoreT(t, 2)
	srv := newServerT(t, st, Config{})
	ss := srv.NewSession()
	if err := ss.SetFilter(Filter{Facets: []string{"bare"}}); err == nil {
		t.Fatal("SetFilter accepted a facet without key=value form")
	}
	if err := ss.SetFilter(Filter{Facets: []string{"k=v", "a=b", "k=v"}}); err != nil {
		t.Fatal(err)
	}
	if got := ss.filter.Facets; !reflect.DeepEqual(got, []string{"a=b", "k=v"}) {
		t.Fatalf("session filter not normalized: %v", got)
	}
	if err := ss.SetFilter(Filter{}); err != nil {
		t.Fatal(err)
	}
	if !ss.filter.Empty() {
		t.Fatal("clearing the filter did not empty it")
	}
}

// TestFilteredQueriesMatchBruteForce pins the core semantics on a monolithic
// server with base metadata and live faceted ingest: every filtered read is
// exactly the unfiltered read with non-matching documents removed. A second
// input carries metadata in the base and in three sealed segments and is
// checked again after every fold of it — compaction, rebase, a 4-way shard
// split and a save/load.
func TestFilteredQueriesMatchBruteForce(t *testing.T) {
	st := batchStore(t, ingestSources(), 3).Fork()
	truth := stampMetaT(t, st)
	srv := newServerT(t, st, Config{TileMaxZoom: 4})

	plain := srv.NewSession()
	terms := st.TopTerms(10)
	docs := st.SampleDocs(6)

	// Live documents with segment-resident metadata, plus one bare document
	// (no timestamp, no facets) that must fail every bounded filter.
	ld, err := plain.AddDoc(context.Background(), terms[0]+" "+terms[1], 1042, []string{"source=s1", "live=yes"})
	if err != nil {
		t.Fatal(err)
	}
	truth[ld] = docMetaRow{ts: 1042, facets: []string{"live=yes", "source=s1"}}
	bare, err := plain.AddDoc(context.Background(), terms[0]+" "+terms[2], 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	truth[bare] = docMetaRow{}
	checkFilteredBruteForce(t, "live", srv, truth, terms, docs)

	// Base metadata plus three sealed segments of it: timestamped and
	// faceted rows, facet-only and time-only rows, and bare documents.
	st = batchStore(t, ingestSources(), 3).Fork()
	st.SetLivePolicy(LivePolicy{ManualCompaction: true})
	truth = stampMetaT(t, st)
	for seg := 0; seg < 3; seg++ {
		for i := 0; i < 5; i++ {
			ts, facets := 1000+int64(40*seg+7*i), []string{fmt.Sprintf("source=s%d", i%3), "live=yes"}
			switch i {
			case 3:
				ts = 0
			case 4:
				ts, facets = 0, nil
			}
			if seg == 1 && i == 2 {
				facets = nil
			}
			doc, err := st.AddMeta(terms[i]+" "+terms[i+seg+1], ts, facets)
			if err != nil {
				t.Fatal(err)
			}
			sorted, _ := normalizeFacets(facets)
			truth[doc] = docMetaRow{ts: ts, facets: sorted}
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{TileMaxZoom: 4}
	if n := st.LiveSegments(); n != 3 {
		t.Fatalf("%d sealed segments, want 3", n)
	}
	checkFilteredBruteForce(t, "three segments", newServerT(t, st, cfg), truth, terms, docs)
	if err := st.Compact(); err != nil || st.LiveSegments() != 1 {
		t.Fatalf("compact: %v, %d segments left", err, st.LiveSegments())
	}
	checkFilteredBruteForce(t, "compacted", newServerT(t, st, cfg), truth, terms, docs)
	if err := st.Rebase(); err != nil || st.LiveSegments() != 0 {
		t.Fatalf("rebase: %v, %d segments left", err, st.LiveSegments())
	}
	checkFilteredBruteForce(t, "rebased", newServerT(t, st, cfg), truth, terms, docs)
	checkFilteredBruteForce(t, "4 shards", serviceOf(t, st, 4, cfg), truth, terms, docs)
	loaded, err := LoadStoreFile(saveV4T(t, st, "brute.store"))
	if err != nil {
		t.Fatal(err)
	}
	checkFilteredBruteForce(t, "loaded", newServerT(t, loaded, cfg), truth, terms, docs)
}

// checkFilteredBruteForce holds every filtered read of svc to the unfiltered
// read with the documents truth says fail the filter removed.
func checkFilteredBruteForce(t *testing.T, input string, svc Service, truth map[int64]docMetaRow, terms []string, docs []int64) {
	t.Helper()
	plain := svc.NewQuerier()
	for fi, f := range probeFilters() {
		filtered := svc.NewQuerier()
		if err := filtered.SetFilter(f); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%s: filter %d (%+v)", input, fi, f)
		ctx := context.Background()

		for _, tm := range terms {
			all := plain.TermDocs(ctx, tm)
			want := all[:0:0]
			for _, p := range all {
				if metaMatches(f, truth[p.Doc]) {
					want = append(want, p)
				}
			}
			if got := filtered.TermDocs(ctx, tm); !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: TermDocs(%q) = %v, brute force %v", label, tm, got, want)
			}
			// DF stays a corpus-wide descriptor, deliberately unfiltered.
			if got, wantDF := filtered.DF(ctx, tm), plain.DF(ctx, tm); got != wantDF {
				t.Fatalf("%s: DF(%q) = %d, want unfiltered %d", label, tm, got, wantDF)
			}
		}
		for i := 1; i < len(terms); i++ {
			pair := []string{terms[i-1], terms[i]}
			want := bruteFilter(f, truth, plain.And(ctx, pair...))
			if got := filtered.And(ctx, pair...); !sameDocs(got, want) {
				t.Fatalf("%s: And(%v) = %v, brute force %v", label, pair, got, want)
			}
			wantOr := bruteFilter(f, truth, plain.Or(ctx, pair...))
			if got := filtered.Or(ctx, pair...); !sameDocs(got, wantOr) {
				t.Fatalf("%s: Or(%v) = %v, brute force %v", label, pair, got, wantOr)
			}
		}
		for c := 0; c < svc.NumThemes(); c++ {
			want := bruteFilter(f, truth, plain.ThemeDocs(ctx, c))
			if got := filtered.ThemeDocs(ctx, c); !sameDocs(got, want) {
				t.Fatalf("%s: ThemeDocs(%d) = %v, brute force %v", label, c, got, want)
			}
		}
		// Similar: the filtered ranking is the unfiltered ranking with
		// non-matching hits removed, order and scores intact.
		for _, d := range docs {
			all, err := plain.Similar(ctx, d, 50)
			if err != nil {
				t.Fatal(err)
			}
			got, err := filtered.Similar(ctx, d, 50)
			if err != nil {
				t.Fatal(err)
			}
			kept := all[:0:0]
			for _, h := range all {
				if metaMatches(f, truth[h.Doc]) {
					kept = append(kept, h)
				}
			}
			if !(len(got) == 0 && len(kept) == 0) && !reflect.DeepEqual(got, kept) {
				t.Fatalf("%s: Similar(%d) = %v, brute force %v", label, d, got, kept)
			}
		}
		want := bruteFilter(f, truth, plain.Near(ctx, 0, 0, 1e9))
		if got := filtered.Near(ctx, 0, 0, 1e9); !sameDocs(got, want) {
			t.Fatalf("%s: Near(all) = %v, brute force %v", label, got, want)
		}
	}
}

// sameDocs compares two doc lists treating nil and empty as equal — a
// filtered answer that removed everything may be nil where the brute-force
// list is an allocated empty slice.
func sameDocs(a, b []int64) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// TestFilterEquivalenceAcrossModes requires byte-identical filtered answers
// from every store mode: heap-decoded, mapped, freshly indexed (never
// persisted), and a 3-shard router over the mapped store.
func TestFilterEquivalenceAcrossModes(t *testing.T) {
	base := batchStore(t, ingestSources(), 3)
	stampMetaT(t, base)
	path := saveV4T(t, base, "meta-eq.store")

	mappedStore, err := LoadStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	heapStore, err := loadStoreHeap(path)
	if err != nil {
		t.Fatal(err)
	}
	if !mappedStore.Mapped() {
		t.Fatal("v4 store did not map")
	}

	shardSrc, err := LoadStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TileMaxZoom: 4, PostingCacheEntries: 8}
	ref := serviceOf(t, heapStore, 1, cfg)
	others := map[string]Service{
		"mapped":    serviceOf(t, mappedStore, 1, cfg),
		"fresh":     serviceOf(t, base.Fork(), 1, cfg),
		"sharded-3": serviceOf(t, shardSrc, 3, cfg),
	}

	terms := ref.TopTerms(context.Background(), 8)
	docs := ref.SampleDocs(context.Background(), 4)
	themes := ref.NumThemes()
	for fi, f := range probeFilters() {
		want := ref.NewQuerier()
		if err := want.SetFilter(f); err != nil {
			t.Fatal(err)
		}
		for mode, svc := range others {
			got := svc.NewQuerier()
			if err := got.SetFilter(f); err != nil {
				t.Fatal(err)
			}
			compareQueriers(t, fmt.Sprintf("filter %d vs %s", fi, mode), got, want, terms, docs, themes)
		}
	}
}

// TestTileHistogramsIncrementalMatchRebuild pins the faceted tile contract:
// the per-tile time histograms and facet counts an incrementally maintained
// pyramid carries stay byte-identical to an offline rebuild across seal,
// compact and rebase, with concurrent faceted ingest under the race
// detector, and a filtered tile equals the tile of a filtered pyramid.
func TestTileHistogramsIncrementalMatchRebuild(t *testing.T) {
	sources := ingestSources()
	st := batchStore(t, sources, 3).Fork()
	truth := stampMetaT(t, st)
	texts := recordTexts(t, sources)
	st.SetLivePolicy(LivePolicy{SealDocs: 5, CompactSegments: 3, ManualCompaction: true})
	cfg := Config{TileMaxZoom: 4}
	srv := newServerT(t, st, cfg)
	tc := srv.cfg.tileConfig()
	sess := srv.NewSession()
	ctx := context.Background()
	filter := Filter{Facets: []string{"source=s1"}}

	check := func(label string) {
		t.Helper()
		sess.Near(ctx, 0, 0, 0.5) // patch the pyramid forward
		inc := pyramidBytes(st, tc)
		resetPyramid(st)
		if rebuilt := pyramidBytes(st, tc); !reflect.DeepEqual(inc, rebuilt) {
			t.Fatalf("%s: incremental pyramid differs from rebuild", label)
		}

		// The root tile's histograms must agree with the ground truth over
		// every live document.
		root, err := sess.Tile(ctx, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantTimes := map[int64]int64{}
		fc := map[string]int64{}
		liveDocs := sess.Near(ctx, 0, 0, 1e9)
		for _, d := range liveDocs {
			row := truth[d]
			if row.ts != 0 {
				wantTimes[tiles.TimeBucket(row.ts)]++
			}
			for _, s := range row.facets {
				fc[s]++
			}
		}
		gotTimes := map[int64]int64{}
		for _, b := range root.Times {
			gotTimes[b.Bucket] = b.Docs
		}
		if !reflect.DeepEqual(wantTimes, gotTimes) {
			t.Fatalf("%s: root time histogram %v, ground truth %v", label, gotTimes, wantTimes)
		}
		keys := make([]string, 0, len(fc))
		for k := range fc {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		wantFacets := make([]tiles.FacetCount, len(keys))
		for i, k := range keys {
			wantFacets[i] = tiles.FacetCount{Facet: k, Docs: fc[k]}
		}
		if !(len(root.Facets) == 0 && len(wantFacets) == 0) && !reflect.DeepEqual(root.Facets, wantFacets) {
			t.Fatalf("%s: root facet counts %v, ground truth %v", label, root.Facets, wantFacets)
		}

		// A filtered tile carries exactly the matching documents' aggregates.
		fs := srv.NewSession()
		if err := fs.SetFilter(filter); err != nil {
			t.Fatal(err)
		}
		froot, err := fs.Tile(ctx, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		var wantDocs int64
		for _, d := range liveDocs {
			if metaMatches(filter, truth[d]) {
				wantDocs++
			}
		}
		if froot.Docs != wantDocs {
			t.Fatalf("%s: filtered root tile has %d docs, ground truth %d", label, froot.Docs, wantDocs)
		}
	}

	check("pristine")

	// Faceted live ingest races tile reads; the race detector is the
	// assertion mid-flight, equality after the dust settles.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		q := srv.NewSession()
		_ = q.SetFilter(filter)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = q.Tile(ctx, 0, 0, 0)
		}
	}()
	var added []int64
	for i := 0; i < 12; i++ {
		ts := int64(2000 + i*10)
		facets := []string{fmt.Sprintf("source=s%d", i%3), "live=yes"}
		doc, err := sess.AddDoc(ctx, texts[i%len(texts)], ts, facets)
		if err != nil {
			t.Fatal(err)
		}
		truth[doc] = docMetaRow{ts: ts, facets: []string{"live=yes", fmt.Sprintf("source=s%d", i%3)}}
		added = append(added, doc)
	}
	close(stop)
	wg.Wait()
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	check("sealed")

	if err := sess.Delete(ctx, added[3]); err != nil {
		t.Fatal(err)
	}
	delete(truth, added[3])
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	st.WaitCompaction()
	check("compacted")

	if err := st.Rebase(); err != nil {
		t.Fatal(err)
	}
	check("rebased")

	// Rebase folded segment metadata into the base vectors; the rows must
	// have survived verbatim.
	for _, d := range added {
		if d == added[3] {
			continue
		}
		row := truth[d]
		ts, facets := st.viewNow().docMeta(d)
		if ts != row.ts || !reflect.DeepEqual(facets, row.facets) {
			t.Fatalf("rebase lost doc %d metadata: (%d, %v), want (%d, %v)", d, ts, facets, row.ts, row.facets)
		}
	}
}

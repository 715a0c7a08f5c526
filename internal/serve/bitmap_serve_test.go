package serve

// Acceptance tests for adaptive bitmap posting containers at the serving
// layer: a dense∧dense conjunction on a mapped INSPSTORE4 store must run
// word-wise over the aliased bitmap words — zero posting decodes, zero LRU
// traffic, at most the one result allocation — and every container-aware
// path must answer byte-identically to the block-skip reference across all
// store kinds (monolithic, sharded, mapped, heap, block-only).

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"inspire/internal/cluster"
	"inspire/internal/core"
	"inspire/internal/corpus"
	"inspire/internal/postings"
	"inspire/internal/simtime"
)

// denseCorpusDocs builds a corpus whose heavy terms exceed the bitmap
// density threshold: alphadense appears in every document, betadense in all
// but every 16th, while gammasparse and the filler terms stay well under
// BlockSize occurrences and remain block-coded. Mixed containers in one
// store is the point — conjunctions cross the representation boundary.
func denseCorpusDocs() []string {
	docs := make([]string, 200)
	for i := range docs {
		var sb strings.Builder
		sb.WriteString("alphadense")
		if i%16 != 0 {
			sb.WriteString(" betadense")
		}
		if i%40 == 0 {
			sb.WriteString(" gammasparse")
		}
		// Mid-frequency topical terms keep the signature/clustering stages
		// fed; the ubiquitous dense terms alone carry no thematic signal.
		fmt.Fprintf(&sb, " topic%d topic%d topic%d filler%d uniq%d", i%4, i%4, (i/50)%4, i%7, i)
		docs[i] = sb.String()
	}
	return docs
}

// buildDenseStoreT indexes the dense corpus and verifies the writer's
// container choices before handing the store to a test.
func buildDenseStoreT(t *testing.T, p int) *Store {
	t.Helper()
	src := corpus.FromTexts("dense", denseCorpusDocs())
	var st *Store
	_, err := cluster.Run(p, simtime.Zero(), func(c *cluster.Comm) error {
		res, err := core.Run(c, []*corpus.Source{src}, core.Config{})
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
	if st == nil {
		t.Fatal("no store from rank 0")
	}
	if !st.Posts.HasBitmaps() {
		t.Fatal("dense corpus produced no bitmap containers")
	}
	for _, term := range []string{"alphadense", "betadense"} {
		id, ok := st.TermID(term)
		if !ok || !st.Posts.IsBitmap(id) {
			t.Fatalf("%q did not land in a bitmap container", term)
		}
	}
	if id, ok := st.TermID("gammasparse"); !ok || st.Posts.IsBitmap(id) {
		t.Fatal("gammasparse should stay block-coded")
	}
	return st
}

// TestDenseAndBitmapKernelOnMappedStore pins the acceptance bar: dense∧dense
// AND on a mapped store executes the word-wise kernel with zero posting
// decodes, zero cache misses, and at most one allocation per warm call.
func TestDenseAndBitmapKernelOnMappedStore(t *testing.T) {
	st := buildDenseStoreT(t, 2)
	path := saveV4T(t, st, "dense.store")
	mapped, err := LoadStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.Mapped() {
		t.Fatal("v4 load is not mapped")
	}
	if !mapped.Posts.HasBitmaps() {
		t.Fatal("mapped store lost the bitmap containers")
	}
	srv := newServerT(t, mapped, Config{})
	sess := srv.NewSession()

	before := srv.Stats()
	got := sess.And(context.Background(), "alphadense", "betadense")
	after := srv.Stats()

	var want []int64
	for i := int64(0); i < 200; i++ {
		if i%16 != 0 {
			want = append(want, i)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dense And answered %d docs, want %d: %v", len(got), len(want), got)
	}
	if after.BitmapAnds != before.BitmapAnds+1 {
		t.Fatalf("BitmapAnds went %d -> %d, want +1", before.BitmapAnds, after.BitmapAnds)
	}
	if after.PostingMisses != before.PostingMisses {
		t.Fatalf("dense And fetched postings: misses %d -> %d", before.PostingMisses, after.PostingMisses)
	}
	if after.BlocksDecoded != before.BlocksDecoded || after.PartialFetches != before.PartialFetches {
		t.Fatalf("dense And decoded blocks: decoded %d -> %d, partial %d -> %d",
			before.BlocksDecoded, after.BlocksDecoded, before.PartialFetches, after.PartialFetches)
	}

	sess.And(context.Background(), "alphadense", "betadense") // settle scratch sizes
	allocs := testing.AllocsPerRun(200, func() { sess.And(context.Background(), "alphadense", "betadense") })
	if allocs > 1 {
		t.Fatalf("warm dense And allocates %v objects/op, want <= 1 (the result)", allocs)
	}
	final := srv.Stats()
	if final.BlocksDecoded != before.BlocksDecoded {
		t.Fatalf("steady-state dense And decoded %d blocks", final.BlocksDecoded-before.BlocksDecoded)
	}
	if final.BitmapAnds < after.BitmapAnds+200 {
		t.Fatalf("steady-state And left the bitmap kernel: %d kernels for 200+ calls", final.BitmapAnds-after.BitmapAnds)
	}
}

// TestBitmapProbeStatsOnMixedQuery pins the dense∧sparse path: the sparse
// side seeds the accumulator and the dense side is answered by per-doc bit
// probes, never a decode of the bitmap term.
func TestBitmapProbeStatsOnMixedQuery(t *testing.T) {
	st := buildDenseStoreT(t, 2)
	srv := newServerT(t, st, Config{})
	sess := srv.NewSession()

	before := srv.Stats()
	got := sess.And(context.Background(), "gammasparse", "betadense")
	after := srv.Stats()

	var want []int64
	for i := int64(0); i < 200; i += 40 {
		if i%16 != 0 {
			want = append(want, i)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed And = %v, want %v", got, want)
	}
	if after.BitmapProbes == before.BitmapProbes {
		t.Fatal("mixed And never bit-probed the dense term")
	}
	if after.BitmapAnds != before.BitmapAnds {
		t.Fatal("mixed And should not run the dense∧dense kernel")
	}
}

// TestBitmapAnswersAgreeAcrossStoreKinds is the correctness half of the
// acceptance bar: And/Or answers from every bitmap-carrying store kind are
// byte-identical to the block-skip reference (the same postings re-encoded
// block-only through a ForceBlocks writer).
func TestBitmapAnswersAgreeAcrossStoreKinds(t *testing.T) {
	st := buildDenseStoreT(t, 2)

	bw := postings.NewWriter(0)
	bw.ForceBlocks()
	for id := int64(0); id < st.VocabSize; id++ {
		if err := bw.Append(st.Postings(id)); err != nil {
			t.Fatal(err)
		}
	}
	blockStore := st.Fork()
	blockStore.Posts = bw.Finish()
	if blockStore.Posts.HasBitmaps() {
		t.Fatal("ForceBlocks writer still emitted a bitmap")
	}
	ref := newServerT(t, blockStore, Config{}).NewQuerier()

	path := saveV4T(t, st, "dense.store")
	mapped, err := LoadStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := loadStoreHeap(path)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.Posts.HasBitmaps() || !heap.Posts.HasBitmaps() {
		t.Fatal("v4 round trip lost the bitmap containers")
	}

	services := map[string]Service{
		"monolithic": serviceOf(t, st, 1, Config{}),
		"sharded":    serviceOf(t, st, 3, Config{}),
		"mapped":     serviceOf(t, mapped, 1, Config{}),
		"heap":       serviceOf(t, heap, 1, Config{}),
		"block-only": serviceOf(t, blockStore, 1, Config{}),
	}
	queries := [][]string{
		{"alphadense", "betadense"},
		{"betadense", "alphadense"},
		{"alphadense", "gammasparse"},
		{"gammasparse", "betadense"},
		{"filler0", "alphadense"},
		{"alphadense", "betadense", "gammasparse"},
		{"alphadense", "filler1", "betadense"},
		{"alphadense", "missingterm"},
		{"gammasparse", "filler2"},
	}
	for label, svc := range services {
		q := svc.NewQuerier()
		for _, qs := range queries {
			if got, want := q.And(context.Background(), qs...), ref.And(context.Background(), qs...); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: And(%v) = %v, block reference %v", label, qs, got, want)
			}
			if got, want := q.Or(context.Background(), qs...), ref.Or(context.Background(), qs...); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Or(%v) = %v, block reference %v", label, qs, got, want)
			}
		}
		for _, term := range []string{"alphadense", "betadense", "gammasparse"} {
			if got, want := q.TermDocs(context.Background(), term), ref.TermDocs(context.Background(), term); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: TermDocs(%q) differ from block reference", label, term)
			}
		}
	}

	// Dense And on the bitmap-carrying monolith actually produced a non-empty
	// answer — the equivalence above is not vacuous.
	if got := services["monolithic"].NewQuerier().And(context.Background(), "alphadense", "betadense"); len(got) != 187 {
		t.Fatalf("dense And found %d docs, want 187", len(got))
	}
}

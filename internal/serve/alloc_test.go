package serve

import (
	"context"
	"testing"

	"inspire/internal/postings"
)

// Allocation pins for the serving hot paths the wall-clock profiles
// surfaced. Each bound is the measured steady-state count with a little
// slack removed from nothing — before the scratch-buffer rework the same
// paths measured 10 (Session.And), 32 (RouterSession.And), 31
// (RouterSession.Tile) and 2 (mergeDocs) allocations per warm call, so a
// regression past these bounds means a reuse path silently fell off.
// Answers are written into pooled buffers, so under -race (where sync.Pool
// drops Puts at random) a pin allows poolAllocSlack per pooled answer.

// TestAndAllocSteady pins the single-store conjunction: with the posting
// cache warm and the answer written into a pooled buffer, nothing is left to
// allocate.
func TestAndAllocSteady(t *testing.T) {
	st := buildStoreT(t, 2)
	srv := newServerT(t, st, Config{})
	sess := srv.NewSession()
	want := sess.And(context.Background(), "apple", "banana")
	if len(want) != 2 {
		t.Fatalf("And(apple, banana) = %v", want)
	}
	sess.And(context.Background(), "apple", "banana") // second warm pass settles the scratch sizes
	got := testing.AllocsPerRun(200, func() { sess.And(context.Background(), "apple", "banana") })
	if bound := float64(poolAllocSlack); got > bound {
		t.Fatalf("warm Session.And allocates %v objects/op, want <= %v (was 1, the result, before pooled answers)", got, bound)
	}
}

// TestMergeSortedAllocSteady pins the gather merge at one allocation — the
// output — for any shard count a router realistically fronts (the cursor
// vector lives on the stack up to 16 parts).
func TestMergeSortedAllocSteady(t *testing.T) {
	parts := [][]int64{{1, 4, 9}, {2, 5}, {3, 6, 8}, {7}}
	got := testing.AllocsPerRun(200, func() { mergeDocs(nil, parts) })
	if got > 1 {
		t.Fatalf("mergeDocs allocates %v objects/op, want <= 1 (the output)", got)
	}
}

// TestRouterAndAllocSteady pins the routed conjunction: what remains is the
// scatter's goroutines, one per live shard but the last, which runs on the
// caller. Parts, gathered lists and answers are session scratch or pooled.
// The bound is the measured count and allows no rebuilt tables; under -race
// the router's and the shards' pooled answers add slack.
func TestRouterAndAllocSteady(t *testing.T) {
	st := buildStoreT(t, 2)
	shards, err := st.Shard(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(shards, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rs := r.NewSession()
	want := rs.And(context.Background(), "apple", "banana")
	if len(want) != 2 {
		t.Fatalf("routed And(apple, banana) = %v", want)
	}
	rs.And(context.Background(), "apple", "banana")
	got := testing.AllocsPerRun(200, func() { rs.And(context.Background(), "apple", "banana") })
	if bound := float64(2 + 2*poolAllocSlack); got > bound {
		t.Fatalf("warm RouterSession.And allocates %v objects/op, want <= %v (was 32 before scratch reuse, 13 before Exec, 9 before pooled answers)", got, bound)
	}
}

// TestDenseRouterAllocSteady pins the routed dense merges: a warm dense
// term and or union through the session's word array, which is reused, not
// regrown, so they allocate no more than the same ops on sparse answers.
func TestDenseRouterAllocSteady(t *testing.T) {
	st := buildDenseStoreT(t, 2)
	shards, err := st.Shard(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(shards, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rs := r.NewSession()
	ctx := context.Background()
	// allocs checks which side of the density rule op's answer falls on
	// and returns its warm allocation count.
	allocs := func(name string, dense bool, op func() []int64) float64 {
		t.Helper()
		docs := op()
		if got := postings.Dense(int64(len(docs)), docs[0], docs[len(docs)-1]); got != dense {
			t.Fatalf("%s answers %d documents over [%d, %d]: dense = %v, want %v", name, len(docs), docs[0], docs[len(docs)-1], got, dense)
		}
		op()
		return testing.AllocsPerRun(200, func() { op() })
	}
	var scratch []int64 // the term answers' doc IDs, projected without allocating
	term := func(term string) func() []int64 {
		return func() []int64 {
			scratch = scratch[:0]
			for _, p := range rs.TermDocs(ctx, term) {
				scratch = append(scratch, p.Doc)
			}
			return scratch
		}
	}
	or := func(terms ...string) func() []int64 {
		return func() []int64 { return rs.Or(ctx, terms...) }
	}
	// Both answers go through pooled buffers: under -race, where the pool
	// drops Puts at random, either side may pay a reallocation.
	denseTerm := allocs("term alphadense", true, term("alphadense"))
	sparseTerm := allocs("term gammasparse", false, term("gammasparse"))
	if denseTerm > sparseTerm+poolAllocSlack {
		t.Fatalf("warm routed dense term allocates %v objects/op, the sparse one %v", denseTerm, sparseTerm)
	}
	denseOr := allocs("or alphadense betadense", true, or("alphadense", "betadense"))
	sparseOr := allocs("or gammasparse uniq199", false, or("gammasparse", "uniq199"))
	if denseOr > sparseOr+poolAllocSlack {
		t.Fatalf("warm routed dense or allocates %v objects/op, the sparse one %v", denseOr, sparseOr)
	}
}

// TestRouterTileAllocSteady pins the routed tile gather: the merge buffer
// cycles through the pool and the parts are session scratch, so what
// remains is the scatter goroutines, the gathered raw tiles, and the
// rendered copy the caller keeps.
func TestRouterTileAllocSteady(t *testing.T) {
	st := buildStoreT(t, 2)
	shards, err := st.Shard(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(shards, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rs := r.NewSession()
	res, err := rs.Tile(context.Background(), 0, 0, 0)
	if err != nil || res.Docs == 0 {
		t.Fatalf("root tile = %+v, %v", res, err)
	}
	rs.Tile(context.Background(), 0, 0, 0)
	bound := float64(14 + 2*poolAllocSlack)
	got := testing.AllocsPerRun(200, func() { rs.Tile(context.Background(), 0, 0, 0) })
	if got > bound {
		t.Fatalf("warm RouterSession.Tile allocates %v objects/op, want <= %v (was 31 before the merge pool, 23 before Exec, 17 before scatter scratch)", got, bound)
	}
}

package serve

import (
	"context"
	"testing"
)

// Allocation pins for the serving hot paths the wall-clock profiles
// surfaced. Each bound is the measured steady-state count with a little
// slack removed from nothing — before the scratch-buffer rework the same
// paths measured 10 (Session.And), 32 (RouterSession.And), 31
// (RouterSession.Tile) and 2 (mergeDocs) allocations per warm call, so a
// regression past these bounds means a reuse path silently fell off.

// TestAndAllocSteady pins the single-store conjunction: with the posting
// cache warm, the only allocation left is the freshly merged result slice.
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
	if got > 1 {
		t.Fatalf("warm Session.And allocates %v objects/op, want <= 1 (the result)", got)
	}
}

// TestMergeSortedAllocSteady pins the gather merge at one allocation — the
// output — for any shard count a router realistically fronts (the cursor
// vector lives on the stack up to 16 parts).
func TestMergeSortedAllocSteady(t *testing.T) {
	parts := [][]int64{{1, 4, 9}, {2, 5}, {3, 6, 8}, {7}}
	got := testing.AllocsPerRun(200, func() { mergeDocs(parts) })
	if got > 1 {
		t.Fatalf("mergeDocs allocates %v objects/op, want <= 1 (the output)", got)
	}
}

// TestRouterAndAllocSteady pins the routed conjunction: what remains is the
// scatter (a goroutine per live shard, its parts), each shard's sub-And
// result, and the merge (its gathered lists, its output). The bound is the
// measured count and allows no rebuilt tables.
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
	if got > 9 {
		t.Fatalf("warm RouterSession.And allocates %v objects/op, want <= 9 (was 32 before scratch reuse, 13 before Exec)", got)
	}
}

// TestRouterTileAllocSteady pins the routed tile gather: the merge buffer
// cycles through the pool, so what remains is the scatter goroutines, its
// parts, and the rendered copy the caller keeps.
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
	bound := float64(17 + poolAllocSlack)
	got := testing.AllocsPerRun(200, func() { rs.Tile(context.Background(), 0, 0, 0) })
	if got > bound {
		t.Fatalf("warm RouterSession.Tile allocates %v objects/op, want <= %v (was 31 before the merge pool, 23 before Exec)", got, bound)
	}
}

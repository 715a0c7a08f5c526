package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// replicatedRouter builds a live-ingest-capable store, shards it, and serves
// it behind a Router with n replicas per shard.
func replicatedRouter(t *testing.T, shards, replicas int) *Router {
	t.Helper()
	st := batchStore(t, ingestSources(), 2)
	parts, err := st.Shard(shards)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(Options{Shards: parts, Config: Config{Replicas: replicas}})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := svc.(*Router)
	if !ok {
		t.Fatalf("NewService(Shards) = %T, want *Router", svc)
	}
	return r
}

// assertReplicaEquivalence drives one query battery against two replica
// servers of the same shard and requires identical answers — the catch-up
// protocol's contract. DF is deliberately absent: it carries the documented
// LSM overcount for tombstoned-but-uncompacted documents, and background
// compaction runs on each replica's own clock, so two answer-equivalent
// replicas may report different DFs until both compact (the chaos test pins
// post-compaction DF equality separately).
func assertReplicaEquivalence(t *testing.T, a, b *Server, terms []string) {
	t.Helper()
	ctx := context.Background()
	sa, sb := a.NewSession(), b.NewSession()
	for _, term := range terms {
		pa, pb := sa.TermDocs(ctx, term), sb.TermDocs(ctx, term)
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("TermDocs(%q) diverges: %v vs %v", term, pa, pb)
		}
	}
	for i := 0; i+1 < len(terms); i += 2 {
		da := sa.And(ctx, terms[i], terms[i+1])
		db := sb.And(ctx, terms[i], terms[i+1])
		if !reflect.DeepEqual(da, db) {
			t.Fatalf("And(%q, %q) diverges: %v vs %v", terms[i], terms[i+1], da, db)
		}
	}
}

// TestReplicatedWritesConverge pins the primary-ordered write path: adds,
// deletes and flushes applied through the router land on every live replica,
// and the replicas answer identically afterwards.
func TestReplicatedWritesConverge(t *testing.T) {
	r := replicatedRouter(t, 2, 3)
	ctx := context.Background()
	terms := r.TopTerms(ctx, 12)
	text := strings.Join(terms[:4], " ")

	rs := r.NewSession()
	var added []int64
	for i := 0; i < 40; i++ {
		doc, err := rs.Add(ctx, text)
		if err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		added = append(added, doc)
	}
	for i := 0; i < len(added); i += 4 {
		if err := rs.Delete(ctx, added[i]); err != nil {
			t.Fatalf("delete %d: %v", added[i], err)
		}
	}
	if err := r.FlushLive(ctx); err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < 2; shard++ {
		for rep := 1; rep < r.NumReplicas(); rep++ {
			assertReplicaEquivalence(t, r.Replica(shard, 0).Server(), r.Replica(shard, rep).Server(), terms)
		}
	}
}

// TestHedgedReadBeatsSlowReplica pins the hedging policy: with one replica
// stalled far past the hedge delay, reads still answer (from the sibling)
// and the hedge counters account the race.
func TestHedgedReadBeatsSlowReplica(t *testing.T) {
	st := batchStore(t, ingestSources(), 2)
	parts, err := st.Shard(1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(Options{Shards: parts, Config: Config{Replicas: 2, HedgeAfter: 200 * time.Microsecond}})
	if err != nil {
		t.Fatal(err)
	}
	r := svc.(*Router)
	ctx := context.Background()
	terms := r.TopTerms(ctx, 8)

	r.Replica(0, 0).SetStall(20 * time.Millisecond)
	r.Replica(0, 1).SetStall(20 * time.Millisecond)
	// Both stalled: every read waits, so the hedge timer always fires and
	// the counters must see it.
	rs := r.NewSession()
	for i := 0; i < 8; i++ {
		if got := rs.TermDocs(ctx, terms[i%len(terms)]); len(got) == 0 {
			t.Fatalf("stalled replicas dropped the answer for %q", terms[i%len(terms)])
		}
	}
	if st := r.Stats(); st.Hedges == 0 {
		t.Fatalf("no hedged attempts accounted: %+v", st)
	}
}

// TestAllReplicasDeadStillAnswers pins the last-resort read: with every
// replica of a shard marked dead, reads force through replica 0 rather than
// erroring — a stale answer beats none.
func TestAllReplicasDeadStillAnswers(t *testing.T) {
	r := replicatedRouter(t, 1, 2)
	ctx := context.Background()
	terms := r.TopTerms(ctx, 4)
	r.KillReplica(0, 0)
	r.KillReplica(0, 1)
	rs := r.NewSession()
	if got := rs.TermDocs(ctx, terms[0]); len(got) == 0 {
		t.Fatalf("all-dead shard dropped the answer for %q", terms[0])
	}
}

// TestReviveReplicaCatchUp pins the catch-up protocol in isolation: a dead
// replica misses sealed segments and tombstones, then revival ships the
// missing lineage — counted in CatchUpSegments/CatchUpBytes — and restores
// answer-equivalence.
func TestReviveReplicaCatchUp(t *testing.T) {
	r := replicatedRouter(t, 1, 2)
	ctx := context.Background()
	terms := r.TopTerms(ctx, 12)
	text := strings.Join(terms[:4], " ")
	rs := r.NewSession()

	r.KillReplica(0, 1)
	var added []int64
	for i := 0; i < 30; i++ {
		doc, err := rs.Add(ctx, text)
		if err != nil {
			t.Fatal(err)
		}
		added = append(added, doc)
	}
	if err := rs.Delete(ctx, added[3]); err != nil {
		t.Fatal(err)
	}
	if err := r.FlushLive(ctx); err != nil {
		t.Fatal(err)
	}

	before := r.Stats()
	if err := r.ReviveReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	after := r.Stats()
	if after.ReplicaCatchUps != before.ReplicaCatchUps+1 {
		t.Fatalf("catch-ups %d -> %d, want +1", before.ReplicaCatchUps, after.ReplicaCatchUps)
	}
	if after.CatchUpSegments == before.CatchUpSegments && after.CatchUpBytes == before.CatchUpBytes {
		t.Fatalf("revival shipped nothing: %+v -> %+v", before, after)
	}
	if got := r.Replica(0, 1).State(); got != ReplicaLive {
		t.Fatalf("revived replica state = %v, want live", got)
	}
	assertReplicaEquivalence(t, r.Replica(0, 0).Server(), r.Replica(0, 1).Server(), terms)
}

// TestSaveLiveResyncsDeadReplicas pins persistence under replication on 2
// shards x 2 replicas. SaveLive rebases every live replica in place, which
// cuts the lineage a dead replica would replay, so reviving one is a full
// resync — whether writes landed after it died (shard 1) or not (shard 0,
// killed just before the save). Ingest deleted and compacted away after
// the save leaves nothing but the ID high water, which a resynced replica
// carries; failed over to, it must fold that mark into the set it saves.
// Every replica of every shard, and the router over them, then answers like
// the saved set reloaded from disk, and the reloaded set reuses no ID.
func TestSaveLiveResyncsDeadReplicas(t *testing.T) {
	r := replicatedRouter(t, 2, 2)
	ctx := context.Background()
	terms := r.TopTerms(ctx, 12)
	text := strings.Join(terms[:4], " ")
	rs := r.NewSession()
	add := func(n int) (docs []int64) {
		for i := 0; i < n; i++ {
			doc, err := rs.Add(ctx, text)
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, doc)
		}
		if err := r.FlushLive(ctx); err != nil {
			t.Fatal(err)
		}
		return docs
	}
	del := func(docs ...int64) {
		for _, doc := range docs {
			if err := rs.Delete(ctx, doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "set.live")
	save := func() {
		if err := r.SaveLive(ctx, path); err != nil {
			t.Fatal(err)
		}
	}
	revive := func(rep int) {
		for shard := 0; shard < 2; shard++ {
			dead := r.Replica(shard, rep).Server()
			before := r.Stats()
			if err := r.ReviveReplica(shard, rep); err != nil {
				t.Fatal(err)
			}
			if r.Replica(shard, rep).Server() == dead || r.Stats().CatchUpSegments != before.CatchUpSegments {
				t.Fatalf("shard %d replica %d: revival replayed the log across a rebase; want a full resync", shard, rep)
			}
		}
	}

	added := add(20)
	r.KillReplica(1, 1)
	added = append(added, add(10)...)
	del(added[2], added[5], added[23], 0)
	r.KillReplica(0, 1)
	save()
	late := append(add(4), add(4)...) // two segments per shard to compact
	del(late...)
	if err := r.CompactLive(ctx); err != nil {
		t.Fatal(err)
	}
	revive(1)
	r.KillReplica(0, 0)
	r.KillReplica(1, 0)
	save()
	revive(0)

	svc, err := LoadServiceFile(path, Config{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	reloaded := svc.(*Router)
	simDocs := append(reloaded.SampleDocs(ctx, 6), added[0], added[29], late[0])
	agreeQueries(t, "router", reloaded.NewSession(), r.NewSession(), terms, simDocs)
	for shard := 0; shard < 2; shard++ {
		for rep := 0; rep < 2; rep++ {
			agreeQueries(t, fmt.Sprintf("shard %d replica %d", shard, rep), reloaded.Shard(shard).NewSession(),
				r.Replica(shard, rep).Server().NewSession(), terms, simDocs)
		}
	}
	if doc, err := reloaded.NewSession().Add(ctx, text); err != nil || doc != late[len(late)-1]+1 {
		t.Fatalf("reloaded set assigned doc %d, %v; want %d (deleted IDs are never reused)", doc, err, late[len(late)-1]+1)
	}
}

// TestChaosKillReplicaUnderLoad is the acceptance chaos drill: 3 shards x 2
// replicas, a 100-session seeded replay, one replica crashed mid-run while a
// writer keeps ingesting. The replay must finish with zero client-visible
// errors, and the dead replica must catch up on revival — via segment
// shipping, not a full rebuild — to answer-equivalence with the survivor.
func TestChaosKillReplicaUnderLoad(t *testing.T) {
	r := replicatedRouter(t, 3, 2)
	ctx := context.Background()
	terms := r.TopTerms(ctx, 12)
	text := strings.Join(terms[:4], " ")

	type replayOut struct {
		rep *WorkloadReport
		err error
	}
	outc := make(chan replayOut, 1)
	go func() {
		rep, err := Replay(r, WorkloadConfig{Sessions: 100, OpsPerSession: 20, Seed: 42})
		outc <- replayOut{rep, err}
	}()

	// The writer ingests throughout the replay; the crash lands mid-stream
	// so in-flight reads on the dying replica must fail over.
	ws := r.NewSession()
	var added []int64
	for i := 0; i < 180; i++ {
		if i == 30 {
			r.KillReplica(0, 1)
		}
		doc, err := ws.Add(ctx, text)
		if err != nil {
			t.Fatalf("add %d during chaos: %v", i, err)
		}
		added = append(added, doc)
		if i%5 == 4 {
			if err := ws.Delete(ctx, added[i-2]); err != nil {
				t.Fatalf("delete during chaos: %v", err)
			}
		}
	}
	if err := r.FlushLive(ctx); err != nil {
		t.Fatal(err)
	}

	out := <-outc
	if out.err != nil {
		t.Fatalf("client-visible error while a replica died: %v", out.err)
	}
	if out.rep.Ops != 100*20 {
		t.Fatalf("replay completed %d ops, want %d", out.rep.Ops, 100*20)
	}
	if got := r.Replica(0, 1).State(); got != ReplicaDead {
		t.Fatalf("killed replica state = %v, want dead", got)
	}

	before := r.Stats()
	if err := r.ReviveReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	after := r.Stats()
	if after.ReplicaCatchUps != before.ReplicaCatchUps+1 {
		t.Fatalf("catch-ups %d -> %d, want +1", before.ReplicaCatchUps, after.ReplicaCatchUps)
	}
	if after.CatchUpSegments == before.CatchUpSegments {
		t.Fatalf("catch-up shipped no segments (want segment shipping, not a rebuild): %+v -> %+v", before, after)
	}
	assertReplicaEquivalence(t, r.Replica(0, 0).Server(), r.Replica(0, 1).Server(), terms)

	// After compacting every replica the tombstone overcount is gone, so DF
	// must agree too.
	if err := r.CompactLive(ctx); err != nil {
		t.Fatal(err)
	}
	sa := r.Replica(0, 0).Server().NewSession()
	sb := r.Replica(0, 1).Server().NewSession()
	for _, term := range terms {
		if dfa, dfb := sa.DF(ctx, term), sb.DF(ctx, term); dfa != dfb {
			t.Fatalf("post-compaction DF(%q) diverges: %d vs %d", term, dfa, dfb)
		}
	}

	// The healed tier serves the replayed workload again, error-free.
	rep2, err := Replay(r, WorkloadConfig{Sessions: 20, OpsPerSession: 10, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Ops != 20*10 {
		t.Fatalf("post-heal replay completed %d ops, want %d", rep2.Ops, 20*10)
	}
}

// TestCancelledScatterIsNeverCached pins that a routed answer is complete or
// an error: a similar whose deadline passes while both replicas of one shard
// stall fails with the deadline, and the partial merge of the other shards
// is never filed in the router's cache — once the stalls clear, the same
// doc and k answer exactly what an unstalled router answers.
func TestCancelledScatterIsNeverCached(t *testing.T) {
	const doc, k = 0, 10
	want, err := replicatedRouter(t, 3, 2).NewSession().Similar(context.Background(), doc, k)
	if err != nil || len(want) != k {
		t.Fatalf("unstalled similar = %v, %v", want, err)
	}
	r := replicatedRouter(t, 3, 2)
	r.Replica(1, 0).SetStall(50 * time.Millisecond)
	r.Replica(1, 1).SetStall(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	hits, err := r.NewSession().Similar(ctx, doc, k)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) || hits != nil {
		t.Fatalf("similar past its deadline = %v, %v; want no hits and the deadline", hits, err)
	}
	r.Replica(1, 0).SetStall(0)
	r.Replica(1, 1).SetStall(0)
	got, err := r.NewSession().Similar(context.Background(), doc, k)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("similar after the cancelled one = %v, %v; want %v", got, err, want)
	}
}

// TestContextCancelStopsReads pins the ctx-first contract: a canceled
// context short-circuits reads to empty answers and errors, with nothing
// left in flight.
func TestContextCancelStopsReads(t *testing.T) {
	r := replicatedRouter(t, 2, 2)
	bg := context.Background()
	terms := r.TopTerms(bg, 4)
	ctx, cancel := context.WithCancel(bg)
	cancel()
	rs := r.NewSession()
	if got := rs.TermDocs(ctx, terms[0]); got != nil {
		t.Fatalf("canceled TermDocs answered %v", got)
	}
	if _, err := rs.Similar(ctx, 0, 3); err == nil {
		t.Fatal("canceled Similar did not error")
	}
	if _, err := rs.Add(ctx, "x"); err == nil {
		t.Fatal("canceled Add did not error")
	}
	if err := r.FlushLive(ctx); err == nil {
		t.Fatal("canceled FlushLive did not error")
	}
}

package serve

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// queryAll exercises every Querier interaction against the miniDocs corpus
// and returns the answers in a comparable shape, each copied out of the
// buffers the next interaction reuses.
func queryAll(t *testing.T, q Querier, st *Store) map[string]any {
	t.Helper()
	out := map[string]any{}
	terms := append(st.TopTerms(int(st.VocabSize)), "nonexistent")
	for _, term := range terms {
		out["term:"+term] = slices.Clone(q.TermDocs(context.Background(), term))
		out["df:"+term] = q.DF(context.Background(), term)
	}
	pairs := [][]string{
		{"apple", "banana"}, {"apple", "durian"}, {"durian", "elder", "fig"},
		{"grape", "kiwi"}, {"apple", "nonexistent"}, {"cherry"},
	}
	for _, p := range pairs {
		key := strings.Join(p, "+")
		out["and:"+key] = slices.Clone(q.And(context.Background(), p...))
		out["or:"+key] = slices.Clone(q.Or(context.Background(), p...))
	}
	for _, d := range st.SampleDocs(16) {
		hits, err := q.Similar(context.Background(), d, 3)
		if err != nil {
			t.Fatalf("similar %d: %v", d, err)
		}
		out["similar:"+string(rune('0'+d))] = hits
	}
	if _, err := q.Similar(context.Background(), -1, 3); err == nil {
		t.Fatal("similar on a negative doc did not error")
	}
	for c := 0; c < st.K; c++ {
		out["theme:"+string(rune('0'+c))] = slices.Clone(q.ThemeDocs(context.Background(), c))
	}
	out["near"] = slices.Clone(q.Near(context.Background(), 0, 0, 0.5))
	return out
}

// TestRouterMatchesServer pins the sharding contract: a Router over any
// shard count answers every interaction identically to the monolithic Server
// over the unsharded snapshot.
func TestRouterMatchesServer(t *testing.T) {
	st := buildStoreT(t, 3)
	srv := newServerT(t, st, Config{})
	want := queryAll(t, srv.NewSession(), st)

	for _, n := range []int{1, 2, 3, 4, 6} {
		shards, err := st.Shard(n)
		if err != nil {
			t.Fatalf("shard %d: %v", n, err)
		}
		r, err := NewRouter(shards, Config{})
		if err != nil {
			t.Fatalf("router %d: %v", n, err)
		}
		got := queryAll(t, r.NewSession(), st)
		for k, w := range want {
			if !reflect.DeepEqual(got[k], w) {
				t.Fatalf("%d shards: %s = %#v, want %#v", n, k, got[k], w)
			}
		}
		// Cached similarity answers stay identical too.
		sess := r.NewSession()
		d := st.SampleDocs(1)[0]
		cold, _ := sess.Similar(context.Background(), d, 3)
		warm, _ := sess.Similar(context.Background(), d, 3)
		if !reflect.DeepEqual(cold, warm) {
			t.Fatalf("%d shards: cached similar differs", n)
		}
	}
}

// TestShardPartition checks the document partition itself: shard sizes,
// DF summaries summing to the global DF, and every product row landing on
// the shard the modulo rule names.
func TestShardPartition(t *testing.T) {
	st := buildStoreT(t, 2)
	const n = 3
	shards, err := st.Shard(n)
	if err != nil {
		t.Fatal(err)
	}
	var docs int64
	df := make([]int64, st.VocabSize)
	for i, sh := range shards {
		docs += sh.TotalDocs
		for t2, d := range sh.Posts.Count {
			df[t2] += d
		}
		for t2 := int64(0); t2 < sh.VocabSize; t2++ {
			ds, _ := sh.Postings(t2)
			for _, d := range ds {
				if ShardOf(d, n) != i {
					t.Fatalf("doc %d on shard %d, want %d", d, i, ShardOf(d, n))
				}
			}
		}
		for _, d := range sh.SigDocs {
			if ShardOf(d, n) != i {
				t.Fatalf("signature of doc %d on shard %d", d, i)
			}
		}
		for _, pt := range sh.Points {
			if ShardOf(pt.Doc, n) != i {
				t.Fatalf("point of doc %d on shard %d", pt.Doc, i)
			}
		}
	}
	if docs != st.TotalDocs {
		t.Fatalf("shards hold %d docs, want %d", docs, st.TotalDocs)
	}
	if !reflect.DeepEqual(df, st.Posts.Count) {
		t.Fatalf("shard DF summaries do not sum to the global DF")
	}
}

// TestRouterShortCircuit pins the no-fan-out paths: unknown terms, and
// conjunctions whose terms never share a shard, must be answered at the
// router without a single shard query.
func TestRouterShortCircuit(t *testing.T) {
	st := buildStoreT(t, 2)
	// One document per shard: conjunction terms from different documents
	// can never share a shard.
	shards, err := st.Shard(int(st.TotalDocs))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(shards, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sess := r.NewSession()

	check := func(what string, empty bool) {
		t.Helper()
		s := r.Stats()
		if !empty {
			t.Fatalf("%s: got a non-empty answer, want nil", what)
		}
		if s.FanOuts != 0 || s.ShardQueries != 0 {
			t.Fatalf("%s fanned out: %d rounds, %d shard queries", what, s.FanOuts, s.ShardQueries)
		}
	}
	check("unknown term", sess.TermDocs(context.Background(), "nonexistent") == nil)
	check("unknown and", sess.And(context.Background(), "apple", "nonexistent") == nil)
	// grape lives only in doc 5, durian in docs 3 and 4: no shard holds both.
	check("disjoint-shard and", sess.And(context.Background(), "grape", "durian") == nil)
	st1 := r.Stats()
	if st1.ShortCircuits != 3 {
		t.Fatalf("ShortCircuits = %d, want 3", st1.ShortCircuits)
	}

	// Zero-DF pruning on a live query: grape's postings live on exactly one
	// shard, so one fan-out round touches one shard and prunes the rest.
	if got := sess.TermDocs(context.Background(), "grape"); len(got) != 1 {
		t.Fatalf("grape postings = %v", got)
	}
	st2 := r.Stats()
	if st2.FanOuts != 1 || st2.ShardQueries != 1 {
		t.Fatalf("grape fan-out: %d rounds, %d shard queries, want 1 and 1", st2.FanOuts, st2.ShardQueries)
	}
	if want := uint64(len(shards) - 1); st2.ShardsPruned != want {
		t.Fatalf("grape pruned %d shards, want %d", st2.ShardsPruned, want)
	}
}

// TestSaveLoadShards round-trips a sharded set through the manifest and
// checks the loaded Router serves identically.
func TestSaveLoadShards(t *testing.T) {
	st := buildStoreT(t, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.shards")
	if err := st.SaveShards(path, 3); err != nil {
		t.Fatal(err)
	}
	man, shards, err := LoadShards(path)
	if err != nil {
		t.Fatal(err)
	}
	if man.NumShards != 3 || len(shards) != 3 {
		t.Fatalf("loaded %d shards, manifest says %d", len(shards), man.NumShards)
	}
	if man.TotalDocs != st.TotalDocs || man.VocabSize != st.VocabSize {
		t.Fatalf("manifest header %d docs/%d terms, want %d/%d", man.TotalDocs, man.VocabSize, st.TotalDocs, st.VocabSize)
	}
	r, err := NewRouter(shards, Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServerT(t, st, Config{})
	want := queryAll(t, srv.NewSession(), st)
	got := queryAll(t, r.NewSession(), st)
	for k, w := range want {
		if !reflect.DeepEqual(got[k], w) {
			t.Fatalf("reloaded shards: %s = %#v, want %#v", k, got[k], w)
		}
	}

	// A tampered manifest must not load.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	bad := filepath.Join(dir, "bad.shards")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadShards(bad); err == nil {
		t.Fatal("tampered manifest loaded")
	}
}

// TestLoadServiceFile pins the one-loader contract: a manifest serves behind
// a Router and a single-store file behind a Server, both answering
// identically through the Service surface.
func TestLoadServiceFile(t *testing.T) {
	st := buildStoreT(t, 2)
	srv := newServerT(t, st, Config{})
	want := queryAll(t, srv.NewSession(), st)
	dir := t.TempDir()

	manifest := filepath.Join(dir, "run.shards")
	if err := st.SaveShards(manifest, 2); err != nil {
		t.Fatal(err)
	}
	mono := filepath.Join(dir, "run.store")
	if err := st.SaveFile(mono); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, path string
		router     bool
	}{
		{"manifest", manifest, true},
		{"single store", mono, false},
	}
	for _, tc := range cases {
		svc, err := LoadServiceFile(tc.path, Config{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, isRouter := svc.(*Router); isRouter != tc.router {
			t.Fatalf("%s: router=%v, want %v", tc.name, isRouter, tc.router)
		}
		got := queryAll(t, svc.NewQuerier(), st)
		for k, w := range want {
			if !reflect.DeepEqual(got[k], w) {
				t.Fatalf("%s: %s = %#v, want %#v", tc.name, k, got[k], w)
			}
		}
	}
}

// TestManifestCodec covers the codec's rejection paths beyond what the fuzz
// harness explores structurally.
func TestManifestCodec(t *testing.T) {
	good := &Manifest{
		NumShards: 2, TotalDocs: 10, VocabSize: 7, Route: RouteMod,
		Shards: []ShardInfo{{File: "a.s00", Docs: 5, Postings: 30}, {File: "a.s01", Docs: 5, Postings: 31}},
	}
	data, err := good.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(good, back) {
		t.Fatalf("round trip: %#v != %#v", back, good)
	}

	bad := []*Manifest{
		{NumShards: 0, Route: RouteMod},
		{NumShards: 1, Route: "hash", Shards: []ShardInfo{{File: "x", Docs: 0}}},
		{NumShards: 1, Route: RouteMod, Shards: []ShardInfo{{File: "../x", Docs: 0}}},
		{NumShards: 1, Route: RouteMod, Shards: []ShardInfo{{File: "sub/x", Docs: 0}}},
		{NumShards: 2, Route: RouteMod, Shards: []ShardInfo{{File: "x", Docs: 0}, {File: "x", Docs: 0}}},
		{NumShards: 1, TotalDocs: 3, Route: RouteMod, Shards: []ShardInfo{{File: "x", Docs: 2}}},
		{NumShards: 2, Route: RouteMod, Shards: []ShardInfo{{File: "x", Docs: 0}}},
	}
	for i, m := range bad {
		if _, err := m.Encode(); err == nil {
			t.Fatalf("bad manifest %d encoded", i)
		}
	}
	for _, corrupt := range [][]byte{
		nil,
		[]byte("INSPSTORE2\n"),
		data[:len(data)-1],
		append(append([]byte{}, data...), 0),
	} {
		if _, err := DecodeManifest(corrupt); err == nil {
			t.Fatalf("corrupt manifest %q decoded", corrupt)
		}
	}

	// A retired live-set manifest is still recognised as a manifest, and
	// refused by name with its remedy.
	retired := filepath.Join(t.TempDir(), "old.shards")
	if err := os.WriteFile(retired, append([]byte(retiredManifestMagic), data[len(manifestMagic):]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if man, err := IsShardManifestFile(retired); err != nil || !man {
		t.Fatalf("INSPSHARDS2 head: manifest=%v, %v", man, err)
	}
	const want = "retired live-set manifest INSPSHARDS2 (last read by build 21c88cd); re-index: inspired -in <corpus> -shards N -save-store <file>"
	if _, _, err := LoadShards(retired); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("INSPSHARDS2 manifest: error %v, want %q", err, want)
	}
}

package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"inspire/internal/storefile"
	"inspire/internal/tiles"
)

// worldRect spans every tile at any zoom.
func worldRect() tiles.Rect {
	return tiles.Rect{MinX: -1e18, MinY: -1e18, MaxX: 1e18, MaxY: 1e18}
}

// tileDump enumerates every non-empty tile at every zoom level through the
// public session surface.
func tileDump(t *testing.T, q Querier, maxZoom int) [][]*TileResult {
	t.Helper()
	out := make([][]*TileResult, maxZoom+1)
	for z := 0; z <= maxZoom; z++ {
		ts, err := q.TileRange(context.Background(), z, worldRect())
		if err != nil {
			t.Fatalf("TileRange(%d): %v", z, err)
		}
		out[z] = ts
	}
	return out
}

// pyramidBytes encodes the store's maintained pyramid for the current view.
func pyramidBytes(st *Store, tc tiles.Config) []byte {
	var b []byte
	st.withPyramid(st.viewNow(), tc, func(p *tiles.Pyramid) { b = p.Encode() })
	return b
}

// resetPyramid discards the maintained pyramid so the next query rebuilds it
// from scratch — the "offline-built" comparator of the invariance tests.
func resetPyramid(st *Store) {
	st.live.tileMu.Lock()
	st.live.tilePyr, st.live.tileView = nil, nil
	st.live.tileMu.Unlock()
}

// TestTileRouterMatchesServer pins the sharding contract for the tile
// surface: a Router over any shard count answers Tile and TileRange
// bit-identically to the monolithic Server — density grids, theme
// histograms, exemplars and ordering included.
func TestTileRouterMatchesServer(t *testing.T) {
	st := buildStoreT(t, 3)
	cfg := Config{TileMaxZoom: 4}
	srv := newServerT(t, st, cfg)
	want := tileDump(t, srv.NewSession(), 4)
	if len(want[0]) != 1 || want[0][0].Docs != st.TotalDocs {
		t.Fatalf("root tile covers %v, want all %d docs", want[0], st.TotalDocs)
	}

	for _, n := range []int{1, 2, 4} {
		shards, err := st.Shard(n)
		if err != nil {
			t.Fatalf("shard %d: %v", n, err)
		}
		r, err := NewRouter(shards, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sess := r.NewSession()
		got := tileDump(t, sess, 4)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%d-shard tile dump differs from server", n)
		}
		// Single-tile queries agree too, on hits and on empty addresses.
		for z, row := range want {
			for _, wt := range row {
				gt, err := sess.Tile(context.Background(), z, wt.X, wt.Y)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(wt, gt) {
					t.Fatalf("%d-shard Tile(%d,%d,%d) = %+v, want %+v", n, z, wt.X, wt.Y, gt, wt)
				}
			}
		}
		if _, err := sess.Tile(context.Background(), 5, 0, 0); err == nil {
			t.Fatal("out-of-range zoom accepted by router")
		}
		if _, err := sess.Tile(context.Background(), 2, 4, 0); err == nil {
			t.Fatal("out-of-range address accepted by router")
		}
	}
	if _, err := srv.NewSession().Tile(context.Background(), -1, 0, 0); err == nil {
		t.Fatal("negative zoom accepted")
	}
}

// TestTilePyramidIncrementalMatchesRebuild pins the invariance the live
// layer promises: the pyramid patched forward across seal, delete, compact
// and rebase epochs is byte-identical to one rebuilt from scratch for the
// same view, and spatial answers always match the full point scan.
func TestTilePyramidIncrementalMatchesRebuild(t *testing.T) {
	sources := ingestSources()
	st := batchStore(t, sources, 3).Fork()
	texts := recordTexts(t, sources)
	st.SetLivePolicy(LivePolicy{SealDocs: 5, CompactSegments: 3, ManualCompaction: true})
	cfg := Config{TileMaxZoom: 5}
	srv := newServerT(t, st, cfg)
	tc := srv.cfg.tileConfig()
	sess := srv.NewSession()

	check := func(label string) {
		t.Helper()
		// Touch the pyramid through the session so it patches forward.
		sess.Near(context.Background(), 0, 0, 0.5)
		inc := pyramidBytes(st, tc)
		resetPyramid(st)
		rebuilt := pyramidBytes(st, tc)
		if !bytes.Equal(inc, rebuilt) {
			t.Fatalf("%s: incrementally maintained pyramid differs from rebuild (%d vs %d bytes)",
				label, len(inc), len(rebuilt))
		}
		rng := rand.New(rand.NewSource(3))
		ns := srv.NewSession()
		for i := 0; i < 25; i++ {
			x, y := rng.Float64()*2-1, rng.Float64()*2-1
			r := rng.Float64() * 0.8
			if a, b := oracleNear(st.viewNow(), nil, x, y, r), ns.Near(context.Background(), x, y, r); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: Near(%g,%g,%g) via tiles = %v, full scan %v", label, x, y, r, b, a)
			}
		}
		if a, b := oracleNear(st.viewNow(), nil, 0, 0, 1e9), ns.Near(context.Background(), 0, 0, 1e9); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: Near(all) via tiles %d docs, full scan %d", label, len(b), len(a))
		}
	}

	check("pristine")

	var added []int64
	for i := 0; i < 12; i++ {
		doc, err := sess.Add(context.Background(), texts[i%len(texts)])
		if err != nil {
			t.Fatal(err)
		}
		added = append(added, doc)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	check("sealed")

	if err := sess.Delete(context.Background(), added[3]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Delete(context.Background(), added[7]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Delete(context.Background(), 1); err != nil { // a base document
		t.Fatal(err)
	}
	check("deleted")

	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted")

	for i := 0; i < 7; i++ {
		if _, err := sess.Add(context.Background(), texts[(i*5)%len(texts)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Delete(context.Background(), added[9]); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	check("second round")

	if err := st.Rebase(); err != nil {
		t.Fatal(err)
	}
	check("rebased")

	// The ingested documents stayed on the plane through the rebase.
	all := srv.NewSession().Near(context.Background(), 0, 0, 1e9)
	found := map[int64]bool{}
	for _, d := range all {
		found[d] = true
	}
	for i, d := range added {
		dead := i == 3 || i == 7 || i == 9
		if found[d] == dead {
			t.Fatalf("rebase: added doc %d found=%v, want %v", d, found[d], !dead)
		}
	}
}

// TestTileRouterMatchesServerUnderIngest runs the router==server tile
// equivalence while both serve the same routed ingest stream: the same
// documents added through a 2-shard router and through the monolithic server
// produce identical tiles at every stage.
func TestTileRouterMatchesServerUnderIngest(t *testing.T) {
	sources := ingestSources()
	st := batchStore(t, sources, 3)
	texts := recordTexts(t, sources)
	cfg := Config{TileMaxZoom: 4}

	mono := st.Fork()
	mono.SetLivePolicy(LivePolicy{SealDocs: 4, CompactSegments: 3, ManualCompaction: true})
	monoSrv := newServerT(t, mono, cfg)
	monoSess := monoSrv.NewSession()

	shards, err := st.Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		sh.SetLivePolicy(LivePolicy{SealDocs: 4, CompactSegments: 3, ManualCompaction: true})
	}
	r, err := NewRouter(shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rSess := r.NewSession()

	for i := 0; i < 11; i++ {
		text := texts[i%len(texts)]
		md, err := monoSess.Add(context.Background(), text)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := rSess.Add(context.Background(), text)
		if err != nil {
			t.Fatal(err)
		}
		if md != rd {
			t.Fatalf("add %d: mono doc %d, routed doc %d", i, md, rd)
		}
	}
	if err := mono.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.FlushLive(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tileDump(t, monoSess, 4), tileDump(t, rSess, 4)) {
		t.Fatal("sealed: routed tile dump differs from monolithic")
	}

	if err := monoSess.Delete(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if err := rSess.Delete(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tileDump(t, monoSess, 4), tileDump(t, rSess, 4)) {
		t.Fatal("deleted: routed tile dump differs from monolithic")
	}
}

// TestLegacyAndSidecarTileLoads pins the load paths: a store persisted
// without Planar/TileBox derives its bounds and lazily builds an identical
// pyramid on load; a saved store serves from the pyramid embedded in its
// file; and a corrupt embedded pyramid is ignored, not fatal.
func TestLegacyAndSidecarTileLoads(t *testing.T) {
	st := buildStoreT(t, 3)
	cfg := Config{TileMaxZoom: 4}
	want := tileDump(t, newServerT(t, st, cfg).NewSession(), 4)
	dir := t.TempDir()

	// No frozen tile metadata: the bounds derive from the points.
	bare := st.Fork()
	bare.Planar, bare.TileBox = nil, nil
	barePath := filepath.Join(dir, "bare.store")
	if err := bare.SaveFile(barePath); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStoreFile(barePath)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TileBox == nil {
		t.Fatal("load did not derive tile bounds from the points")
	}
	if got := tileDump(t, newServerT(t, loaded, cfg).NewSession(), 4); !reflect.DeepEqual(want, got) {
		t.Fatal("lazily built tiles of a store without tile metadata differ")
	}

	// The pyramid persists as a section of the store file; it decodes
	// lazily on first tile use and serves identically.
	v4Path := filepath.Join(dir, "v4.store")
	if err := st.SaveFile(v4Path); err != nil {
		t.Fatal(err)
	}
	fromV4, err := LoadStoreFile(v4Path)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromV4.live.tileRaw) == 0 {
		t.Fatal("v4 store carries no embedded pyramid bytes")
	}
	if got := tileDump(t, newServerT(t, fromV4, cfg).NewSession(), 4); !reflect.DeepEqual(want, got) {
		t.Fatal("v4-embedded tiles differ")
	}
	if fromV4.live.tileSidecar == nil {
		t.Fatal("embedded pyramid was not decoded on first tile use")
	}

	// Corruption: the embedded pyramid is advisory; one that does not decode
	// (here in the retired INSPTILES1 encoding) still loads, and the pyramid
	// rebuilds from the points.
	sf, err := storefile.ReadFile(v4Path)
	if err != nil {
		t.Fatal(err)
	}
	secs := sf.Sections()
	for i := range secs {
		if secs[i].Name == secTiles {
			secs[i].Data = []byte("INSPTILES1\ngarbage")
		}
	}
	brokenPath := filepath.Join(dir, "broken.store")
	if err := storefile.WriteFileAtomic(brokenPath, func(w io.Writer) error { return storefile.Write(w, secs) }); err != nil {
		t.Fatal(err)
	}
	broken, err := LoadStoreFile(brokenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := tileDump(t, newServerT(t, broken, cfg).NewSession(), 4); !reflect.DeepEqual(want, got) {
		t.Fatal("store with a corrupt embedded pyramid serves different tiles")
	}
	if broken.live.tileSidecar != nil {
		t.Fatal("corrupt embedded pyramid attached")
	}

	// Sharded persistence: shards are INSPSTORE4 files with the pyramid
	// embedded, and the loaded set answers identically to the in-memory
	// router.
	manPath := filepath.Join(dir, "set.shards")
	if err := st.SaveShards(manPath, 2); err != nil {
		t.Fatal(err)
	}
	_, shardStores, err := LoadShards(manPath)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(shardStores, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := tileDump(t, r.NewSession(), 4); !reflect.DeepEqual(want, got) {
		t.Fatal("loaded shard set serves different tiles")
	}
}

// TestNearChargesCandidatesNotCorpus pins the Near pruning fix: a tight
// query prunes quadtree subtrees instead of testing every point, answers
// exactly what the full point scan does, and tile hits land in the
// epoch-keyed LRU.
func TestNearChargesCandidatesNotCorpus(t *testing.T) {
	st := batchStore(t, ingestSources(), 3)
	srv := newServerT(t, st, Config{})

	got := srv.NewSession().Near(context.Background(), 0, 0, 0.01)
	if want := oracleNear(st.viewNow(), nil, 0, 0, 0.01); !reflect.DeepEqual(got, want) {
		t.Fatalf("tight Near = %v, full scan %v", got, want)
	}
	if p := srv.Stats().TilesPruned; p == 0 {
		t.Fatal("no subtrees pruned on a tight query")
	}

	sess := srv.NewSession()
	if _, err := sess.Tile(context.Background(), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Tile(context.Background(), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	stats := srv.Stats()
	if stats.TileHits == 0 || stats.TileMisses == 0 {
		t.Fatalf("tile LRU not exercised: %+v hits/%+v misses", stats.TileHits, stats.TileMisses)
	}
}

// TestStaleTileSidecarRejected pins that filtered map reads never answer
// from a pyramid stamped with other metadata than the store's: the members
// carry each document's timestamp and facets, and filters test them in
// place. The rotated metadata keeps every per-document count (so totals
// agree); only which document carries which source changes.
func TestStaleTileSidecarRejected(t *testing.T) {
	st := buildStoreT(t, 3)
	stampMetaT(t, st)
	rotate := func(st *Store) {
		docs := slices.Clone(st.Signatures().Docs)
		times, rows := make([]int64, len(docs)), make([][]string, len(docs))
		for i, d := range docs {
			times[i] = 1000 + d*10
			rows[i] = []string{fmt.Sprintf("source=s%d", (d+1)%3), fmt.Sprintf("lang=l%d", d%2)}
		}
		if err := st.SetBaseMeta(docs, times, rows); err != nil {
			t.Fatal(err)
		}
	}
	filtered := func(st *Store) [][]*TileResult {
		sess := newServerT(t, st, Config{}).NewSession()
		if err := sess.SetFilter(Filter{Facets: []string{"source=s1"}}); err != nil {
			t.Fatal(err)
		}
		return tileDump(t, sess, 6)
	}
	truth := st.Fork()
	rotate(truth)
	want := filtered(truth)
	if want[0][0].Docs == 0 || len(want[0][0].Facets) == 0 {
		t.Fatalf("filtered root tile %+v: the check is vacuous", want[0][0])
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "stamped.store")
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	// Metadata replaced on a loaded store whose embedded pyramid is
	// already decoded.
	loaded, err := LoadStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	filtered(loaded)
	if loaded.live.tileSidecar == nil {
		t.Fatal("embedded pyramid not decoded by the first tile read")
	}
	rotate(loaded)
	if got := filtered(loaded); !reflect.DeepEqual(got, want) {
		t.Fatalf("after SetBaseMeta on a loaded store the filtered root tile is %+v, want %+v", got[0][0], want[0][0])
	}

	// A file whose embedded pyramid disagrees with its metadata sections
	// document by document, with equal totals.
	rotPath := filepath.Join(dir, "rotated.store")
	if err := truth.SaveFile(rotPath); err != nil {
		t.Fatal(err)
	}
	stamped, err := storefile.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale, _ := stamped.Section(secTiles)
	rf, err := storefile.ReadFile(rotPath)
	if err != nil {
		t.Fatal(err)
	}
	secs := rf.Sections()
	for i := range secs {
		if secs[i].Name == secTiles {
			secs[i].Data = stale
		}
	}
	mixedPath := filepath.Join(dir, "mixed.store")
	if err := storefile.WriteFileAtomic(mixedPath, func(w io.Writer) error { return storefile.Write(w, secs) }); err != nil {
		t.Fatal(err)
	}
	mixed, err := LoadStoreFile(mixedPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := filtered(mixed); !reflect.DeepEqual(got, want) {
		t.Fatalf("a store whose embedded pyramid carries other metadata serves filtered root tile %+v, want %+v", got[0][0], want[0][0])
	}
	if mixed.live.tileSidecar != nil {
		t.Fatal("an embedded pyramid stamped with other metadata was attached")
	}
}

// TestStrayBaseRowDoesNotStamp pins where a sealed document's metadata comes
// from: its own segment row. A base row naming the same (live) ID is stray —
// it counts for no filter — and must not stamp the pyramid member either, or
// filtered map reads, which test members in place, would answer by it.
func TestStrayBaseRowDoesNotStamp(t *testing.T) {
	ctx := context.Background()
	st := batchStore(t, ingestSources(), 2)
	doc := st.TotalDocs
	if err := st.SetBaseMeta([]int64{doc}, []int64{5}, [][]string{{"source=stray"}}); err != nil {
		t.Fatal(err)
	}
	sig := make([]float64, st.SigM)
	for i := range sig {
		sig[i] = 0.5
	}
	if err := st.AddCountsMeta(doc, nil, sig, 7, []string{"source=live"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	sess := newServerT(t, st, Config{}).NewSession()
	for _, c := range []struct {
		facet string
		want  int64
	}{{"source=live", 1}, {"source=stray", 0}} {
		if err := sess.SetFilter(Filter{Facets: []string{c.facet}}); err != nil {
			t.Fatal(err)
		}
		tl, err := sess.Tile(ctx, 0, 0, 0)
		if err != nil || tl.Docs != c.want {
			t.Fatalf("facet %s: root tile %+v, %v; want %d documents", c.facet, tl, err, c.want)
		}
		if got := sess.Near(ctx, 0, 0, 1e9); int64(len(got)) != c.want {
			t.Fatalf("facet %s: Near everywhere = %v, want %d documents", c.facet, got, c.want)
		}
	}
}

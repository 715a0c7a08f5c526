package serve

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
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

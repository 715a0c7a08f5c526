package serve

// Galaxy tile serving: the multi-resolution spatial face of the store. A
// quadtree tile pyramid (internal/tiles) aggregates the ThemeView projection
// into density grids, theme histograms and exemplar documents at every zoom
// level, so a client renders any viewport from a handful of fixed-size tiles
// instead of pulling corpus-proportional point sets.
//
// The pyramid is maintained on the store's live side, synced to the serving
// epochs exactly like the incremental similarity refresh: sealed documents
// are re-binned from their seal delta (their plane coordinates come from the
// frozen Planar projection), tombstones unbin their documents, compactions
// are the identity, and a rebase (lineage cut) rebuilds from the new base.
// Because every tile aggregate is an exact, order-independent function of
// the member set, the incrementally maintained pyramid is identical to one
// rebuilt offline, and per-shard pyramids merge into exactly the monolithic
// answer — the equivalences the tile tests pin.
//
// Sessions answer tiles through the server's epoch-keyed tile LRU, and
// spatial Near queries do work proportional to the candidates the quadtree
// walk admits rather than the whole point set.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"inspire/internal/core"
	"inspire/internal/project"
	"inspire/internal/segment"
	"inspire/internal/tiles"
)

// TileTheme is one theme's share of a tile, with its representative label
// (the theme's strongest terms).
type TileTheme struct {
	Cluster int64  `json:"cluster"`
	Docs    int64  `json:"docs"`
	Label   string `json:"label,omitempty"`
}

// TileResult is one rendered Galaxy tile: the density raster, the top theme
// histogram and the exemplar documents of everything binned under tile
// (z, x, y). Identical whether served by a single Server or merged across a
// sharded Router.
type TileResult struct {
	Z    int   `json:"z"`
	X    int   `json:"x"`
	Y    int   `json:"y"`
	Docs int64 `json:"docs"`
	// Grid is the density raster dimension; Density is Grid*Grid counts,
	// row-major with row 0 at the tile's MinY edge. Nil when the tile is
	// empty.
	Grid    int      `json:"grid"`
	Density []uint32 `json:"density,omitempty"`
	// Themes are the tile's top themes by document count (count
	// descending, cluster ascending on ties), at most Config.TileThemes.
	Themes []TileTheme `json:"themes,omitempty"`
	// Times is the tile's sparse per-day member histogram (ascending by
	// bucket; untimestamped documents count in Docs but not here).
	Times []tiles.TimeCount `json:"times,omitempty"`
	// Facets is the tile's sparse per-facet member count (ascending by
	// facet; a document counts once under each of its facets).
	Facets []tiles.FacetCount `json:"facets,omitempty"`
	// Exemplars are the smallest member document IDs, ascending.
	Exemplars []int64 `json:"exemplars,omitempty"`
}

// tileConfig resolves the pyramid configuration of this server's tiles.
func (cfg Config) tileConfig() tiles.Config {
	return tiles.Config{
		MaxZoom:   cfg.TileMaxZoom,
		Grid:      cfg.TileGrid,
		Exemplars: cfg.TileExemplars,
	}.WithDefaults()
}

// checkTileAddr validates a tile address against the pyramid configuration.
func checkTileAddr(tc tiles.Config, z, x, y int) error {
	if z < 0 || z > tc.MaxZoom {
		return fmt.Errorf("serve: tile zoom %d out of [0, %d]", z, tc.MaxZoom)
	}
	if n := 1 << z; x < 0 || x >= n || y < 0 || y >= n {
		return fmt.Errorf("serve: tile (%d, %d) outside zoom %d", x, y, z)
	}
	return nil
}

// boundsOver accumulates the bounding box of the given point sets; ok is
// false when every set is empty.
func boundsOver(sets ...[]project.Point) (r tiles.Rect, ok bool) {
	r = tiles.Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	for _, pts := range sets {
		for _, p := range pts {
			r.MinX, r.MaxX = math.Min(r.MinX, p.X), math.Max(r.MaxX, p.X)
			r.MinY, r.MaxY = math.Min(r.MinY, p.Y), math.Max(r.MaxY, p.Y)
			ok = true
		}
	}
	return r, ok
}

// pointBounds returns the padded bounding box of a point set, nil when
// empty.
func pointBounds(pts []project.Point) *tiles.Rect {
	r, ok := boundsOver(pts)
	if !ok {
		return nil
	}
	b := tiles.NewBounds(r.MinX, r.MinY, r.MaxX, r.MaxY)
	return &b
}

// planarPoints places a sealed segment's documents on the ThemeView plane
// with the store's frozen projection model — bit-for-bit what the batch
// pipeline would have computed for the same signatures. Nil when the store
// predates the Planar model.
func (st *Store) planarPoints(seg *segment.Segment) []project.Point {
	if st.Planar == nil {
		return nil
	}
	out := make([]project.Point, len(seg.Docs))
	for i, d := range seg.Docs {
		x, y := st.Planar.Project(seg.SigVecs[i])
		out[i] = project.Point{Doc: d, X: x, Y: y}
	}
	return out
}

// DataBounds returns the bounding box of every projected point the store
// currently carries (base and sealed live documents; tombstones are not
// subtracted — pruning only needs a superset), false when there are none.
func (st *Store) DataBounds() (tiles.Rect, bool) {
	v := st.viewNow()
	return boundsOver(v.base.points, v.pts)
}

// --- pyramid maintenance ---------------------------------------------------

// withPyramid runs fn with the store's tile pyramid synced to view v, under
// the tile-maintenance lock. All servers over one store share one pyramid,
// like they share one epoch stream.
func (st *Store) withPyramid(v *view, cfg tiles.Config, fn func(*tiles.Pyramid)) {
	ls := &st.live
	ls.tileMu.Lock()
	defer ls.tileMu.Unlock()
	if ls.tilePyr == nil || ls.tileView != v || ls.tilePyr.Config() != cfg {
		st.syncPyramidLocked(v, cfg)
	}
	fn(ls.tilePyr)
}

// syncPyramidLocked brings the pyramid to view v: a lineage patch when v
// descends from the view the pyramid reflects (re-binning only the epoch
// deltas, mirroring the incremental similarity refresh), a full rebuild
// otherwise. Callers hold tileMu.
func (st *Store) syncPyramidLocked(v *view, cfg tiles.Config) {
	ls := &st.live
	if ls.tilePyr != nil && ls.tileView != nil && ls.tilePyr.Config() == cfg {
		var chain []*view
		a := v
		for a != nil && a != ls.tileView {
			chain = append(chain, a)
			a = a.parent
		}
		if a == ls.tileView {
			patched := true
			for i := len(chain) - 1; i >= 0 && patched; i-- {
				w := chain[i]
				switch w.kind {
				case viewSeal:
					for _, pt := range w.newPts {
						ts, facets := w.docMeta(pt.Doc)
						ls.tilePyr.Add(tiles.Entry{Doc: pt.Doc, X: pt.X, Y: pt.Y, Cluster: -1, Time: ts, Facets: facets})
					}
				case viewTomb:
					ls.tilePyr.Remove(w.tomb)
				case viewCompact:
					// Identity on the pyramid: the dropped documents were
					// unbinned at their tombstone epochs.
				default:
					patched = false
				}
			}
			if patched {
				ls.tileView = v
				return
			}
		}
	}
	ls.tilePyr = st.buildPyramidLocked(v, cfg)
	ls.tileView = v
}

// buildPyramidLocked builds the pyramid of view v from scratch — from the
// persisted sidecar plus the view's live deltas when the sidecar still
// describes the base points, from the raw points otherwise. Callers hold
// tileMu.
func (st *Store) buildPyramidLocked(v *view, cfg tiles.Config) *tiles.Pyramid {
	box := st.tileBoundsLocked(v)
	if sc := st.sidecarLocked(); sc != nil && sc.Config() == cfg && sc.Bounds() == box {
		pyr := sc.Clone()
		for _, pt := range v.pts {
			if !v.tombs[pt.Doc] {
				ts, facets := v.docMeta(pt.Doc)
				pyr.Add(tiles.Entry{Doc: pt.Doc, X: pt.X, Y: pt.Y, Cluster: -1, Time: ts, Facets: facets})
			}
		}
		for d := range v.tombs {
			pyr.Remove(d)
		}
		return pyr
	}

	clusters := make(map[int64]int64, len(v.base.assignDocs))
	for i, d := range v.base.assignDocs {
		clusters[d] = v.base.assignClusters[i]
	}
	pyr, err := tiles.New(cfg, box)
	if err != nil {
		// cfg was validated at server construction and box is always
		// padded; an error here is a programming bug.
		panic(err)
	}
	for _, pt := range v.base.points {
		if v.tombs[pt.Doc] || v.base.holes[pt.Doc] {
			continue
		}
		c := int64(-1)
		if cl, ok := clusters[pt.Doc]; ok {
			c = cl
		}
		ts, facets := v.docMeta(pt.Doc)
		pyr.Add(tiles.Entry{Doc: pt.Doc, X: pt.X, Y: pt.Y, Cluster: c, Time: ts, Facets: facets})
	}
	for _, pt := range v.pts {
		if !v.tombs[pt.Doc] {
			ts, facets := v.docMeta(pt.Doc)
			pyr.Add(tiles.Entry{Doc: pt.Doc, X: pt.X, Y: pt.Y, Cluster: -1, Time: ts, Facets: facets})
		}
	}
	return pyr
}

// sidecarLocked returns the store's persisted base pyramid, decoding the
// raw bytes a mapped INSPSTORE4 store carries on first use. Anything
// corrupt or inconsistent with the base points is dropped — the pyramid
// then builds from the points, exactly like a store saved without one.
// Callers hold tileMu.
func (st *Store) sidecarLocked() *tiles.Pyramid {
	ls := &st.live
	if ls.tileSidecar == nil && len(ls.tileRaw) > 0 {
		raw := ls.tileRaw
		ls.tileRaw = nil
		pyr, err := tiles.Decode(raw)
		if err == nil && pyr.NumDocs() == len(st.Points) &&
			st.TileBox != nil && pyr.Bounds() == *st.TileBox &&
			st.sidecarMetaConsistent(pyr) {
			ls.tileSidecar = pyr
		}
	}
	return ls.tileSidecar
}

// sidecarMetaConsistent checks a decoded sidecar pyramid against the store's
// document metadata: the root tile's time-histogram and facet-count totals
// must equal what the base metadata implies. A pyramid that disagrees is
// rejected and rebuilds from the points — the histograms the tile layer
// serves are then exact again.
func (st *Store) sidecarMetaConsistent(pyr *tiles.Pyramid) bool {
	var wantTimes, wantFacets int64
	for i, d := range st.MetaDocs {
		if !pyr.Contains(d) {
			continue
		}
		if st.MetaTimes[i] != 0 {
			wantTimes++
		}
		if st.MetaFacetOffs != nil {
			wantFacets += st.MetaFacetOffs[i+1] - st.MetaFacetOffs[i]
		}
	}
	var gotTimes, gotFacets int64
	if root := pyr.Tile(0, 0, 0); root != nil {
		for _, tc := range root.Times {
			gotTimes += tc.Docs
		}
		for _, fc := range root.Facets {
			gotFacets += fc.Docs
		}
	}
	return gotTimes == wantTimes && gotFacets == wantFacets
}

// tileBoundsLocked resolves the pyramid's world bounds: the store's frozen
// TileBox, or — for legacy stores without one — a box derived from the
// visible points once and memoized. Callers hold tileMu.
func (st *Store) tileBoundsLocked(v *view) tiles.Rect {
	if st.TileBox != nil {
		return *st.TileBox
	}
	if st.live.tileBox != nil {
		return *st.live.tileBox
	}
	b := tiles.NewBounds(0, 0, 1, 1)
	if r, ok := boundsOver(v.base.points, v.pts); ok {
		b = tiles.NewBounds(r.MinX, r.MinY, r.MaxX, r.MaxY)
	}
	st.live.tileBox = &b
	return b
}

// --- persistence -----------------------------------------------------------

// BaseTilePyramid builds the pyramid of the store's base snapshot (its
// persisted points and cluster assignments) — what Save embeds as the tiles
// section and what a loaded one must reproduce.
func (st *Store) BaseTilePyramid(cfg Config) (*tiles.Pyramid, error) {
	tc := cfg.withDefaults().tileConfig()
	if err := tc.Validate(); err != nil {
		return nil, err
	}
	box := tiles.NewBounds(0, 0, 1, 1)
	if st.TileBox != nil {
		box = *st.TileBox
	} else if b := pointBounds(st.Points); b != nil {
		box = *b
	}
	clusters := make(map[int64]int64, len(st.AssignDocs))
	for i, d := range st.AssignDocs {
		clusters[d] = st.AssignClusters[i]
	}
	pyr, err := tiles.New(tc, box)
	if err != nil {
		return nil, err
	}
	for _, pt := range st.Points {
		c := int64(-1)
		if cl, ok := clusters[pt.Doc]; ok {
			c = cl
		}
		ts, facets := st.baseMetaOf(pt.Doc)
		if !pyr.Add(tiles.Entry{Doc: pt.Doc, X: pt.X, Y: pt.Y, Cluster: c, Time: ts, Facets: facets}) {
			return nil, fmt.Errorf("serve: tile pyramid: duplicate or non-finite point for doc %d", pt.Doc)
		}
	}
	return pyr, nil
}

// --- server side -----------------------------------------------------------

// tileKey keys the server's tile LRU: every published change advances the
// epoch, so stale tiles age out without any sweep — the same
// self-invalidation the similarity caches use.
type tileKey struct {
	epoch   uint64
	z, x, y int
}

// tileRaw answers one tile address under view v from the epoch-keyed LRU,
// falling through to the maintained pyramid on a miss. The returned tile is
// an immutable snapshot (nil = empty).
func (s *Server) tileRaw(v *view, z, x, y int) *tiles.Tile {
	key := tileKey{epoch: v.epoch, z: z, x: x, y: y}
	s.tmu.Lock()
	t, ok := s.tiles.get(key)
	s.tmu.Unlock()
	if ok {
		s.tileHits.Add(1)
		return t
	}
	s.tileMisses.Add(1)
	var cp *tiles.Tile
	s.store.withPyramid(v, s.cfg.tileConfig(), func(p *tiles.Pyramid) {
		cp = p.Tile(z, x, y).Clone()
	})
	s.tmu.Lock()
	s.tiles.add(key, cp)
	s.tmu.Unlock()
	return cp
}

// tileWhere answers one tile address restricted to the session filter's
// members — an exact rebuild over the matching entries, bypassing the tile
// LRU (a filtered tile is a per-session answer; caching it per filter would
// let one session's predicate evict every session's unfiltered tiles).
func (s *Server) tileWhere(v *view, fs *filterSet, z, x, y int) *tiles.Tile {
	var cp *tiles.Tile
	s.store.withPyramid(v, s.cfg.tileConfig(), func(p *tiles.Pyramid) {
		cp = p.TileWhere(z, x, y, func(e tiles.Entry) bool { return fs.contains(e.Doc) })
	})
	return cp
}

// tileFor answers one tile address under the session's filter state: the
// epoch-keyed LRU when unfiltered, an exact filtered rebuild otherwise.
func (ss *Session) tileFor(v *view, fs *filterSet, z, x, y int) *tiles.Tile {
	if fs == nil {
		return ss.s.tileRaw(v, z, x, y)
	}
	return ss.s.tileWhere(v, fs, z, x, y)
}

// themeLabel renders a theme's representative label: its strongest terms.
func themeLabel(themes []core.Theme, cluster int64) string {
	if cluster < 0 || cluster >= int64(len(themes)) {
		return ""
	}
	terms := themes[cluster].Terms
	if len(terms) > 3 {
		terms = terms[:3]
	}
	return strings.Join(terms, " ")
}

// renderTile trims a raw tile to the reply surface: the top themes by count
// (count descending, cluster ascending on ties) with their labels. A nil raw
// tile renders as the empty tile.
func renderTile(raw *tiles.Tile, z, x, y, grid, topThemes int, themes []core.Theme) *TileResult {
	res := &TileResult{Z: z, X: x, Y: y, Grid: grid}
	if raw == nil {
		return res
	}
	res.Docs = raw.Docs
	res.Density = append([]uint32(nil), raw.Density...)
	res.Times = append([]tiles.TimeCount(nil), raw.Times...)
	res.Facets = append([]tiles.FacetCount(nil), raw.Facets...)
	res.Exemplars = append([]int64(nil), raw.Exemplars...)
	hist := append([]tiles.ThemeCount(nil), raw.Themes...)
	sort.Slice(hist, func(a, b int) bool {
		if hist[a].Docs != hist[b].Docs {
			return hist[a].Docs > hist[b].Docs
		}
		return hist[a].Cluster < hist[b].Cluster
	})
	if len(hist) > topThemes {
		hist = hist[:topThemes]
	}
	for _, h := range hist {
		res.Themes = append(res.Themes, TileTheme{
			Cluster: h.Cluster,
			Docs:    h.Docs,
			Label:   themeLabel(themes, h.Cluster),
		})
	}
	return res
}

// Tile returns the Galaxy tile at (z, x, y): the density raster, top theme
// histogram and exemplar documents of everything the ThemeView projection
// bins there, answered from the server's epoch-keyed tile LRU.
func (ss *Session) Tile(ctx context.Context, z, x, y int) (*TileResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := ss.s
	tc := s.cfg.tileConfig()
	if err := checkTileAddr(tc, z, x, y); err != nil {
		return nil, err
	}
	s.queries.Add(1)
	v := s.store.viewNow()
	raw := ss.tileFor(v, ss.filterFor(v), z, x, y)
	return renderTile(raw, z, x, y, tc.Grid, s.cfg.TileThemes, s.store.Themes), nil
}

// TileRange returns every non-empty tile at zoom z whose extent intersects
// r, ordered by (x, y) — one call renders a viewport. The quadtree walk
// prunes subtrees outside the rect (counted in Stats.TilesPruned) and each
// admitted tile answers through the tile LRU.
func (ss *Session) TileRange(ctx context.Context, z int, r tiles.Rect) ([]*TileResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := ss.s
	tc := s.cfg.tileConfig()
	if z < 0 || z > tc.MaxZoom {
		return nil, fmt.Errorf("serve: tile zoom %d out of [0, %d]", z, tc.MaxZoom)
	}
	s.queries.Add(1)
	v := s.store.viewNow()
	fs := ss.filterFor(v)
	coords := s.tileRangeCoords(v, tc, z, r)
	out := make([]*TileResult, 0, len(coords))
	for _, c := range coords {
		raw := ss.tileFor(v, fs, z, c[0], c[1])
		if fs != nil && raw == nil {
			// Every member under the address was filtered out; a pyramid over
			// only the matching documents would not have this tile at all.
			continue
		}
		out = append(out, renderTile(raw, z, c[0], c[1], tc.Grid, s.cfg.TileThemes, s.store.Themes))
	}
	return out, nil
}

// tileRangeCoords walks the pyramid for the tile addresses at zoom z
// intersecting r, counting pruned subtrees.
func (s *Server) tileRangeCoords(v *view, tc tiles.Config, z int, r tiles.Rect) (coords [][2]int) {
	var pruned int
	s.store.withPyramid(v, tc, func(p *tiles.Pyramid) {
		ts, pr := p.Range(z, r)
		pruned = pr
		for _, t := range ts {
			coords = append(coords, [2]int{t.X, t.Y})
		}
	})
	s.tilesPruned.Add(uint64(pruned))
	return coords
}

// tileRawQ is the shard-local half of a routed tile query: it answers the
// raw (untrimmed) tile through this server's LRU.
func (ss *Session) tileRawQ(z, x, y int) *tiles.Tile {
	ss.s.queries.Add(1)
	v := ss.s.store.viewNow()
	return ss.tileFor(v, ss.filterFor(v), z, x, y)
}

// tileRangeRaw is the shard-local half of a routed range query: raw tiles at
// zoom z intersecting r, ordered by (x, y).
func (ss *Session) tileRangeRaw(z int, r tiles.Rect) []*tiles.Tile {
	s := ss.s
	s.queries.Add(1)
	tc := s.cfg.tileConfig()
	v := s.store.viewNow()
	fs := ss.filterFor(v)
	coords := s.tileRangeCoords(v, tc, z, r)
	out := make([]*tiles.Tile, 0, len(coords))
	for _, c := range coords {
		// tileFor answers immutable snapshots already addressed (z, x, y);
		// the merge side only reads them.
		if raw := ss.tileFor(v, fs, z, c[0], c[1]); raw != nil {
			out = append(out, raw)
		}
	}
	return out
}

// --- router side -----------------------------------------------------------

// tileShards returns the shards whose data bounding box overlaps rect's
// tile window at zoom z — a shard none of whose points can bin inside the
// window is never asked. The comparison runs in bin-index space with the
// member binning arithmetic, so boundary points never mis-prune.
func (r *Router) tileShards(z int, rect tiles.Rect) []int {
	qx0, qy0, qx1, qy1, ok := tiles.BinWindow(r.tileBox, z, rect)
	if !ok {
		return nil
	}
	r.boxMu.RLock()
	defer r.boxMu.RUnlock()
	out := make([]int, 0, len(r.sets))
	for i := range r.sets {
		if !r.boxOK[i] {
			continue
		}
		sx0, sy0, sx1, sy1, _ := tiles.BinWindow(r.tileBox, z, r.boxes[i])
		if sx0 <= qx1 && qx0 <= sx1 && sy0 <= qy1 && qy0 <= sy1 {
			out = append(out, i)
		}
	}
	return out
}

// shardsForTile returns the shards whose data bounding box covers tile
// (z, x, y) in bin-index space.
func (r *Router) shardsForTile(z, x, y int) []int {
	r.boxMu.RLock()
	defer r.boxMu.RUnlock()
	out := make([]int, 0, len(r.sets))
	for i := range r.sets {
		if !r.boxOK[i] {
			continue
		}
		sx0, sy0, sx1, sy1, _ := tiles.BinWindow(r.tileBox, z, r.boxes[i])
		if x >= sx0 && x <= sx1 && y >= sy0 && y <= sy1 {
			out = append(out, i)
		}
	}
	return out
}

// expandBox grows a shard's data bounding box to cover a newly ingested
// point; boxes only ever grow, so pruning stays conservative.
func (r *Router) expandBox(shard int, x, y float64) {
	r.boxMu.Lock()
	defer r.boxMu.Unlock()
	if !r.boxOK[shard] {
		r.boxes[shard] = tiles.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}
		r.boxOK[shard] = true
		return
	}
	b := &r.boxes[shard]
	b.MinX, b.MaxX = math.Min(b.MinX, x), math.Max(b.MaxX, x)
	b.MinY, b.MaxY = math.Min(b.MinY, y), math.Max(b.MaxY, y)
}

// Tile returns the Galaxy tile at (z, x, y) merged across the shard set:
// densities and theme histograms sum, exemplar sets union and trim —
// bit-identical to the single-store answer over the unsharded snapshot.
// Shards whose bounding box misses the tile's extent are pruned before any
// request is issued.
func (rs *RouterSession) Tile(ctx context.Context, z, x, y int) (*TileResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := rs.r
	tc := r.cfg.tileConfig()
	if err := checkTileAddr(tc, z, x, y); err != nil {
		return nil, err
	}
	r.queries.Add(1)
	live := r.shardsForTile(z, x, y)
	if len(live) == 0 {
		r.shortCircuits.Add(1)
		return renderTile(nil, z, x, y, tc.Grid, r.cfg.TileThemes, r.themes), nil
	}
	parts := scatterQ(ctx, rs, live,
		func(ctx context.Context, shard int, sub *Session) *tiles.Tile {
			_ = sub.SetFilter(rs.filter)
			return sub.tileRawQ(z, x, y)
		})
	// The merged tile is transient — renderTile deep-copies everything it
	// keeps — so the merge buffer cycles through a pool instead of allocating
	// a tile (plus density grid) per gathered request.
	buf := tileMergeBuf.Get().(*tiles.Tile)
	merged := tiles.MergeInto(buf, parts, tc.Exemplars)
	res := renderTile(merged, z, x, y, tc.Grid, r.cfg.TileThemes, r.themes)
	tileMergeBuf.Put(buf)
	return res, nil
}

// tileMergeBuf pools gather-merge scratch tiles. Only transient merges may
// use it: renderTile copies what it keeps, so a buffer can be returned as
// soon as its merge is rendered.
var tileMergeBuf = sync.Pool{New: func() any { return new(tiles.Tile) }}

// TileRange returns every non-empty tile at zoom z intersecting r, merged
// across the shard set and ordered by (x, y), identical to the single-store
// answer. Only shards whose bounding box intersects the rect are asked.
func (rs *RouterSession) TileRange(ctx context.Context, z int, rect tiles.Rect) ([]*TileResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := rs.r
	tc := r.cfg.tileConfig()
	if z < 0 || z > tc.MaxZoom {
		return nil, fmt.Errorf("serve: tile zoom %d out of [0, %d]", z, tc.MaxZoom)
	}
	r.queries.Add(1)
	live := r.tileShards(z, rect)
	if len(live) == 0 {
		r.shortCircuits.Add(1)
		return nil, nil
	}
	parts := scatterQ(ctx, rs, live,
		func(ctx context.Context, shard int, sub *Session) []*tiles.Tile {
			_ = sub.SetFilter(rs.filter)
			return sub.tileRangeRaw(z, rect)
		})
	byAddr := make(map[[2]int][]*tiles.Tile)
	for _, part := range parts {
		for _, t := range part {
			a := [2]int{t.X, t.Y}
			byAddr[a] = append(byAddr[a], t)
		}
	}
	addrs := make([][2]int, 0, len(byAddr))
	for a := range byAddr {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(a, b int) bool {
		if addrs[a][0] != addrs[b][0] {
			return addrs[a][0] < addrs[b][0]
		}
		return addrs[a][1] < addrs[b][1]
	})
	out := make([]*TileResult, 0, len(addrs))
	// One pooled buffer serves the whole viewport: each merge is rendered
	// (deep-copied) before the next overwrites it.
	buf := tileMergeBuf.Get().(*tiles.Tile)
	for _, a := range addrs {
		merged := tiles.MergeInto(buf, byAddr[a], tc.Exemplars)
		out = append(out, renderTile(merged, z, a[0], a[1], tc.Grid, r.cfg.TileThemes, r.themes))
	}
	tileMergeBuf.Put(buf)
	return out, nil
}

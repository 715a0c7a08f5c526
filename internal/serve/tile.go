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
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
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
	// descending, cluster ascending on ties), at most tileThemes.
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

// tileThemes is the number of top themes a tile reports.
const tileThemes = 4

// tileConfig resolves the pyramid configuration of this server's tiles.
func (cfg Config) tileConfig() tiles.Config {
	return tiles.Config{MaxZoom: cfg.TileMaxZoom}.WithDefaults()
}

// checkTileAddr validates a tile address against the pyramid configuration
// (a zoom alone as its tile (0, 0)).
func checkTileAddr(tc tiles.Config, z, x, y int) error {
	if z < 0 || z > tc.MaxZoom {
		return Errorf(ErrInvalid, "serve: tile zoom %d out of [0, %d]", z, tc.MaxZoom)
	}
	if n := 1 << z; x < 0 || x >= n || y < 0 || y >= n {
		return Errorf(ErrInvalid, "serve: tile (%d, %d) outside zoom %d", x, y, z)
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

	pyr, err := tiles.New(cfg, box)
	if err != nil {
		// cfg was validated at server construction and box is always
		// padded; an error here is a programming bug.
		panic(err)
	}
	// A point the pyramid refuses is left out, as a store saved with such
	// points persists no pyramid at all.
	_ = v.base.addPoints(pyr, v.tombs, &v.blocks[0].Meta)
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

// sidecarMetaConsistent reports whether every member of a decoded sidecar
// carries its base row's timestamp and facets, as addPoints stamps them:
// filtered map reads test members in place.
func (st *Store) sidecarMetaConsistent(pyr *tiles.Pyramid) bool {
	meta := &st.Meta
	all := tiles.Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)}
	ok := true
	pyr.Search(all, func(leaf []tiles.Member) {
		for i := 0; i < len(leaf) && ok; i++ {
			m := &leaf[i]
			ts, row := int64(0), []int64(nil)
			if j := meta.Row(m.Doc); j >= 0 {
				ts, row = meta.Times[j], meta.FacetRow(j)
			}
			ok = m.Time == ts && len(m.Facets) == len(row)
			for k := 0; k < len(m.Facets) && ok; k++ {
				ok = pyr.Facet(m.Facets[k]) == meta.Dict[row[k]]
			}
		}
	})
	return ok
}

// dropTiles forgets the sidecar and the pyramid once their base changed
// (Rebase, SetBaseMeta); the next query rebuilds from the points.
func (st *Store) dropTiles() {
	st.live.tileMu.Lock()
	defer st.live.tileMu.Unlock()
	st.live.tileSidecar, st.live.tileRaw = nil, nil
	st.live.tilePyr, st.live.tileView = nil, nil
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
	pyr, err := tiles.New(tc, box)
	if err != nil {
		return nil, err
	}
	if err := st.baseView().addPoints(pyr, nil, &st.Meta); err != nil {
		return nil, err
	}
	return pyr, nil
}

// addPoints bins every base point — bar the documents in dead (nil: none)
// and rebased holes — into pyr with its cluster and its row of meta, the
// base block's metadata: the one fill of both the persisted pyramid and a
// rebuilt one. It reports the first point the pyramid refused (a duplicate
// or non-finite one) after binning the rest.
func (b *baseView) addPoints(pyr *tiles.Pyramid, dead map[int64]bool, meta *segment.Meta) error {
	clusters := make(map[int64]int64, len(b.assignDocs))
	for i, d := range b.assignDocs {
		clusters[d] = b.assignClusters[i]
	}
	var err error
	for _, pt := range b.points {
		if dead[pt.Doc] || b.holes[pt.Doc] {
			continue
		}
		c, ok := clusters[pt.Doc]
		if !ok {
			c = -1
		}
		ts, facets := meta.Lookup(pt.Doc)
		if !pyr.Add(tiles.Entry{Doc: pt.Doc, X: pt.X, Y: pt.Y, Cluster: c, Time: ts, Facets: facets}) && err == nil {
			err = fmt.Errorf("serve: tile pyramid: duplicate or non-finite point for doc %d", pt.Doc)
		}
	}
	return err
}

// --- server side -----------------------------------------------------------

// tileKey keys the server's tile LRU: every published change advances the
// epoch, so stale tiles age out without any sweep — the same
// self-invalidation the similarity caches use.
type tileKey struct {
	epoch   uint64
	z, x, y int
}

// tileFor answers one tile address under view v and filter f as an
// immutable snapshot (nil = empty). Unfiltered it reads the epoch-keyed LRU,
// falling through to the maintained pyramid on a miss. Filtered it builds the
// tile from the matching members, bypassing the LRU: caching per filter
// would let one session's predicate evict every session's unfiltered tiles.
func (s *Server) tileFor(v *view, f Filter, z, x, y int) *tiles.Tile {
	var cp *tiles.Tile
	if !f.Empty() {
		s.store.withPyramid(v, s.cfg.tileConfig(), func(p *tiles.Pyramid) {
			w := p.Where(f.After, f.Before, f.Facets)
			cp = p.TileWhere(z, x, y, &w)
		})
		return cp
	}
	key := tileKey{epoch: v.epoch, z: z, x: x, y: y}
	s.tmu.Lock()
	t, ok := s.tiles.get(key)
	s.tmu.Unlock()
	if ok {
		s.tileHits.Add(1)
		return t
	}
	s.tileMisses.Add(1)
	s.store.withPyramid(v, s.cfg.tileConfig(), func(p *tiles.Pyramid) {
		cp = p.Tile(z, x, y).Clone()
	})
	s.tmu.Lock()
	s.tiles.add(key, cp)
	s.tmu.Unlock()
	return cp
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

// tile answers OpTile, or its shard half opTileRaw (unrendered, for a
// router's merge), through the epoch-keyed tile LRU.
func (s *Server) tile(q *Query, tc tiles.Config) Result {
	raw := s.tileFor(s.store.viewNow(), q.Filter, q.Z, q.TX, q.TY)
	if q.Op == opTileRaw {
		return Result{raw: raw}
	}
	return Result{Tile: renderTile(raw, q.Z, q.TX, q.TY, tc.Grid, tileThemes, s.store.Themes)}
}

// tileRange answers OpTileRange (or opTileRangeRaw): every non-empty tile at
// zoom q.Z intersecting q.Rect, ordered by (x, y) — a viewport in one call.
// The quadtree walk prunes subtrees outside the rect (Stats.TilesPruned).
// Unfiltered, each admitted tile answers through the tile LRU; filtered, the
// filter compiles once and every admitted tile builds under the same lock.
func (s *Server) tileRange(q *Query, tc tiles.Config) Result {
	v := s.store.viewNow()
	var coords [][2]int
	var raws []*tiles.Tile
	var pruned int
	s.store.withPyramid(v, tc, func(p *tiles.Pyramid) {
		ts, pr := p.Range(q.Z, q.Rect)
		pruned = pr
		if q.Filter.Empty() {
			for _, t := range ts {
				coords = append(coords, [2]int{t.X, t.Y})
			}
			return
		}
		w := p.Where(q.Filter.After, q.Filter.Before, q.Filter.Facets)
		for _, t := range ts {
			// A tile with no matching member is absent, as when unsharded.
			if raw := p.TileWhere(q.Z, t.X, t.Y, &w); raw != nil {
				raws = append(raws, raw)
			}
		}
	})
	s.tilesPruned.Add(uint64(pruned))
	for _, c := range coords {
		if raw := s.tileFor(v, Filter{}, q.Z, c[0], c[1]); raw != nil {
			raws = append(raws, raw)
		}
	}
	if q.Op == opTileRangeRaw {
		return Result{raws: raws} // immutable; the merge only reads them
	}
	res := Result{Tiles: make([]*TileResult, 0, len(raws))}
	for _, raw := range raws {
		res.Tiles = append(res.Tiles, renderTile(raw, q.Z, raw.X, raw.Y, tc.Grid, tileThemes, s.store.Themes))
	}
	return res
}

// --- router side -----------------------------------------------------------

// tileShards returns the shards whose data bounding box overlaps the bin
// window [x0, x1] × [y0, y1] at zoom z — a shard none of whose points can bin
// inside it is never asked — written over dst[:0]. The comparison runs in
// bin-index space with the member binning arithmetic, so boundary points
// never mis-prune.
func (r *Router) tileShards(dst []int, z, x0, y0, x1, y1 int) []int {
	r.boxMu.RLock()
	defer r.boxMu.RUnlock()
	out := dst[:0]
	for i := range r.sets {
		if !r.boxOK[i] {
			continue
		}
		sx0, sy0, sx1, sy1, _ := tiles.BinWindow(r.tileBox, z, r.boxes[i])
		if sx0 <= x1 && x0 <= sx1 && sy0 <= y1 && y0 <= sy1 {
			out = append(out, i)
		}
	}
	return out
}

// rectShards is tileShards over rect's bin window at zoom z.
func (r *Router) rectShards(dst []int, z int, rect tiles.Rect) []int {
	x0, y0, x1, y1, ok := tiles.BinWindow(r.tileBox, z, rect)
	if !ok {
		return dst[:0]
	}
	return r.tileShards(dst, z, x0, y0, x1, y1)
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

// planTile prunes a routed tile to the shards whose data bounding box covers
// its extent; when none does, the empty tile is the answer.
func planTile(rs *RouterSession, q Query) ([]int, Result, error) {
	r := rs.r
	rs.scratchShards = r.tileShards(rs.scratchShards, q.Z, q.TX, q.TY, q.TX, q.TY)
	if len(rs.scratchShards) == 0 {
		tc := r.cfg.tileConfig()
		return rs.shortCircuit(Result{Tile: renderTile(nil, q.Z, q.TX, q.TY, tc.Grid, tileThemes, r.themes)})
	}
	rs.sub.Op = opTileRaw
	return rs.scratchShards, Result{}, nil
}

// mergeTile merges the shards' raw tiles: densities and theme histograms sum,
// exemplar sets union and trim — bit-identical to the single-store answer
// over the unsharded snapshot.
func mergeTile(rs *RouterSession, q Query, parts []Result) Result {
	raws := gather(nil, parts, func(p *Result) *tiles.Tile { return p.raw })
	return Result{Tile: rs.r.renderMerged(raws, q.Z, q.TX, q.TY)}
}

// renderMerged merges the raw tiles of one address and renders the reply
// tile. The merged tile is transient — renderTile deep-copies everything it
// keeps — so the merge buffer cycles through a pool instead of allocating a
// tile (plus density grid) per gathered address.
func (r *Router) renderMerged(raws []*tiles.Tile, z, x, y int) *TileResult {
	tc := r.cfg.tileConfig()
	buf := tileMergeBuf.Get().(*tiles.Tile)
	res := renderTile(tiles.MergeInto(buf, raws, tc.Exemplars), z, x, y, tc.Grid, tileThemes, r.themes)
	tileMergeBuf.Put(buf)
	return res
}

var tileMergeBuf = sync.Pool{New: func() any { return new(tiles.Tile) }}

// planTileRange asks only the shards whose bounding box intersects the rect;
// when none does, the viewport is empty, as on a single store.
func planTileRange(rs *RouterSession, q Query) ([]int, Result, error) {
	rs.scratchShards = rs.r.rectShards(rs.scratchShards, q.Z, q.Rect)
	if len(rs.scratchShards) == 0 {
		return rs.shortCircuit(Result{Tiles: []*TileResult{}})
	}
	rs.sub.Op = opTileRangeRaw
	return rs.scratchShards, Result{}, nil
}

// mergeTileRange merges the shards' raw tiles address by address, ordered by
// (x, y) — identical to the single-store answer.
func mergeTileRange(rs *RouterSession, q Query, parts []Result) Result {
	byAddr := make(map[[2]int][]*tiles.Tile)
	for _, part := range parts {
		for _, t := range part.raws {
			a := [2]int{t.X, t.Y}
			byAddr[a] = append(byAddr[a], t)
		}
	}
	addrs := slices.SortedFunc(maps.Keys(byAddr), func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	out := make([]*TileResult, 0, len(addrs))
	for _, a := range addrs {
		out = append(out, rs.r.renderMerged(byAddr[a], q.Z, a[0], a[1]))
	}
	return Result{Tiles: out}
}

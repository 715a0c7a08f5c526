// Package tiles implements the Galaxy tile pyramid: a quadtree of
// multi-resolution aggregates over the ThemeView projection, the
// level-of-detail structure that lets a client render millions of projected
// documents without pulling a single raw point. Zoom 0 is one tile covering
// the whole projection; each zoom doubles the resolution per axis, so tile
// (z, x, y) covers cell (x, y) of a 2^z x 2^z grid over the world bounds.
//
// Every tile stores exact integer aggregates of the documents binned under
// it: a Grid x Grid density grid of point counts, the document count, a
// sparse per-theme histogram, a sparse per-day time histogram, a sparse
// per-facet count, and the smallest document IDs as exemplars. Because each
// aggregate is a pure, order-independent function of the tile's member set,
// a pyramid maintained incrementally (Add/Remove as documents ingest and
// delete) is identical to one rebuilt from scratch, and per-shard pyramids
// merge into exactly the monolithic answer (densities and histograms sum;
// exemplar sets union-and-trim).
//
// Binning is exact across zoom levels: a point's normalized coordinate is
// scaled by powers of two (exact in binary floating point), so the cell a
// point lands in at zoom z is always the parent of its cell at zoom z+1, for
// every input. Points outside the world bounds clamp to the edge cells, so a
// pyramid's bounds can be frozen while documents keep arriving.
package tiles

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
)

// Config tunes a pyramid. The zero value selects the documented defaults.
type Config struct {
	// MaxZoom is the deepest zoom level (leaf tiles); zoom levels are
	// 0..MaxZoom. Default 6, maximum 14.
	MaxZoom int
	// Grid is the per-tile density grid dimension; must be a power of two
	// so grid cells nest exactly across zoom levels. Default 8, maximum 64.
	Grid int
	// Exemplars is the number of exemplar document IDs kept per tile (the
	// smallest member IDs). Default 4, maximum 64.
	Exemplars int
}

// Codec bounds: Decode rejects anything larger, so corrupt or adversarial
// sidecars cannot demand huge allocations or quadratic work.
const (
	maxMaxZoom   = 14
	maxGrid      = 64
	maxExemplars = 64
)

// WithDefaults fills zero fields with the documented defaults.
func (c Config) WithDefaults() Config {
	if c.MaxZoom <= 0 {
		c.MaxZoom = 6
	}
	if c.Grid <= 0 {
		c.Grid = 8
	}
	if c.Exemplars <= 0 {
		c.Exemplars = 4
	}
	return c
}

// Validate checks the configuration bounds.
func (c Config) Validate() error {
	switch {
	case c.MaxZoom < 1 || c.MaxZoom > maxMaxZoom:
		return fmt.Errorf("tiles: max zoom %d out of [1, %d]", c.MaxZoom, maxMaxZoom)
	case c.Grid < 1 || c.Grid > maxGrid || c.Grid&(c.Grid-1) != 0:
		return fmt.Errorf("tiles: grid %d is not a power of two in [1, %d]", c.Grid, maxGrid)
	case c.Exemplars < 1 || c.Exemplars > maxExemplars:
		return fmt.Errorf("tiles: exemplar count %d out of [1, %d]", c.Exemplars, maxExemplars)
	}
	return nil
}

// Rect is an axis-aligned rectangle in projection coordinates, also used as
// the pyramid's world bounds.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Intersects reports whether two closed rectangles overlap.
func (r Rect) Intersects(o Rect) bool {
	return r.MinX <= o.MaxX && o.MinX <= r.MaxX && r.MinY <= o.MaxY && o.MinY <= r.MaxY
}

// Validate checks that the rectangle is finite with positive extent on both
// axes — what the binning arithmetic needs of world bounds.
func (r Rect) Validate() error {
	for _, f := range []float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("tiles: bounds not finite")
		}
	}
	if r.MaxX <= r.MinX || r.MaxY <= r.MinY {
		return fmt.Errorf("tiles: bounds have empty extent")
	}
	return nil
}

// NewBounds builds world bounds from a coordinate bounding box, padding
// degenerate axes to unit extent (the BuildTerrain convention) so binning
// always has room.
func NewBounds(minX, minY, maxX, maxY float64) Rect {
	if maxX <= minX {
		maxX = minX + 1
	}
	if maxY <= minY {
		maxY = minY + 1
	}
	return Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
}

// BinWindow returns the inclusive tile-index window that rect r covers at
// zoom z under bounds b, computed with exactly the binning arithmetic
// members use (monotone normalization + clamped power-of-two floor). Because
// the same arithmetic places both members and windows, a point inside r is
// always binned inside the window — no epsilon, no edge-rounding misses,
// and coordinates beyond the bounds clamp into the edge cells on both
// sides. ok is false when r is empty or not-a-number.
func BinWindow(b Rect, z int, r Rect) (x0, y0, x1, y1 int, ok bool) {
	if !(r.MinX <= r.MaxX && r.MinY <= r.MaxY) {
		return 0, 0, 0, 0, false
	}
	ex, ey := b.MaxX-b.MinX, b.MaxY-b.MinY
	n := 1 << z
	x0 = clampBin((r.MinX-b.MinX)/ex, n)
	x1 = clampBin((r.MaxX-b.MinX)/ex, n)
	y0 = clampBin((r.MinY-b.MinY)/ey, n)
	y1 = clampBin((r.MaxY-b.MinY)/ey, n)
	return x0, y0, x1, y1, true
}

// TileRectIn returns the world rectangle of tile (z, x, y) under bounds b —
// a rendering aid. Spatial pruning never compares world rectangles (edge
// rounding would mis-prune boundary points); it uses BinWindow.
func TileRectIn(b Rect, z, x, y int) Rect {
	n := float64(int64(1) << z)
	w := (b.MaxX - b.MinX) / n
	h := (b.MaxY - b.MinY) / n
	return Rect{
		MinX: b.MinX + float64(x)*w,
		MinY: b.MinY + float64(y)*h,
		MaxX: b.MinX + float64(x+1)*w,
		MaxY: b.MinY + float64(y+1)*h,
	}
}

// Entry is one projected document: its ID, projection coordinates, theme
// cluster (-1 when unassigned — documents ingested after the clustering
// run), ingest timestamp (unix seconds; 0 = no timestamp) and facet strings
// ("key=value", strictly ascending, nil when the document carries none).
type Entry struct {
	Doc     int64
	X, Y    float64
	Cluster int64
	Time    int64
	Facets  []string
}

// Member is an entry as its pyramid holds it: facets as IDs (see Facet).
type Member struct {
	Doc           int64
	X, Y          float64
	Cluster, Time int64
	Facets        []uint32
}

// ThemeCount is one theme's share of a tile, ascending by Cluster within a
// tile.
type ThemeCount struct {
	Cluster int64
	Docs    int64
}

// BucketSeconds is the width of one time-histogram bucket: a UTC day.
const BucketSeconds = 86400

// TimeBucket maps a unix-seconds timestamp to its day bucket (floor
// division, so pre-epoch timestamps bucket consistently too).
func TimeBucket(ts int64) int64 {
	q := ts / BucketSeconds
	if ts%BucketSeconds != 0 && ts < 0 {
		q--
	}
	return q
}

// TimeCount is one day bucket's share of a tile, ascending by Bucket within
// a tile. Documents without a timestamp (Time 0) count in Docs but not here.
type TimeCount struct {
	Bucket int64
	Docs   int64
}

// FacetCount is one facet string's share of a tile, ascending by Facet
// within a tile.
type FacetCount struct {
	Facet string
	Docs  int64
}

// Tile is one node of the pyramid: exact aggregates of the documents binned
// under it. Fields are maintained in place by Add/Remove; readers must copy
// (Clone) before releasing the pyramid's external lock.
type Tile struct {
	Z, X, Y int
	// Docs is the number of documents binned under this tile.
	Docs int64
	// Density is the Grid x Grid count raster over the tile's extent
	// (row-major, row 0 at MinY).
	Density []uint32
	// Themes is the sparse per-cluster histogram, ascending by cluster;
	// unassigned documents (cluster -1) count in Docs but not here.
	Themes []ThemeCount
	// Times is the sparse per-day histogram, ascending by bucket;
	// untimestamped documents (Time 0) count in Docs but not here.
	Times []TimeCount
	// Facets is the sparse per-facet count, ascending by facet string; a
	// document counts once under each of its facets.
	Facets []FacetCount
	// Exemplars holds the up-to-Config.Exemplars smallest member document
	// IDs, ascending — deterministic representatives at any zoom.
	Exemplars []int64
}

// Clone deep-copies the tile.
func (t *Tile) Clone() *Tile {
	if t == nil {
		return nil
	}
	cp := &Tile{Z: t.Z, X: t.X, Y: t.Y, Docs: t.Docs}
	cp.Density = append([]uint32(nil), t.Density...)
	cp.Themes = append([]ThemeCount(nil), t.Themes...)
	cp.Times = append([]TimeCount(nil), t.Times...)
	cp.Facets = append([]FacetCount(nil), t.Facets...)
	cp.Exemplars = append([]int64(nil), t.Exemplars...)
	return cp
}

// key packs a tile address; MaxZoom <= 14 keeps x and y under 2^28.
func key(z, x, y int) uint64 {
	return uint64(z)<<56 | uint64(x)<<28 | uint64(y)
}

// Pyramid is a quadtree tile pyramid over one set of projected documents.
// It is a pure data structure: callers synchronize access (the serving layer
// guards each pyramid with its own mutex).
type Pyramid struct {
	cfg Config
	b   Rect
	// tiles holds the aggregates of every non-empty tile at every zoom.
	tiles map[uint64]*Tile
	// leaves holds the members of every non-empty leaf (MaxZoom) tile,
	// ascending by document ID — the candidate lists spatial queries scan
	// and exemplar refills draw from.
	leaves map[uint64][]Member
	// loc resolves a member document to its entry, for removals.
	loc map[int64]Member
	// dict interns the facet strings members carry (ids reverses it); IDs
	// are never reused. Aggregates and the encoding keep strings.
	dict []string
	ids  map[string]uint32
	// TileWhere's counters, reused across calls and all zero between them.
	themeN, timeN, facetN []uint32
}

// New returns an empty pyramid with the given configuration and world
// bounds.
func New(cfg Config, b Rect) (*Pyramid, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &Pyramid{
		cfg:    cfg,
		b:      b,
		tiles:  make(map[uint64]*Tile),
		leaves: make(map[uint64][]Member),
		loc:    make(map[int64]Member),
		ids:    make(map[string]uint32),
	}, nil
}

// Build constructs a pyramid over the entries. Entry order never matters:
// every aggregate is a pure function of the member set.
func Build(cfg Config, b Rect, entries []Entry) (*Pyramid, error) {
	p, err := New(cfg, b)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !p.Add(e) {
			return nil, errRefused(e.Doc)
		}
	}
	return p, nil
}

// errRefused reports an entry Add refused.
func errRefused(doc int64) error {
	return fmt.Errorf("tiles: document %d refused: a duplicate or negative document, non-finite coordinates, a cluster below -1, or facets empty, over 1024 bytes or not strictly ascending", doc)
}

// Config returns the pyramid's configuration.
func (p *Pyramid) Config() Config { return p.cfg }

// Bounds returns the pyramid's world bounds.
func (p *Pyramid) Bounds() Rect { return p.b }

// NumDocs returns the number of member documents.
func (p *Pyramid) NumDocs() int { return len(p.loc) }

// NumTiles returns the number of non-empty tiles across all zoom levels.
func (p *Pyramid) NumTiles() int { return len(p.tiles) }

// norm maps projection coordinates to the unit square of the world bounds
// (values outside [0,1] clamp at bin time).
func (p *Pyramid) norm(x, y float64) (u, v float64) {
	return (x - p.b.MinX) / (p.b.MaxX - p.b.MinX), (y - p.b.MinY) / (p.b.MaxY - p.b.MinY)
}

// clampBin returns floor(u*n) clamped into [0, n-1]. n is always a power of
// two, so u*n is an exact scaling and bins nest exactly across zoom levels.
// The clamp compares in float space: a coordinate far outside the bounds can
// overflow int64 (or reach infinity) at the finer granularities, and both
// edges must clamp consistently at every level.
func clampBin(u float64, n int) int {
	f := math.Floor(u * float64(n))
	if !(f > 0) { // negative, zero, or NaN
		return 0
	}
	if f >= float64(n) {
		return n - 1
	}
	return int(f)
}

// tileAt returns (creating on demand) the tile at (z, x, y).
func (p *Pyramid) tileAt(z, x, y int) *Tile {
	k := key(z, x, y)
	t := p.tiles[k]
	if t == nil {
		t = &Tile{Z: z, X: x, Y: y, Density: make([]uint32, p.cfg.Grid*p.cfg.Grid)}
		p.tiles[k] = t
	}
	return t
}

// Add bins one document into every zoom level. It returns false (and changes
// nothing) for an entry Decode would refuse, so every pyramid Add builds
// round-trips through Encode: a document that is negative or already a
// member, coordinates that are not finite, a cluster below -1, or facets
// that are more than the codec admits (64), empty, longer than 1024 bytes or
// not strictly ascending — a repeated facet would count twice in every tile
// histogram on the member's path.
func (p *Pyramid) Add(e Entry) bool {
	if _, dup := p.loc[e.Doc]; dup || e.Doc < 0 || e.Cluster < -1 || len(e.Facets) > maxEntryFacets {
		return false
	}
	if math.IsNaN(e.X) || math.IsInf(e.X, 0) || math.IsNaN(e.Y) || math.IsInf(e.Y, 0) {
		return false
	}
	for i, f := range e.Facets {
		if f == "" || len(f) > maxFacetLen || (i > 0 && f <= e.Facets[i-1]) {
			return false
		}
	}
	m := Member{Doc: e.Doc, X: e.X, Y: e.Y, Cluster: e.Cluster, Time: e.Time}
	if len(e.Facets) > 0 {
		m.Facets = make([]uint32, len(e.Facets))
		for i, f := range e.Facets {
			id, ok := p.ids[f]
			if !ok {
				id = uint32(len(p.dict))
				p.dict = append(p.dict, f)
				p.ids[f] = id
			}
			m.Facets[i] = id
		}
	}
	p.loc[m.Doc] = m
	u, v := p.norm(m.X, m.Y)
	g := p.cfg.Grid
	for z := 0; z <= p.cfg.MaxZoom; z++ {
		n := 1 << z
		tx, ty := clampBin(u, n), clampBin(v, n)
		t := p.tileAt(z, tx, ty)
		t.Docs++
		gx := clampBin(u, n*g) - tx*g
		gy := clampBin(v, n*g) - ty*g
		t.Density[gy*g+gx]++
		if m.Cluster >= 0 {
			t.addTheme(m.Cluster, 1)
		}
		p.addMeta(t, m, 1)
		t.addExemplar(m.Doc, p.cfg.Exemplars)
	}
	lk := key(p.cfg.MaxZoom, clampBin(u, 1<<p.cfg.MaxZoom), clampBin(v, 1<<p.cfg.MaxZoom))
	l := p.leaves[lk]
	i := sort.Search(len(l), func(i int) bool { return l[i].Doc >= m.Doc })
	l = append(l, Member{})
	copy(l[i+1:], l[i:])
	l[i] = m
	p.leaves[lk] = l
	return true
}

// Facet returns the string of facet ID id.
func (p *Pyramid) Facet(id uint32) string { return p.dict[id] }

// Remove unbins one document from every zoom level; false when it is not a
// member. Tiles left empty are deleted, so an incrementally maintained
// pyramid stays identical to one rebuilt from the surviving members.
func (p *Pyramid) Remove(doc int64) bool {
	e, ok := p.loc[doc]
	if !ok {
		return false
	}
	delete(p.loc, doc)
	u, v := p.norm(e.X, e.Y)
	g := p.cfg.Grid
	// Drop the leaf entry before the aggregate walk: exemplar refills read
	// the leaf lists and must not see the departing document.
	lk := key(p.cfg.MaxZoom, clampBin(u, 1<<p.cfg.MaxZoom), clampBin(v, 1<<p.cfg.MaxZoom))
	l := p.leaves[lk]
	li := sort.Search(len(l), func(i int) bool { return l[i].Doc >= doc })
	l = append(l[:li], l[li+1:]...)
	if len(l) == 0 {
		delete(p.leaves, lk)
	} else {
		p.leaves[lk] = l
	}
	for z := 0; z <= p.cfg.MaxZoom; z++ {
		n := 1 << z
		tx, ty := clampBin(u, n), clampBin(v, n)
		k := key(z, tx, ty)
		t := p.tiles[k]
		t.Docs--
		if t.Docs == 0 {
			delete(p.tiles, k)
			continue
		}
		gx := clampBin(u, n*g) - tx*g
		gy := clampBin(v, n*g) - ty*g
		t.Density[gy*g+gx]--
		if e.Cluster >= 0 {
			t.addTheme(e.Cluster, -1)
		}
		p.addMeta(t, e, -1)
		t.dropExemplar(doc)
		if len(t.Exemplars) < p.cfg.Exemplars && t.Docs > int64(len(t.Exemplars)) {
			p.refillExemplars(t)
		}
	}
	return true
}

// addTheme adjusts the sparse per-cluster histogram, keeping it ascending by
// cluster and dropping zeroed entries.
func (t *Tile) addTheme(cluster, delta int64) {
	i := sort.Search(len(t.Themes), func(i int) bool { return t.Themes[i].Cluster >= cluster })
	if i < len(t.Themes) && t.Themes[i].Cluster == cluster {
		t.Themes[i].Docs += delta
		if t.Themes[i].Docs == 0 {
			t.Themes = append(t.Themes[:i], t.Themes[i+1:]...)
			if len(t.Themes) == 0 {
				// Keep "no themes" canonical (nil), so an incrementally
				// emptied histogram compares equal to a rebuilt one.
				t.Themes = nil
			}
		}
		return
	}
	t.Themes = append(t.Themes, ThemeCount{})
	copy(t.Themes[i+1:], t.Themes[i:])
	t.Themes[i] = ThemeCount{Cluster: cluster, Docs: delta}
}

// addMeta adjusts tile t's time and facet histograms for one member — the
// metadata twin of addTheme, with the same nil-when-empty canonical form so
// incremental and rebuilt pyramids stay identical.
func (p *Pyramid) addMeta(t *Tile, e Member, delta int64) {
	if e.Time != 0 {
		t.addTime(TimeBucket(e.Time), delta)
	}
	for _, id := range e.Facets {
		t.addFacet(p.dict[id], delta)
	}
}

// addTime adjusts the sparse per-day histogram, keeping it ascending by
// bucket and dropping zeroed entries.
func (t *Tile) addTime(bucket, delta int64) {
	i := sort.Search(len(t.Times), func(i int) bool { return t.Times[i].Bucket >= bucket })
	if i < len(t.Times) && t.Times[i].Bucket == bucket {
		t.Times[i].Docs += delta
		if t.Times[i].Docs == 0 {
			t.Times = append(t.Times[:i], t.Times[i+1:]...)
			if len(t.Times) == 0 {
				t.Times = nil
			}
		}
		return
	}
	t.Times = append(t.Times, TimeCount{})
	copy(t.Times[i+1:], t.Times[i:])
	t.Times[i] = TimeCount{Bucket: bucket, Docs: delta}
}

// addFacet adjusts the sparse per-facet count, keeping it ascending by facet
// string and dropping zeroed entries.
func (t *Tile) addFacet(facet string, delta int64) {
	i := sort.Search(len(t.Facets), func(i int) bool { return t.Facets[i].Facet >= facet })
	if i < len(t.Facets) && t.Facets[i].Facet == facet {
		t.Facets[i].Docs += delta
		if t.Facets[i].Docs == 0 {
			t.Facets = append(t.Facets[:i], t.Facets[i+1:]...)
			if len(t.Facets) == 0 {
				t.Facets = nil
			}
		}
		return
	}
	t.Facets = append(t.Facets, FacetCount{})
	copy(t.Facets[i+1:], t.Facets[i:])
	t.Facets[i] = FacetCount{Facet: facet, Docs: delta}
}

// addExemplar inserts doc into the sorted exemplar set if it belongs among
// the cap smallest member IDs.
func (t *Tile) addExemplar(doc int64, cap int) {
	n := len(t.Exemplars)
	if n == cap && doc >= t.Exemplars[n-1] {
		return
	}
	i := sort.Search(n, func(i int) bool { return t.Exemplars[i] >= doc })
	t.Exemplars = append(t.Exemplars, 0)
	copy(t.Exemplars[i+1:], t.Exemplars[i:])
	t.Exemplars[i] = doc
	if len(t.Exemplars) > cap {
		t.Exemplars = t.Exemplars[:cap]
	}
}

// dropExemplar removes doc from the exemplar set if present.
func (t *Tile) dropExemplar(doc int64) {
	i := sort.Search(len(t.Exemplars), func(i int) bool { return t.Exemplars[i] >= doc })
	if i < len(t.Exemplars) && t.Exemplars[i] == doc {
		t.Exemplars = append(t.Exemplars[:i], t.Exemplars[i+1:]...)
	}
}

// refillExemplars recomputes a tile's exemplar set from the leaf lists under
// it — needed when a removal evicted an exemplar while more members remain.
// The result is the cap smallest member IDs, the same pure function Add
// maintains, so removal keeps incremental and rebuilt pyramids identical.
func (p *Pyramid) refillExemplars(t *Tile) {
	t.Exemplars = t.Exemplars[:0]
	p.under(t.Z, t.X, t.Y, func(l []Member) {
		for i := 0; i < len(l) && i < p.cfg.Exemplars; i++ {
			t.addExemplar(l[i].Doc, p.cfg.Exemplars)
		}
	})
}

// Tile returns the live tile at (z, x, y), or nil when it is empty. The
// returned pointer aliases pyramid state: copy (Clone) before releasing the
// caller's lock.
func (p *Pyramid) Tile(z, x, y int) *Tile {
	return p.tiles[key(z, x, y)]
}

// Where is a metadata filter compiled against one pyramid (Pyramid.Where).
type Where struct {
	after, before int64
	facets        [maxEntryFacets]uint32 // wanted IDs: facets[:nf]
	nf            int
	none          bool
}

// Where compiles "timestamp in [after, before] (0 open; a member without
// one fails a bounded window) and every listed facet present" against p's
// facet IDs. A facet p never interned, or more than 64, matches nothing.
func (p *Pyramid) Where(after, before int64, facets []string) Where {
	w := Where{after: after, before: before}
	for _, f := range facets {
		id, ok := p.ids[f]
		if ok && slices.Contains(w.facets[:w.nf], id) {
			continue
		}
		if !ok || w.nf == maxEntryFacets {
			return Where{none: true}
		}
		w.facets[w.nf] = id
		w.nf++
	}
	return w
}

// None reports whether the filter can match no member of its pyramid.
func (w *Where) None() bool { return w.none }

// Keep tests one member in place.
func (w *Where) Keep(m *Member) bool {
	if w.none || (w.after != 0 || w.before != 0) &&
		(m.Time == 0 || w.after != 0 && m.Time < w.after || w.before != 0 && m.Time > w.before) {
		return false
	}
	for _, id := range w.facets[:w.nf] {
		if !slices.Contains(m.Facets, id) {
			return false
		}
	}
	return true
}

// denseSpan bounds TileWhere's counters: clusters below it, days within it
// of the tile's first. A histogram reaching further is counted sparsely.
const denseSpan = 1 << 16

// TileWhere builds the tile at (z, x, y) over only the members w keeps —
// the tile a pyramid over the matching subset holds there — freshly
// allocated; nil when nothing matches. It descends under the address and
// counts into the pyramid's dense counters (themes by cluster, days by
// bucket, facets by ID), then emits each histogram by walking the
// unfiltered tile's, which holds every key in order. Like Add, it needs the
// caller's exclusive lock.
func (p *Pyramid) TileWhere(z, x, y int, w *Where) *Tile {
	if z < 0 || z > p.cfg.MaxZoom || x < 0 || y < 0 || x >= 1<<z || y >= 1<<z || w.none {
		return nil
	}
	all := p.tiles[key(z, x, y)]
	if all == nil {
		return nil
	}
	var themes, times []uint32
	if k := len(all.Themes); k > 0 && all.Themes[k-1].Cluster < denseSpan {
		p.themeN = slices.Grow(p.themeN[:0], int(all.Themes[k-1].Cluster)+1)
		themes = p.themeN[:int(all.Themes[k-1].Cluster)+1]
	}
	var lo int64
	if k := len(all.Times); k > 0 && all.Times[k-1].Bucket-all.Times[0].Bucket < denseSpan {
		lo = all.Times[0].Bucket
		p.timeN = slices.Grow(p.timeN[:0], int(all.Times[k-1].Bucket-lo)+1)
		times = p.timeN[:int(all.Times[k-1].Bucket-lo)+1]
	}
	p.facetN = slices.Grow(p.facetN[:0], len(p.dict))
	facets := p.facetN[:len(p.dict)]
	g, n := p.cfg.Grid, 1<<z
	var out *Tile
	p.under(z, x, y, func(l []Member) {
		for i := range l {
			m := &l[i]
			if !w.Keep(m) {
				continue
			}
			if out == nil {
				// Room for one more exemplar than kept: inserting never grows.
				out = &Tile{Z: z, X: x, Y: y, Density: make([]uint32, g*g), Exemplars: make([]int64, 0, p.cfg.Exemplars+1)}
			}
			u, v := p.norm(m.X, m.Y)
			out.Docs++
			out.Density[(clampBin(v, n*g)-y*g)*g+clampBin(u, n*g)-x*g]++
			if m.Cluster >= 0 && themes != nil {
				themes[m.Cluster]++
			} else if m.Cluster >= 0 {
				out.addTheme(m.Cluster, 1)
			}
			if m.Time != 0 && times != nil {
				times[TimeBucket(m.Time)-lo]++
			} else if m.Time != 0 {
				out.addTime(TimeBucket(m.Time), 1)
			}
			for _, id := range m.Facets {
				facets[id]++
			}
			out.addExemplar(m.Doc, p.cfg.Exemplars)
		}
	})
	if out == nil {
		return nil
	}
	if themes != nil {
		out.Themes = counted(all.Themes, func(h ThemeCount) *uint32 { return &themes[h.Cluster] })
	}
	if times != nil {
		out.Times = counted(all.Times, func(h TimeCount) *uint32 { return &times[h.Bucket-lo] })
	}
	out.Facets = counted(all.Facets, func(h FacetCount) *uint32 { return &facets[p.ids[h.Facet]] })
	return out
}

// counted walks the unfiltered histogram all, emitting (and zeroing) each
// non-zero counter; nil when none. One allocation.
func counted[H interface{ withDocs(int64) H }](all []H, counter func(H) *uint32) []H {
	var out []H
	for _, h := range all {
		if c := counter(h); *c > 0 {
			if out == nil {
				out = make([]H, 0, len(all))
			}
			out = append(out, h.withDocs(int64(*c)))
			*c = 0
		}
	}
	return out
}

func (h ThemeCount) withDocs(n int64) ThemeCount { h.Docs = n; return h }
func (h TimeCount) withDocs(n int64) TimeCount   { h.Docs = n; return h }
func (h FacetCount) withDocs(n int64) FacetCount { h.Docs = n; return h }

// window is one zoom level's inclusive admission box during a walk.
type window struct{ x0, y0, x1, y1 int }

func (w window) admits(x, y int) bool {
	return x >= w.x0 && x <= w.x1 && y >= w.y0 && y <= w.y1
}

// windows precomputes r's bin window at every zoom level up to depth — by
// value, so a walk that needs no other memory allocates none; ok is false
// for empty/NaN rects.
func (p *Pyramid) windows(depth int, r Rect) (out [maxMaxZoom + 1]window, ok bool) {
	for z := 0; z <= depth; z++ {
		x0, y0, x1, y1, ok := BinWindow(p.b, z, r)
		if !ok {
			return out, false
		}
		out[z] = window{x0, y0, x1, y1}
	}
	return out, true
}

// Range returns the non-empty tiles at zoom z whose bin window intersects
// r's, ordered by (x, y), plus the number of non-empty subtrees the quadtree
// descent pruned without touching. The returned tiles are live pointers;
// copy before releasing the caller's lock.
func (p *Pyramid) Range(z int, r Rect) (out []*Tile, pruned int) {
	if z < 0 || z > p.cfg.MaxZoom {
		return nil, 0
	}
	wins, ok := p.windows(z, r)
	if !ok {
		return nil, 0
	}
	var walk func(zz, x, y int)
	walk = func(zz, x, y int) {
		t := p.tiles[key(zz, x, y)]
		if t == nil {
			return
		}
		if !wins[zz].admits(x, y) {
			pruned++
			return
		}
		if zz == z {
			out = append(out, t)
			return
		}
		for dy := 0; dy < 2; dy++ {
			for dx := 0; dx < 2; dx++ {
				walk(zz+1, 2*x+dx, 2*y+dy)
			}
		}
	}
	walk(0, 0, 0)
	sort.Slice(out, func(a, b int) bool {
		if out[a].X != out[b].X {
			return out[a].X < out[b].X
		}
		return out[a].Y < out[b].Y
	})
	return out, pruned
}

// under visits the leaves under tile (z, x, y) through non-empty tiles.
func (p *Pyramid) under(z, x, y int, visit func([]Member)) {
	wins, _ := p.windows(p.cfg.MaxZoom, Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)})
	p.search(&wins, z, x, y, visit)
}

// Search descends the quadtree to the leaf tiles admitted by r's bin
// windows and hands each one's members (ascending by document ID) to
// visit — the candidate set a spatial query then filters exactly — returning
// the number of leaves visited and of non-empty subtrees pruned. Each
// admitted leaf is visited once; the slice is the pyramid's own storage, so
// visit must neither modify nor retain it past the caller's lock. Nothing is
// copied or allocated: cost is proportional to the answer neighbourhood, not
// the corpus, and a point inside r is always among the candidates (the
// windows use the member binning arithmetic, clamping included).
func (p *Pyramid) Search(r Rect, visit func(leaf []Member)) (visited, pruned int) {
	wins, ok := p.windows(p.cfg.MaxZoom, r)
	if !ok {
		return 0, 0
	}
	return p.search(&wins, 0, 0, 0, visit)
}

// search is Search's descent below tile (z, x, y): a method, not a recursive
// closure, so the walk allocates nothing.
func (p *Pyramid) search(wins *[maxMaxZoom + 1]window, z, x, y int, visit func([]Member)) (visited, pruned int) {
	if z == p.cfg.MaxZoom {
		// A leaf tile exists exactly when it has members (Add, Remove), so
		// one lookup is both the existence test and the visit.
		l := p.leaves[key(z, x, y)]
		if len(l) == 0 {
			return 0, 0
		}
		if !wins[z].admits(x, y) {
			return 0, 1
		}
		visit(l)
		return 1, 0
	}
	if p.tiles[key(z, x, y)] == nil {
		return 0, 0
	}
	if !wins[z].admits(x, y) {
		return 0, 1
	}
	for dy := 0; dy < 2; dy++ {
		for dx := 0; dx < 2; dx++ {
			v, q := p.search(wins, z+1, 2*x+dx, 2*y+dy, visit)
			visited, pruned = visited+v, pruned+q
		}
	}
	return visited, pruned
}

// Merge sums per-shard instances of one tile address into the tile a
// monolithic pyramid over the union of the shards' documents would hold:
// densities, document counts and theme histograms add; the exemplar sets
// union and trim to the cap smallest (shards partition the documents, so
// every per-shard exemplar set contains the shard's candidates for the
// global set). nil entries (shards without the tile) are skipped; nil when
// every part is nil.
func Merge(parts []*Tile, exemplarCap int) *Tile {
	return MergeInto(nil, parts, exemplarCap)
}

// MergeInto is Merge with a caller-owned result tile: dst's slices are
// truncated and reused, so a serving gather loop can recycle one scratch
// tile (e.g. through a sync.Pool) and merge allocation-free once the buffers
// reach working-set size. dst may be nil (a fresh tile is allocated on the
// first non-nil part); it must not be one of parts. Returns nil — with dst
// left reusable — when every part is nil.
func MergeInto(dst *Tile, parts []*Tile, exemplarCap int) *Tile {
	var out *Tile
	for _, t := range parts {
		if t == nil {
			continue
		}
		if out == nil {
			out = dst
			if out == nil {
				out = &Tile{}
			}
			out.Z, out.X, out.Y = t.Z, t.X, t.Y
			out.Docs = 0
			if cap(out.Density) < len(t.Density) {
				out.Density = make([]uint32, len(t.Density))
			} else {
				out.Density = out.Density[:len(t.Density)]
				clear(out.Density)
			}
			out.Themes = out.Themes[:0]
			out.Times = out.Times[:0]
			out.Facets = out.Facets[:0]
			out.Exemplars = out.Exemplars[:0]
		}
		out.Docs += t.Docs
		for i, d := range t.Density {
			out.Density[i] += d
		}
		for _, th := range t.Themes {
			out.addTheme(th.Cluster, th.Docs)
		}
		for _, tc := range t.Times {
			out.addTime(tc.Bucket, tc.Docs)
		}
		for _, fc := range t.Facets {
			out.addFacet(fc.Facet, fc.Docs)
		}
		out.Exemplars = append(out.Exemplars, t.Exemplars...)
	}
	if out == nil {
		return nil
	}
	// slices.Sort, not sort.Slice: the generic sort needs no reflection and
	// no closure, keeping a warm merge allocation-free.
	slices.Sort(out.Exemplars)
	if len(out.Exemplars) > exemplarCap {
		out.Exemplars = out.Exemplars[:exemplarCap]
	}
	return out
}

// Clone deep-copies the pyramid.
func (p *Pyramid) Clone() *Pyramid {
	cp := &Pyramid{
		cfg:    p.cfg,
		b:      p.b,
		tiles:  make(map[uint64]*Tile, len(p.tiles)),
		leaves: make(map[uint64][]Member, len(p.leaves)),
		loc:    make(map[int64]Member, len(p.loc)),
		dict:   slices.Clone(p.dict),
		ids:    maps.Clone(p.ids),
	}
	for k, t := range p.tiles {
		cp.tiles[k] = t.Clone()
	}
	for k, l := range p.leaves {
		cp.leaves[k] = append([]Member(nil), l...)
	}
	for d, e := range p.loc {
		cp.loc[d] = e
	}
	return cp
}

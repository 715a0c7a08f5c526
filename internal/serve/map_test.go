package serve

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"inspire/internal/postings"
	"inspire/internal/project"
	"inspire/internal/tiles"
)

// The map reads — Near over the tile pyramid, ThemeDocs over the derived
// cluster index — are held to the code they replaced: the full point scan and
// the assignment scan + sort below.

// oracleNear is Near as it ran before the tile pyramid, verbatim: test every
// base and live point, keep the live, filter-matching ones inside the
// radius, sort.
func oracleNear(v *view, fs *filterSet, x, y, radius float64) []int64 {
	r2 := radius * radius
	var out []int64
	for _, pts := range [][]project.Point{v.base.points, v.pts} {
		for _, pt := range pts {
			dx, dy := pt.X-x, pt.Y-y
			if dx*dx+dy*dy <= r2 && !v.tombs[pt.Doc] &&
				(fs == nil || fs.contains(pt.Doc)) {
				out = append(out, pt.Doc)
			}
		}
	}
	slices.Sort(out)
	return out
}

// oracleThemeDocs is ThemeDocs as it ran before the cluster index, verbatim:
// scan every assignment, keep the cluster's live, filter-matching documents,
// sort.
func oracleThemeDocs(v *view, fs *filterSet, cluster int) []int64 {
	var out []int64
	for i, c := range v.base.assignClusters {
		if c == int64(cluster) && !v.tombs[v.base.assignDocs[i]] &&
			(fs == nil || fs.contains(v.base.assignDocs[i])) {
			out = append(out, v.base.assignDocs[i])
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// mapStore hand-builds a store carrying only the ThemeView products: n
// documents (null signatures, no postings) scattered uniformly over the
// unit square, each dealt to one of k clusters at random.
func mapStore(n, k int, seed int64) *Store {
	rng := rand.New(rand.NewSource(seed))
	st := &Store{TotalDocs: int64(n), K: k, Posts: postings.NewWriter(0).Finish(), SigVecs: make([][]float64, n)}
	for d := int64(0); d < int64(n); d++ {
		st.SigDocs = append(st.SigDocs, d)
		st.Points = append(st.Points, project.Point{Doc: d, X: rng.Float64(), Y: rng.Float64()})
		st.AssignDocs = append(st.AssignDocs, d)
		st.AssignClusters = append(st.AssignClusters, int64(rng.Intn(k)))
	}
	return st
}

// mapWorld is simWorld's corpus, stamped with metadata, served two ways — a
// monolithic store behind one server (srv) and a 4-shard router — and driven
// through one seeded stream of adds (some projected far outside the frozen
// tile bounds), seals, deletes, compactions and rebases.
type mapWorld struct {
	simWorld

	// meta is every document's metadata as stamped or added, the ground
	// truth the filtered-tile oracle selects by.
	meta                              map[int64]docMetaRow
	outOfBounds, compactions, rebases int
}

func newMapWorld(t *testing.T, seed int64) *mapWorld {
	t.Helper()
	st := batchStore(t, ingestSources(), 2)
	meta := stampMetaT(t, st)
	w := &mapWorld{simWorld: simWorld{t: t, rng: rand.New(rand.NewSource(seed)), mono: st.Fork(), next: st.TotalDocs}, meta: meta}
	var err error
	if w.shards, err = st.Shard(4); err != nil {
		t.Fatal(err)
	}
	pol := LivePolicy{SealDocs: 1 << 20, CompactSegments: 1 << 20, ManualCompaction: true}
	w.mono.SetLivePolicy(pol)
	for _, sh := range w.shards {
		sh.SetLivePolicy(pol)
	}
	w.srv = newServerT(t, w.mono, Config{})
	if w.router, err = NewRouter(w.shards, Config{}); err != nil {
		t.Fatal(err)
	}
	for d := int64(0); d < st.TotalDocs; d++ {
		w.live = append(w.live, d)
	}
	return w
}

// step applies one random operation.
func (w *mapWorld) step() {
	w.t.Helper()
	switch op := w.rng.Intn(12); {
	case op < 5: // a burst of adds, sealed so they are visible
		for i := 1 + w.rng.Intn(6); i > 0; i-- {
			doc := w.next
			w.next++
			// A third of the late arrivals carry a signature scaled far past
			// anything the batch run saw: the frozen projection places them
			// outside the tile bounds, where they must clamp into edge tiles
			// and stay findable.
			scale := 1.0
			if w.rng.Intn(3) == 0 {
				scale = 5 + 45*w.rng.Float64()
				w.outOfBounds++
			}
			sig := make([]float64, w.mono.SigM)
			for j := range sig {
				sig[j] = scale * w.rng.Float64()
			}
			var ts int64
			var facets []string
			if w.rng.Intn(4) > 0 {
				ts = 1000 + doc*10
				facets = []string{fmt.Sprintf("lang=l%d", doc%2), fmt.Sprintf("source=s%d", doc%3)}
			}
			w.live = append(w.live, doc)
			w.meta[doc] = docMetaRow{ts: ts, facets: facets}
			w.each(doc, func(st *Store) error { return st.AddCountsMeta(doc, nil, sig, ts, facets) })
			// The stores are written behind the router's back (the routed add
			// takes text, not a chosen signature), so keep its shard pruning
			// boxes covering the new point as its own add path does.
			px, py := w.mono.Planar.Project(sig)
			w.router.expandBox(ShardOf(doc, len(w.shards)), px, py)
		}
		w.each(-1, (*Store).Flush)
	case op < 9 && len(w.live) > 8:
		i := w.rng.Intn(len(w.live))
		doc := w.live[i]
		w.live = slices.Delete(w.live, i, i+1)
		w.each(doc, func(st *Store) error { return st.Delete(doc) })
	case op < 11:
		w.compactions++
		w.each(-1, (*Store).Compact)
	default:
		w.rebases++
		w.each(-1, (*Store).Rebase)
	}
}

// mapFilters is the filter palette of the map tests: none, one facet, a time
// bound with a facet.
func mapFilters() []Filter {
	return []Filter{{}, {Facets: []string{"source=s1"}}, {After: 1200, Facets: []string{"lang=l0"}}}
}

// oracleTiles builds, independently of the serving pyramid, the pyramid of
// only the live documents of view v whose ground-truth metadata passes f:
// base points (clusters from the assignment) and sealed ones (unassigned),
// tombstones and holes left out.
func (w *mapWorld) oracleTiles(v *view, tc tiles.Config, f Filter) *tiles.Pyramid {
	w.t.Helper()
	clusters := make(map[int64]int64, len(v.base.assignDocs))
	for i, d := range v.base.assignDocs {
		clusters[d] = v.base.assignClusters[i]
	}
	var entries []tiles.Entry
	for i, pts := range [][]project.Point{v.base.points, v.pts} {
		for _, pt := range pts {
			row := w.meta[pt.Doc]
			if v.tombs[pt.Doc] || v.base.holes[pt.Doc] || !metaMatches(f, row) {
				continue
			}
			c, ok := clusters[pt.Doc]
			if !ok || i == 1 {
				c = -1
			}
			entries = append(entries, tiles.Entry{Doc: pt.Doc, X: pt.X, Y: pt.Y, Cluster: c, Time: row.ts,
				Facets: slices.Sorted(slices.Values(row.facets))})
		}
	}
	p, err := tiles.Build(tc, *w.mono.TileBox, entries)
	if err != nil {
		w.t.Fatal(err)
	}
	return p
}

// filterBuilds sums the filter sets materialized by the mono server and by
// every shard server behind the router.
func (w *mapWorld) filterBuilds() (mono, routed uint64) {
	for _, set := range w.router.sets {
		routed += set.primary().Server().Stats().FilterBuilds
	}
	return w.srv.Stats().FilterBuilds, routed
}

// checkFilteredTiles holds, for every probe filter, the filtered Tile at
// every address that holds a live document and the filtered TileRange over
// the world — on the mono server and through the router — to the tiles of a
// pyramid built from only the live matching documents, and checks that none
// of those reads, nor a filtered Near, materializes a filter set.
func (w *mapWorld) checkFilteredTiles(label string, tiled *Session, routed *RouterSession) (checked int) {
	w.t.Helper()
	ctx := context.Background()
	tc := w.srv.cfg.tileConfig()
	v := w.mono.viewNow()
	all := w.oracleTiles(v, tc, Filter{})
	for _, f := range probeFilters() {
		want := w.oracleTiles(v, tc, f)
		for _, err := range []error{tiled.SetFilter(f), routed.SetFilter(f)} {
			if err != nil {
				w.t.Fatal(err)
			}
		}
		monoBuilds, routedBuilds := w.filterBuilds()
		for z := 0; z <= tc.MaxZoom; z++ {
			wantRange := []*TileResult{}
			for _, t := range must(all.Range(z, worldRect())) {
				wt := want.Tile(z, t.X, t.Y)
				exp := renderTile(wt, z, t.X, t.Y, tc.Grid, tileThemes, w.mono.Themes)
				if wt != nil {
					wantRange = append(wantRange, exp)
				}
				for _, q := range []Querier{tiled, routed} {
					got, err := q.Tile(ctx, z, t.X, t.Y)
					if err != nil || !reflect.DeepEqual(got, exp) {
						w.t.Fatalf("%s filter %+v: Tile(%d, %d, %d) = %+v, %v\nwant %+v", label, f, z, t.X, t.Y, got, err, exp)
					}
					checked++
				}
			}
			for _, q := range []Querier{tiled, routed} {
				got, err := q.TileRange(ctx, z, worldRect())
				if err != nil || !reflect.DeepEqual(got, wantRange) {
					w.t.Fatalf("%s filter %+v: TileRange(%d) = %d tiles, %v; want %d", label, f, z, len(got), err, len(wantRange))
				}
			}
		}
		tiled.Near(ctx, 0.5, 0.5, 1e9)
		routed.Near(ctx, 0.5, 0.5, 1e9)
		if m, r := w.filterBuilds(); m != monoBuilds || r != routedBuilds {
			w.t.Fatalf("%s filter %+v: map reads built filter sets: mono %d -> %d, routed %d -> %d", label, f, monoBuilds, m, routedBuilds, r)
		}
	}
	return checked
}

// must drops Range's pruned count.
func must(ts []*tiles.Tile, _ int) []*tiles.Tile { return ts }

// TestMapReadsDifferential holds, after every epoch of the stream and with
// the filter on and off, the tiled Near (one store and routed) to the full
// point scan for random centres and radii — zero, negative and
// all-encompassing included — and ThemeDocs (one store and routed) to the
// assignment scan + sort on the very view it read. The servers live for the
// whole run, so an index derived from one base is still warm when a rebase
// or compaction publishes the next: it must follow its base, never outlive
// it.
func TestMapReadsDifferential(t *testing.T) {
	ctx := context.Background()
	var outOfBounds, compactions, rebases, themeDocs, filteredTiles int
	for seed := int64(1); seed <= 3; seed++ {
		w := newMapWorld(t, seed)
		tiled, routed := w.srv.NewSession(), w.router.NewSession()
		for round := 0; round < 40; round++ {
			filteredTiles += w.checkFilteredTiles(fmt.Sprintf("seed %d round %d", seed, round), tiled, routed)
			v := w.mono.viewNow()
			box, _ := w.mono.DataBounds()
			for _, f := range mapFilters() {
				for _, err := range []error{tiled.SetFilter(f), routed.SetFilter(f)} {
					if err != nil {
						t.Fatal(err)
					}
				}
				fs := w.srv.filterSetFor(v, tiled.filter)
				for c := -1; c <= w.mono.K; c++ {
					want := oracleThemeDocs(v, fs, c)
					themeDocs += len(want)
					if got := tiled.ThemeDocs(ctx, c); !slices.Equal(got, want) {
						t.Fatalf("seed %d round %d filter %+v: ThemeDocs(%d)\n got %v\nwant %v", seed, round, f, c, got, want)
					}
					if got := routed.ThemeDocs(ctx, c); !slices.Equal(got, want) {
						t.Fatalf("seed %d round %d filter %+v: routed ThemeDocs(%d)\n got %v\nwant %v", seed, round, f, c, got, want)
					}
				}
				span := max(box.MaxX-box.MinX, box.MaxY-box.MinY)
				for i := 0; i < 12; i++ {
					// Centres from a box half again as wide as the data.
					x := box.MinX + (1.5*w.rng.Float64()-0.25)*(box.MaxX-box.MinX)
					y := box.MinY + (1.5*w.rng.Float64()-0.25)*(box.MaxY-box.MinY)
					r := []float64{0, -0.05 * span, 0.02 * span, 0.2 * span * w.rng.Float64(), span, 1e9}[w.rng.Intn(6)]
					want := oracleNear(v, fs, x, y, r)
					if got := tiled.Near(ctx, x, y, r); !slices.Equal(got, want) {
						t.Fatalf("seed %d round %d filter %+v: Near(%g, %g, %g) via tiles\n got %v\nscan %v", seed, round, f, x, y, r, got, want)
					}
					if got := routed.Near(ctx, x, y, r); !slices.Equal(got, want) {
						t.Fatalf("seed %d round %d filter %+v: routed Near(%g, %g, %g)\n got %v\nscan %v", seed, round, f, x, y, r, got, want)
					}
				}
			}
			w.step()
		}
		outOfBounds, compactions, rebases = outOfBounds+w.outOfBounds, compactions+w.compactions, rebases+w.rebases
	}
	if outOfBounds == 0 || compactions == 0 || rebases == 0 || themeDocs == 0 || filteredTiles == 0 {
		t.Fatalf("the stream left a case unchecked: %d out-of-bounds adds, %d compactions, %d rebases, %d theme documents, %d filtered tiles",
			outOfBounds, compactions, rebases, themeDocs, filteredTiles)
	}
}

// TestMapReadsWarmAllocs pins what the map reads allocate once warm: the
// result's own growth (Near) or the result alone (ThemeDocs, which knows its
// bound) and nothing that scales with the candidates examined.
// A radius admitting over ten times the candidates of another is held to the
// same bound — the copy of every candidate entry (log2(candidates) growth
// steps of 64-byte entries) is what this replaced.
func TestMapReadsWarmAllocs(t *testing.T) {
	ctx := context.Background()
	st := mapStore(16000, 16, 1)
	ids, times, rows := make([]int64, 16000), make([]int64, 16000), make([][]string, 16000)
	for d := range ids {
		ids[d], times[d], rows[d] = int64(d), 1000+int64(d), []string{fmt.Sprintf("source=s%d", d%3)}
	}
	if err := st.SetBaseMeta(ids, times, rows); err != nil {
		t.Fatal(err)
	}
	srv := newServerT(t, st, Config{})
	sess := srv.NewSession()
	// growth counts the allocations of appending n IDs one by one to a nil
	// slice, the way both reads build their answer.
	growth := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			var out []int64
			for i := 0; i < n; i++ {
				out = append(out, int64(i))
			}
			sink = out
		})
	}
	candidates := func(r float64) (n int) {
		rect := tiles.Rect{MinX: 0.5 - r, MinY: 0.5 - r, MaxX: 0.5 + r, MaxY: 0.5 + r}
		st.withPyramid(st.viewNow(), srv.cfg.tileConfig(), func(p *tiles.Pyramid) {
			p.Search(rect, func(leaf []tiles.Member) { n += len(leaf) })
		})
		return n
	}
	small, large := candidates(0.04), candidates(0.2)
	if small == 0 || large < 10*small {
		t.Fatalf("radii admit %d and %d candidates, want a 10x spread", small, large)
	}
	for _, r := range []float64{0.04, 0.2} {
		docs := sess.Near(ctx, 0.5, 0.5, r)
		got := testing.AllocsPerRun(50, func() { sink = sess.Near(ctx, 0.5, 0.5, r) })
		if bound := growth(len(docs)); got > bound {
			t.Fatalf("warm Near(r=%g) allocates %v objects/op for %d hits of %d candidates, want <= %v (the result's growth)",
				r, got, len(docs), candidates(r), bound)
		}
	}
	docs := sess.ThemeDocs(ctx, 3)
	got := testing.AllocsPerRun(50, func() { sink = sess.ThemeDocs(ctx, 3) })
	if len(docs) == 0 || got > 1 {
		t.Fatalf("warm ThemeDocs allocates %v objects/op for %d documents, want <= 1 (the result, sized from the cluster's list)", got, len(docs))
	}

	// Filtered reads test the pyramid's members in place: a filtered Near
	// still allocates only its result, and a filtered tile — built fresh
	// every time — no more than an unfiltered tile the LRU misses (its clone
	// plus the cache entry), at the root or a leaf.
	filtered := srv.NewSession()
	if err := filtered.SetFilter(Filter{After: 1000 + 4000, Facets: []string{"source=s1"}}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{0.04, 0.2} {
		docs := filtered.Near(ctx, 0.5, 0.5, r)
		got := testing.AllocsPerRun(50, func() { sink = filtered.Near(ctx, 0.5, 0.5, r) })
		if bound := growth(len(docs)); len(docs) == 0 || got > bound {
			t.Fatalf("warm filtered Near(r=%g) allocates %v objects/op for %d hits, want <= %v (the result's growth)", r, got, len(docs), bound)
		}
	}
	// Cycling through twice the LRU's capacity of leaf addresses misses on
	// every unfiltered read.
	var addrs [][2]int
	st.withPyramid(st.viewNow(), srv.cfg.tileConfig(), func(p *tiles.Pyramid) {
		for _, tl := range must(p.Range(6, worldRect()))[:2*tileCacheEntries] {
			addrs = append(addrs, [2]int{tl.X, tl.Y})
		}
	})
	tileAllocs := func(q *Session, z int) float64 {
		i := 0
		return testing.AllocsPerRun(100, func() {
			a := addrs[i%len(addrs)]
			i++
			if z == 0 {
				a = [2]int{0, 0}
			}
			if res, err := q.Tile(ctx, z, a[0], a[1]); err != nil || (q == sess && res.Docs == 0) {
				t.Fatalf("Tile(%d, %v) = %+v, %v", z, a, res, err)
			}
		})
	}
	misses := srv.Stats().TileMisses
	miss := tileAllocs(sess, 6)
	if n := srv.Stats().TileMisses - misses; n != 101 {
		t.Fatalf("%d of 101 unfiltered leaf reads missed the LRU", n)
	}
	for _, z := range []int{0, 6} {
		if got := tileAllocs(filtered, z); got > miss {
			t.Fatalf("warm filtered Tile at zoom %d allocates %v objects/op, want <= %v (an unfiltered miss)", z, got, miss)
		}
	}
}

var sink []int64

// TestConcurrentMapReads races Near, Tile and ThemeDocs readers against a
// writer that seals, deletes, compacts and rebases. The Near visitor runs
// under the pyramid's lock while the writer's epochs patch the same leaves;
// every new base's cluster index is first used by several readers at once,
// by design. Meaningful under -race; theme answers are also held to the
// oracle whenever the view they read can be pinned down.
func TestConcurrentMapReads(t *testing.T) {
	ctx := context.Background()
	// First use of a fresh base's index, all at once.
	fresh := newServerT(t, mapStore(2000, 8, 2), Config{})
	want := oracleThemeDocs(fresh.store.viewNow(), nil, 5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := fresh.NewSession().ThemeDocs(ctx, 5); !slices.Equal(got, want) {
				t.Errorf("concurrent first ThemeDocs = %d docs, want %d", len(got), len(want))
			}
		}()
	}
	wg.Wait()

	w := newMapWorld(t, 5)
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := w.srv.NewSession()
			if err := sess.SetFilter(mapFilters()[g%len(mapFilters())]); err != nil {
				t.Error(err)
				return
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Checkable only when no epoch was published around the read:
				// then this is the view ThemeDocs answered from.
				c := i % w.mono.K
				v := w.mono.viewNow()
				got := sess.ThemeDocs(ctx, c)
				if w.mono.viewNow() == v {
					fs := w.srv.filterSetFor(v, sess.filter)
					if want := oracleThemeDocs(v, fs, c); !slices.Equal(got, want) {
						t.Errorf("ThemeDocs(%d) at epoch %d = %v, want %v", c, v.epoch, got, want)
						return
					}
				}
				if docs := sess.Near(ctx, 0, 0, float64(i%7)); !slices.IsSorted(docs) {
					t.Errorf("Near across publish out of order: %v", docs)
					return
				}
				if _, err := sess.Tile(ctx, 1, i%2, i/2%2); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 60; i++ {
		w.step()
	}
	close(stop)
	wg.Wait()
}

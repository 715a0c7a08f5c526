package tiles

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randEntries builds a deterministic entry set, including points outside the
// bounds (which must clamp into edge tiles) and unassigned clusters.
func randEntries(n int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		e := Entry{
			Doc:     int64(i * 3), // sparse IDs
			X:       rng.Float64()*2 - 0.5,
			Y:       rng.Float64()*2 - 0.5,
			Cluster: int64(rng.Intn(5)) - 1, // -1..3
		}
		out = append(out, e)
	}
	return out
}

func testBounds() Rect { return NewBounds(0, 0, 1, 1) }

// TestBuildOrderIndependent pins the core invariant: the pyramid is a pure
// function of the member set, whatever order entries arrive in.
func TestBuildOrderIndependent(t *testing.T) {
	entries := randEntries(200, 1)
	a, err := Build(Config{}, testBounds(), entries)
	if err != nil {
		t.Fatal(err)
	}
	rev := make([]Entry, len(entries))
	for i, e := range entries {
		rev[len(entries)-1-i] = e
	}
	b, err := Build(Config{}, testBounds(), rev)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("pyramids differ under insertion order")
	}
}

// TestRemoveMatchesRebuild pins the incremental-maintenance invariant:
// removing documents from a pyramid leaves exactly the pyramid built from
// the survivors — density, counts, theme histograms and exemplars included.
func TestRemoveMatchesRebuild(t *testing.T) {
	entries := randEntries(300, 2)
	full, err := Build(Config{}, testBounds(), entries)
	if err != nil {
		t.Fatal(err)
	}
	var survivors []Entry
	for i, e := range entries {
		if i%3 == 0 {
			if !full.Remove(e.Doc) {
				t.Fatalf("remove %d failed", e.Doc)
			}
		} else {
			survivors = append(survivors, e)
		}
	}
	want, err := Build(Config{}, testBounds(), survivors)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, want) {
		t.Fatal("incrementally maintained pyramid differs from rebuild")
	}
	// Removing everything leaves the empty pyramid.
	for _, e := range survivors {
		full.Remove(e.Doc)
	}
	empty, _ := New(Config{}, testBounds())
	if !reflect.DeepEqual(full, empty) {
		t.Fatalf("emptied pyramid not empty: %d tiles, %d docs", full.NumTiles(), full.NumDocs())
	}
}

// TestZoomNesting checks that parent tiles aggregate exactly their four
// children at every level.
func TestZoomNesting(t *testing.T) {
	p, err := Build(Config{MaxZoom: 5}, testBounds(), randEntries(400, 3))
	if err != nil {
		t.Fatal(err)
	}
	for z := 0; z < 5; z++ {
		all, _ := p.Range(z, p.Bounds())
		for _, tl := range all {
			var kids int64
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					if c := p.Tile(z+1, 2*tl.X+dx, 2*tl.Y+dy); c != nil {
						kids += c.Docs
					}
				}
			}
			if kids != tl.Docs {
				t.Fatalf("z=%d tile (%d,%d) has %d docs, children sum %d", z, tl.X, tl.Y, tl.Docs, kids)
			}
			var dens int64
			for _, d := range tl.Density {
				dens += int64(d)
			}
			if dens != tl.Docs {
				t.Fatalf("z=%d tile (%d,%d) density sums %d for %d docs", z, tl.X, tl.Y, dens, tl.Docs)
			}
		}
	}
}

// oracleSearch is the copying Search the visitor replaced, kept verbatim as
// the test oracle: the candidate entries of every admitted leaf, copied out,
// plus the visited and pruned counts.
func oracleSearch(p *Pyramid, r Rect) (cands []Member, visited, pruned int) {
	wins, ok := p.windows(p.cfg.MaxZoom, r)
	if !ok {
		return nil, 0, 0
	}
	var walk func(z, x, y int)
	walk = func(z, x, y int) {
		if p.tiles[key(z, x, y)] == nil {
			return
		}
		if !wins[z].admits(x, y) {
			pruned++
			return
		}
		if z == p.cfg.MaxZoom {
			visited++
			cands = append(cands, p.leaves[key(z, x, y)]...)
			return
		}
		for dy := 0; dy < 2; dy++ {
			for dx := 0; dx < 2; dx++ {
				walk(z+1, 2*x+dx, 2*y+dy)
			}
		}
	}
	walk(0, 0, 0)
	return cands, visited, pruned
}

// TestSearchMatchesBruteForce drives the visiting Search with random query
// boxes (inside, straddling and beyond the bounds, degenerate, inverted and
// NaN) and checks it against a full scan and against the copying search it
// replaced: every in-box point is a candidate, the leaves arrive in the old
// order with the old counts, no leaf is handed out twice, and what is handed
// out is the pyramid's own storage, not a copy.
func TestSearchMatchesBruteForce(t *testing.T) {
	entries := randEntries(250, 4)
	p, err := Build(Config{}, testBounds(), entries)
	if err != nil {
		t.Fatal(err)
	}
	own := map[*Member]bool{} // the pyramid's own leaf storage
	for _, l := range p.leaves {
		own[&l[0]] = true
	}
	rng := rand.New(rand.NewSource(9))
	boxes := []Rect{
		p.Bounds(),
		{MinX: -9, MinY: -9, MaxX: 9, MaxY: 9},
		{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5},
		{MinX: 0.6, MinY: 0.1, MaxX: 0.4, MaxY: 0.9}, // inverted: empty
		{MinX: math.NaN(), MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: 3, MinY: 3, MaxX: 4, MaxY: 4}, // beyond the bounds: the clamped corner tile
	}
	for i := 0; i < 50; i++ {
		cx, cy := rng.Float64()*2-0.5, rng.Float64()*2-0.5
		r := rng.Float64() * 0.3
		boxes = append(boxes, Rect{MinX: cx - r, MinY: cy - r, MaxX: cx + r, MaxY: cy + r})
	}
	for _, q := range boxes {
		var cands []Member
		seen := map[*Member]bool{}
		calls := 0
		visited, pruned := p.Search(q, func(leaf []Member) {
			calls++
			if len(leaf) == 0 {
				t.Fatalf("query %v: visited an empty leaf", q)
			}
			if seen[&leaf[0]] {
				t.Fatalf("query %v: leaf of doc %d visited twice", q, leaf[0].Doc)
			}
			seen[&leaf[0]] = true
			if !sort.SliceIsSorted(leaf, func(a, b int) bool { return leaf[a].Doc < leaf[b].Doc }) {
				t.Fatalf("query %v: leaf not ascending by document", q)
			}
			cands = append(cands, leaf...)
		})
		want, wantVisited, wantPruned := oracleSearch(p, q)
		if calls != visited || visited != wantVisited || pruned != wantPruned {
			t.Fatalf("query %v: %d calls, visited %d pruned %d; the copying search visited %d pruned %d",
				q, calls, visited, pruned, wantVisited, wantPruned)
		}
		if !reflect.DeepEqual(cands, want) {
			t.Fatalf("query %v: %d candidates differ from the copying search's %d", q, len(cands), len(want))
		}
		for first := range seen {
			if !own[first] {
				t.Fatalf("query %v: leaf of doc %d was copied, not visited in place", q, first.Doc)
			}
		}
		got := map[int64]bool{}
		for _, e := range cands {
			got[e.Doc] = true
		}
		// Every in-box point must be a candidate.
		for _, e := range entries {
			inBox := e.X >= q.MinX && e.X <= q.MaxX && e.Y >= q.MinY && e.Y <= q.MaxY
			if inBox && !got[e.Doc] {
				t.Fatalf("query %v missed doc %d at (%g,%g)", q, e.Doc, e.X, e.Y)
			}
		}
	}
}

// TestSearchAllocFree pins that the descent allocates nothing, whatever the
// number of leaves and candidates the box admits.
func TestSearchAllocFree(t *testing.T) {
	p, err := Build(Config{}, testBounds(), randEntries(2000, 6))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Rect{{MinX: 0.4, MinY: 0.4, MaxX: 0.5, MaxY: 0.5}, {MinX: -9, MinY: -9, MaxX: 9, MaxY: 9}} {
		n := 0
		got := testing.AllocsPerRun(100, func() {
			p.Search(q, func(leaf []Member) { n += len(leaf) })
		})
		if got != 0 || n == 0 {
			t.Fatalf("Search(%v) allocates %v objects/op over %d candidates, want 0", q, got, n)
		}
	}
}

// TestMergeMatchesMonolithic partitions one entry set across three
// "shards" and checks that merging per-shard tiles reproduces the
// monolithic tile exactly at every address and zoom.
func TestMergeMatchesMonolithic(t *testing.T) {
	entries := randEntries(300, 5)
	mono, err := Build(Config{}, testBounds(), entries)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*Pyramid, 3)
	for i := range shards {
		var part []Entry
		for _, e := range entries {
			if int(e.Doc)%3 == i {
				part = append(part, e)
			}
		}
		shards[i], err = Build(Config{}, testBounds(), part)
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg := mono.Config()
	for z := 0; z <= cfg.MaxZoom; z++ {
		all, _ := mono.Range(z, mono.Bounds())
		for _, want := range all {
			parts := make([]*Tile, len(shards))
			for i, sh := range shards {
				parts[i] = sh.Tile(z, want.X, want.Y)
			}
			got := Merge(parts, cfg.Exemplars)
			if got == nil || got.Docs != want.Docs ||
				!reflect.DeepEqual(got.Density, want.Density) ||
				!reflect.DeepEqual(got.Themes, want.Themes) ||
				!reflect.DeepEqual(got.Exemplars, want.Exemplars) {
				t.Fatalf("z=%d tile (%d,%d): merged %+v != mono %+v", z, want.X, want.Y, got, want)
			}
		}
	}
}

// TestExemplarsAreSmallestDocs pins the exemplar definition through adds and
// removals.
func TestExemplarsAreSmallestDocs(t *testing.T) {
	p, err := Build(Config{Exemplars: 3}, testBounds(), randEntries(100, 6))
	if err != nil {
		t.Fatal(err)
	}
	// Remove the globally smallest docs; the root exemplars must re-derive.
	root := p.Tile(0, 0, 0)
	smallest := append([]int64(nil), root.Exemplars...)
	for _, d := range smallest {
		p.Remove(d)
	}
	root = p.Tile(0, 0, 0)
	var want []int64
	for d := range p.loc {
		want = append(want, d)
	}
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	if len(want) > 3 {
		want = want[:3]
	}
	if !reflect.DeepEqual(root.Exemplars, want) {
		t.Fatalf("root exemplars %v, want %v", root.Exemplars, want)
	}
}

// TestCodecRoundTrip pins Encode/Decode identity on a pyramid with
// out-of-bounds (clamped) points and unassigned clusters.
func TestCodecRoundTrip(t *testing.T) {
	p, err := Build(Config{MaxZoom: 4, Grid: 4, Exemplars: 2}, testBounds(), randEntries(120, 7))
	if err != nil {
		t.Fatal(err)
	}
	enc := p.Encode()
	back, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Fatal("decode(encode(p)) != p")
	}
	if re := back.Encode(); !reflect.DeepEqual(enc, re) {
		t.Fatal("encode(decode(b)) != b")
	}
}

// TestCodecRejects exercises the decoder's validation.
func TestCodecRejects(t *testing.T) {
	p, err := Build(Config{}, testBounds(), randEntries(20, 8))
	if err != nil {
		t.Fatal(err)
	}
	enc := p.Encode()
	cases := map[string][]byte{
		"bad magic":  append([]byte("NOTTILES99\n"), enc[len(Magic):]...),
		"truncated":  enc[:len(enc)-3],
		"trailing":   append(append([]byte(nil), enc...), 0),
		"empty":      {},
		"magic only": []byte(Magic),
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestAddRefusesWhatDecodeRefuses holds Add to the codec's entry rules: an
// unsorted or repeated facet row (which would count a facet twice in every
// tile histogram on the member's path), an empty or overlong facet, a
// cluster below -1, a negative document or a non-finite coordinate is
// refused and changes nothing, and every pyramid the accepted entries build
// round-trips through Encode/Decode.
func TestAddRefusesWhatDecodeRefuses(t *testing.T) {
	long := string(make([]byte, maxFacetLen+1))
	refused := []Entry{
		{Doc: 1, Facets: []string{"src=b", "src=a"}},
		{Doc: 2, Facets: []string{"src=a", "src=a"}},
		{Doc: 3, Facets: []string{"", "src=a"}},
		{Doc: 4, Facets: []string{"src=a", long}},
		{Doc: 5, Cluster: -2},
		{Doc: -1},
		{Doc: 6, X: math.NaN()},
	}
	rng := rand.New(rand.NewSource(11))
	facets := []string{"k=a", "k=b", "lang=en", "lang=fr", "src=s1"}
	for seed := int64(0); seed < 20; seed++ {
		p, err := New(Config{MaxZoom: 3, Grid: 2, Exemplars: 2}, testBounds())
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range randEntries(40, seed) {
			if i%4 == 0 {
				e.Time = rng.Int63n(1 << 30)
			}
			// Random rows: sorted and unique when sorted is set, otherwise
			// drawn in any order with repeats.
			sorted := rng.Intn(2) == 0
			for _, f := range facets {
				if rng.Intn(3) == 0 {
					e.Facets = append(e.Facets, f)
				}
			}
			if !sorted && len(e.Facets) > 0 {
				e.Facets = append(e.Facets, e.Facets[rng.Intn(len(e.Facets))])
				rng.Shuffle(len(e.Facets), func(a, b int) { e.Facets[a], e.Facets[b] = e.Facets[b], e.Facets[a] })
			}
			before := p.Encode()
			ok := p.Add(e)
			if want := sorted || len(e.Facets) == 0; ok != want {
				t.Fatalf("seed %d: Add(facets %q) = %v, want %v", seed, e.Facets, ok, want)
			}
			if !ok && !reflect.DeepEqual(p.Encode(), before) {
				t.Fatalf("seed %d: refused Add(facets %q) changed the pyramid", seed, e.Facets)
			}
		}
		for _, e := range refused {
			e.Doc += 1 << 20 // clear of the random entries' IDs
			if e.Doc < 1<<20 {
				e.Doc = -1
			}
			if p.Add(e) {
				t.Fatalf("seed %d: Add(%+v) accepted", seed, e)
			}
		}
		// Decode interns facets in leaf order, not Add order, so the round
		// trip is held on the canonical bytes.
		enc := p.Encode()
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("seed %d: a pyramid Add built does not decode: %v", seed, err)
		}
		if !reflect.DeepEqual(back.Encode(), enc) {
			t.Fatalf("seed %d: encode(decode(encode(p))) != encode(p)", seed)
		}
	}
}

package tiles

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// whereEntries builds entries that reach every branch of TileWhere's
// counters: unassigned clusters and clusters past the dense span, no
// timestamp, pre-epoch timestamps and one far enough out to overflow the
// dense day span, up to 64 facets, and points outside the bounds. Every
// facet string is its own allocation, so interning must compare contents.
func whereEntries(rng *rand.Rand, n int) []Entry {
	clusters := []int64{-1, 0, 1, 2, 3, 4097, denseSpan + 5, 1 << 40}
	times := []int64{0, -5*BucketSeconds - 7, -1, 1, 1000, 1000 + 3*BucketSeconds, 1 << 40}
	vocab := []string{"lang=l0", "lang=l1", "source=s0", "source=s1", "source=s2", "year=y7"}
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		e := Entry{
			Doc:     int64(i)*3 + int64(rng.Intn(3)),
			X:       rng.Float64()*2 - 0.5,
			Y:       rng.Float64()*2 - 0.5,
			Cluster: clusters[rng.Intn(len(clusters))],
			Time:    times[rng.Intn(len(times))] + int64(rng.Intn(4)),
		}
		switch rng.Intn(8) {
		case 0: // none
		case 1: // the most a document may carry
			for j := 0; j < maxEntryFacets; j++ {
				e.Facets = append(e.Facets, fmt.Sprintf("f=%02d", j))
			}
		default:
			for _, f := range vocab {
				if rng.Intn(2) == 0 {
					e.Facets = append(e.Facets, strings.Clone(f))
				}
			}
		}
		out = append(out, e)
	}
	return out
}

// keepEntry is the predicate written against Where's documented semantics,
// over the entry's strings.
func keepEntry(e Entry, after, before int64, facets []string) bool {
	if (after != 0 || before != 0) &&
		(e.Time == 0 || (after != 0 && e.Time < after) || (before != 0 && e.Time > before)) {
		return false
	}
	for _, f := range facets {
		if !slices.Contains(e.Facets, f) {
			return false
		}
	}
	return true
}

// checkTileWhere holds p.TileWhere at every address of every zoom to the
// tile a pyramid built from only the matching entries holds there.
func checkTileWhere(t *testing.T, label string, p *Pyramid, entries []Entry, after, before int64, facets []string) {
	t.Helper()
	var matching []Entry
	for _, e := range entries {
		if keepEntry(e, after, before, facets) {
			matching = append(matching, e)
		}
	}
	want, err := Build(p.Config(), p.Bounds(), matching)
	if err != nil {
		t.Fatal(err)
	}
	w := p.Where(after, before, facets)
	if w.None() && len(matching) > 0 {
		t.Fatalf("%s: Where(%d, %d, %q) reports no match; %d entries match", label, after, before, facets, len(matching))
	}
	for z := 0; z <= p.Config().MaxZoom; z++ {
		for x := 0; x < 1<<z; x++ {
			for y := 0; y < 1<<z; y++ {
				got, wt := p.TileWhere(z, x, y, &w), want.Tile(z, x, y)
				if !reflect.DeepEqual(got, wt) {
					t.Fatalf("%s: TileWhere(%d, %d, %d) over after=%d before=%d facets=%q\n got %+v\nwant %+v",
						label, z, x, y, after, before, facets, got, wt)
				}
			}
		}
	}
}

// whereFilters is the predicate palette: none, time windows (open on either
// side, pre-epoch, past everything), one and two facets, a repeated facet,
// one the pyramid never saw, one only wide documents carry, and mixtures.
func whereFilters() []struct {
	after, before int64
	facets        []string
} {
	return []struct {
		after, before int64
		facets        []string
	}{
		{0, 0, nil},
		{1000, 0, nil},
		{0, 1000, nil},
		{1000, 1000 + 3*BucketSeconds, nil},
		{-6 * BucketSeconds, -1, nil},
		{2 << 40, 0, nil},
		{0, 0, []string{"source=s1"}},
		{0, 0, []string{"lang=l0", "source=s2"}},
		{0, 0, []string{"source=s2", "source=s2"}},
		{0, 0, []string{"source=s99"}},
		{0, 0, []string{"f=63"}},
		{1, 0, []string{"lang=l1", "year=y7"}},
		{-1 << 50, 1 << 50, []string{"f=00", "f=31"}},
	}
}

// TestTileWhereMatchesRebuild is TileWhere's oracle: for every predicate of
// the palette, at every address of every zoom, the filtered tile equals the
// tile of a pyramid built from only the matching entries — on a built
// pyramid, on the same pyramid decoded from its encoding, and after
// incremental removals and late additions that grow the dictionary.
func TestTileWhereMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	entries := whereEntries(rng, 600)
	cfg := Config{MaxZoom: 4, Grid: 4, Exemplars: 3}
	p, err := Build(cfg, testBounds(), entries)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range whereFilters() {
		checkTileWhere(t, "built", p, entries, f.after, f.before, f.facets)
		checkTileWhere(t, "decoded", dec, entries, f.after, f.before, f.facets)
	}
	// Remove a third, then add documents with a facet nobody carried yet.
	var live []Entry
	for i, e := range entries {
		if i%3 == 0 {
			p.Remove(e.Doc)
		} else {
			live = append(live, e)
		}
	}
	for i := 0; i < 40; i++ {
		e := Entry{Doc: 10000 + int64(i), X: rng.Float64(), Y: rng.Float64(), Cluster: int64(i % 3), Time: 5000,
			Facets: []string{"late=" + fmt.Sprint(i%2), "source=s1"}}
		if !p.Add(e) {
			t.Fatalf("add %d refused", e.Doc)
		}
		live = append(live, e)
	}
	for _, f := range append(whereFilters(), struct {
		after, before int64
		facets        []string
	}{0, 0, []string{"late=1"}}) {
		checkTileWhere(t, "maintained", p, live, f.after, f.before, f.facets)
	}
}

// TestWhereRejectsTooManyFacets: no member carries more than 64 facets, so a
// predicate wanting 65 distinct ones matches nothing, while 65 names with a
// repeat are 64 and still match.
func TestWhereRejectsTooManyFacets(t *testing.T) {
	var wide []string
	for j := 0; j < maxEntryFacets; j++ {
		wide = append(wide, fmt.Sprintf("f=%02d", j))
	}
	p, err := Build(Config{}, testBounds(), []Entry{{Doc: 1, X: 0.5, Y: 0.5, Facets: wide}, {Doc: 2, X: 0.1, Y: 0.1, Facets: []string{"g=0"}}})
	if err != nil {
		t.Fatal(err)
	}
	if w := p.Where(0, 0, append(slices.Clone(wide), "g=0")); !w.None() {
		t.Fatal("65 distinct facets compile to a matchable predicate")
	}
	w := p.Where(0, 0, append(slices.Clone(wide), "f=00"))
	if tl := p.TileWhere(0, 0, 0, &w); w.None() || tl == nil || tl.Docs != 1 {
		t.Fatalf("64 facets plus a repeat: none=%v tile=%+v", w.None(), tl)
	}
	if p.Add(Entry{Doc: 3, X: 0.2, Y: 0.2, Facets: append(slices.Clone(wide), "z=9")}) {
		t.Fatal("an entry with 65 facets was admitted")
	}
}

// FuzzTileWhere drives the oracle with fuzzer-chosen entry sets, shapes and
// predicates, on built and decoded pyramids.
func FuzzTileWhere(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(3), int64(1000), int64(0), uint8(0b101))
	f.Add(int64(2), uint16(40), uint8(1), int64(0), int64(0), uint8(0))
	f.Add(int64(3), uint16(500), uint8(2), int64(-6*BucketSeconds), int64(-1), uint8(0b10))
	f.Add(int64(4), uint16(0), uint8(0), int64(0), int64(0), uint8(0xff))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape uint8, after, before int64, pick uint8) {
		rng := rand.New(rand.NewSource(seed))
		entries := whereEntries(rng, int(n)%400)
		cfg := Config{MaxZoom: int(shape)%3 + 1, Grid: 1 << (int(shape) / 3 % 4), Exemplars: int(shape)%5 + 1}
		p, err := Build(cfg, NewBounds(-0.25, -0.25, 1.25, 1.25), entries)
		if err != nil {
			t.Fatal(err)
		}
		var facets []string
		for i, fc := range []string{"lang=l0", "lang=l1", "source=s1", "year=y7", "f=07", "source=s99", "source=s1", "f=63"} {
			if pick>>i&1 == 1 {
				facets = append(facets, fc)
			}
		}
		checkTileWhere(t, "built", p, entries, after, before, facets)
		dec, err := Decode(p.Encode())
		if err != nil {
			t.Fatal(err)
		}
		checkTileWhere(t, "decoded", dec, entries, after, before, facets)
	})
}

// BenchmarkTileWhere measures a filtered tile over a 16k-entry pyramid with
// zoom drawn uniformly over 0–6 (as a panning analyst draws it) and the tile
// one holding data: a facet filter, and a time window.
func BenchmarkTileWhere(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	entries := make([]Entry, 16384)
	for i := range entries {
		entries[i] = Entry{Doc: int64(i), X: rng.Float64(), Y: rng.Float64(), Cluster: int64(rng.Intn(16)),
			Time: 1e9 + int64(i)*3600, Facets: []string{fmt.Sprintf("lang=l%d", i%2), fmt.Sprintf("source=s%d", i%16)}}
	}
	p, err := Build(Config{}, NewBounds(0, 0, 1, 1), entries)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([][3]int, 256)
	for i := range addrs {
		z := rng.Intn(7)
		addrs[i] = [3]int{z, rng.Intn(1 << z), rng.Intn(1 << z)}
	}
	for _, bc := range []struct {
		name          string
		after, before int64
		facets        []string
	}{
		{"facet", 0, 0, []string{"source=s3"}},
		{"time", 1e9 + 4000*3600, 1e9 + 12000*3600, nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := addrs[i%len(addrs)]
				w := p.Where(bc.after, bc.before, bc.facets)
				p.TileWhere(a[0], a[1], a[2], &w)
			}
		})
	}
}

package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"inspire/internal/tiles"
)

// execShape is one deployment under test: a name, its service, the config
// it serves with, and whether its writes go through the Querier methods
// instead of Exec.
type execShape struct {
	name    string
	svc     Service
	cfg     Config
	querier bool
}

// execShapes builds every deployment shape over copies of one base store:
// a single store (twice: one written through Exec, one through the Querier
// methods), a router over 1, 2, 3, 4 and 6 shards, and 3 shards × 2
// replicas. Each shape owns its stores, so writes stay independent.
func execShapes(t *testing.T, base *Store, cfg Config) []execShape {
	t.Helper()
	var shapes []execShape
	for _, querier := range []bool{false, true} {
		mono, err := NewService(Options{Store: base.Fork(), Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, execShape{fmt.Sprintf("mono(querier=%v)", querier), mono, cfg, querier})
	}
	for _, sh := range []struct{ shards, replicas int }{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {6, 1}, {3, 2}} {
		parts, err := base.Shard(sh.shards)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Replicas = sh.replicas
		svc, err := NewService(Options{Shards: parts, Config: c})
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, execShape{fmt.Sprintf("%dx%d", sh.shards, sh.replicas), svc, c, false})
	}
	return shapes
}

// execOf returns the executor behind a Querier of the service.
func execOf(t *testing.T, svc Service) interface {
	Querier
	Exec(context.Context, Query) (Result, error)
} {
	switch q := svc.NewQuerier().(type) {
	case *Session:
		return q
	case *RouterSession:
		return q
	default:
		t.Fatalf("querier %T has no Exec", q)
		return nil
	}
}

// viaQuerier answers q through the Querier method that wraps its op.
func viaQuerier(ctx context.Context, qr Querier, q Query) (Result, error) {
	var res Result
	var err error
	switch q.Op {
	case OpTerm:
		res.Postings = qr.TermDocs(ctx, q.Terms[0])
	case OpDF:
		res.DF = qr.DF(ctx, q.Terms[0])
	case OpAnd:
		res.Docs = qr.And(ctx, q.Terms...)
	case OpOr:
		res.Docs = qr.Or(ctx, q.Terms...)
	case OpSimilar:
		res.Hits, err = qr.Similar(ctx, q.Doc, q.K)
	case OpTheme:
		res.Docs = qr.ThemeDocs(ctx, q.Cluster)
	case OpNear:
		res.Docs = qr.Near(ctx, q.X, q.Y, q.R)
	case OpTile:
		res.Tile, err = qr.Tile(ctx, q.Z, q.TX, q.TY)
	case OpTileRange:
		res.Tiles, err = qr.TileRange(ctx, q.Z, q.Rect)
	case OpAdd:
		res.Doc, err = qr.AddDoc(ctx, q.Text, q.TS, q.Facets)
	case OpDelete:
		err = qr.Delete(ctx, q.Doc)
	}
	return res, err
}

// sameAnswer reports whether two answers agree: equal results, and errors of
// the same text and kind.
func sameAnswer(a Result, aerr error, b Result, berr error) bool {
	if (aerr == nil) != (berr == nil) {
		return false
	}
	if aerr != nil && (aerr.Error() != berr.Error() ||
		errors.Is(aerr, ErrInvalid) != errors.Is(berr, ErrInvalid) ||
		errors.Is(aerr, ErrNotFound) != errors.Is(berr, ErrNotFound)) {
		return false
	}
	return reflect.DeepEqual(a, b)
}

// readQueries is the read battery: every op over the store's vocabulary,
// documents, themes, plane and tile pyramid, including the refusals.
func readQueries(st *Store, maxZoom int) []Query {
	terms := append(st.TopTerms(40), "nonexistent")
	var qs []Query
	for _, term := range terms {
		qs = append(qs, Query{Op: OpTerm, Terms: []string{term}}, Query{Op: OpDF, Terms: []string{term}})
	}
	pairs := [][]string{{"apple", "banana"}, {"apple", "durian"}, {"durian", "elder", "fig"},
		{"grape", "kiwi"}, {"apple", "nonexistent"}, {"cherry"}, {}}
	for i := 1; i < len(terms); i++ {
		pairs = append(pairs, []string{terms[i-1], terms[i]}, []string{terms[0], terms[i/2], terms[i]})
	}
	for _, p := range pairs {
		qs = append(qs, Query{Op: OpAnd, Terms: p}, Query{Op: OpOr, Terms: p})
	}
	docs := append(st.SampleDocs(16), -1, 999999)
	for _, d := range docs {
		for _, k := range []int{3, 10, 0} {
			// Twice: the second answer comes from a result cache.
			qs = append(qs, Query{Op: OpSimilar, Doc: d, K: k}, Query{Op: OpSimilar, Doc: d, K: k})
		}
	}
	for c := -1; c <= st.K; c++ {
		qs = append(qs, Query{Op: OpTheme, Cluster: c})
	}
	for _, n := range [][3]float64{{0, 0, 0.5}, {0.5, 0.5, 10}, {0, 0, 1e9}, {0.3, -0.2, 0.1}, {0.1, 0.1, -0.3}, {50, 50, 1}, {0, 0, 0}} {
		qs = append(qs, Query{Op: OpNear, X: n[0], Y: n[1], R: n[2]})
	}
	world := tiles.Rect{MinX: -1e18, MinY: -1e18, MaxX: 1e18, MaxY: 1e18}
	for z := -1; z <= maxZoom+1; z++ {
		qs = append(qs, Query{Op: OpTileRange, Z: z, Rect: world},
			Query{Op: OpTileRange, Z: z, Rect: tiles.Rect{MinX: 1e6, MinY: 1e6, MaxX: 1e7, MaxY: 1e7}})
		if z < 0 || z > maxZoom {
			qs = append(qs, Query{Op: OpTile, Z: z})
			continue
		}
		for x := -1; x <= 1<<z; x++ {
			for y := 0; y < 1<<z; y++ {
				qs = append(qs, Query{Op: OpTile, Z: z, TX: x, TY: y})
			}
		}
	}
	return append(qs, Query{Op: OpTerm}, Query{Op: OpDF, Terms: []string{"a", "b"}}, Query{Op: Op(200)})
}

// TestExecAgreesAcrossShapes drives every Op through Exec on every
// deployment shape, unfiltered and under each probe filter, and requires
// every answer — errors included — to equal the single store's Exec, and
// every Querier method to equal the Exec it wraps. The writes run on every
// shape in one order (adds with metadata, a flush, deletes of a base and an
// added document, a repeat and a negative one), and the reads run again
// after them. Then a second flushed batch gives every store two segments to
// compact, so the deleted added document leaves the data (and its DF); the
// reads run after the compaction, after SaveLive on the running services,
// and on the saved files reloaded through LoadServiceFile, which must
// answer exactly what the running services did.
func TestExecAgreesAcrossShapes(t *testing.T) {
	ctx := context.Background()
	const maxZoom = 4
	for _, corpus := range []struct {
		name  string
		build func(*testing.T) *Store
	}{
		{"mini", func(t *testing.T) *Store { return buildStoreT(t, 3) }},
		{"generated", func(t *testing.T) *Store { return batchStore(t, ingestSources(), 3) }},
	} {
		base := corpus.build(t)
		stampMetaT(t, base)
		shapes := execShapes(t, base, Config{TileMaxZoom: maxZoom})
		reads := readQueries(base, maxZoom)
		filters := probeFilters()

		// check runs q once on every shape — a write through Exec, or through
		// the Querier on the shape that writes that way — and requires the
		// single store's answer. A read also runs through the Querier method
		// that wraps its op, which must answer what Exec did.
		check := func(stage string, q Query) Result {
			t.Helper()
			var want Result
			var werr error
			for i, sh := range shapes {
				write := q.Op == OpAdd || q.Op == OpDelete
				var got Result
				var gerr error
				if write && sh.querier {
					got, gerr = viaQuerier(ctx, sh.svc.NewQuerier(), q)
				} else {
					got, gerr = execOf(t, sh.svc).Exec(ctx, q)
				}
				if i == 0 {
					want, werr = got, gerr
				} else if !sameAnswer(got, gerr, want, werr) {
					t.Fatalf("%s %s %s: Exec(%+v)\n got %+v, %v\nwant %+v, %v", corpus.name, stage, sh.name, q, got, gerr, want, werr)
				}
				if write || (q.Op == OpTerm || q.Op == OpDF) && len(q.Terms) != 1 || q.Op >= numOps {
					continue // no Querier method asks these, or asking again would write twice
				}
				qr := sh.svc.NewQuerier()
				if err := qr.SetFilter(q.Filter); err != nil {
					t.Fatal(err)
				}
				wrapped, werr2 := viaQuerier(ctx, qr, q)
				if gerr != nil && werr2 == nil {
					// The slice-returning methods answer nil on error.
					gerr = nil
				}
				if !sameAnswer(wrapped, werr2, got, gerr) {
					t.Fatalf("%s %s %s: Querier answered %+v, %v for %+v; Exec %+v, %v", corpus.name, stage, sh.name, wrapped, werr2, q, got, gerr)
				}
			}
			return want
		}
		runReads := func(stage string) []Result {
			var out []Result
			for _, f := range filters {
				for _, q := range reads {
					q.Filter = f
					out = append(out, check(stage, q))
				}
			}
			return out
		}

		runReads("pristine")
		if root, err := execOf(t, shapes[0].svc).Exec(ctx, Query{Op: OpTile}); err != nil || root.Tile.Docs != base.TotalDocs {
			t.Fatalf("%s: root tile = %+v, %v; want all %d documents", corpus.name, root.Tile, err, base.TotalDocs)
		}
		texts := []string{"apple banana cherry", "durian elder fig grape", "kiwi honeydew apple"}
		for _, term := range base.TopTerms(6) {
			texts = append(texts, term+" "+texts[0])
		}
		var added []int64
		for i, text := range texts {
			res := check("add", Query{Op: OpAdd, Text: text, TS: int64(1010 + 20*i), Facets: []string{fmt.Sprintf("source=s%d", i%3), "live=yes"}})
			added = append(added, res.Doc)
		}
		check("bad add", Query{Op: OpAdd, Text: "apple", Facets: []string{"nokey"}})
		flush := func() {
			for _, sh := range shapes {
				if err := sh.svc.(Liver).FlushLive(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
		flush()
		for _, doc := range []int64{base.SampleDocs(1)[0], added[1], added[1], -1} {
			check("delete", Query{Op: OpDelete, Doc: doc})
		}
		runReads("after writes")

		for i, text := range texts {
			check("second add", Query{Op: OpAdd, Text: text, TS: int64(2010 + 20*i)})
		}
		flush()
		for _, sh := range shapes {
			if err := sh.svc.(Liver).CompactLive(ctx); err != nil {
				t.Fatal(err)
			}
		}
		runReads("after compact")

		dir := t.TempDir()
		for i := range shapes {
			path := filepath.Join(dir, fmt.Sprintf("%s.%d", corpus.name, i))
			if err := shapes[i].svc.(Liver).SaveLive(ctx, path); err != nil {
				t.Fatalf("%s %s: save: %v", corpus.name, shapes[i].name, err)
			}
		}
		saved := runReads("after save")
		for i := range shapes {
			svc, err := LoadServiceFile(filepath.Join(dir, fmt.Sprintf("%s.%d", corpus.name, i)), shapes[i].cfg)
			if err != nil {
				t.Fatalf("%s %s: reload: %v", corpus.name, shapes[i].name, err)
			}
			shapes[i].svc = svc
		}
		reloaded := runReads("reloaded")
		for i := range saved {
			if !reflect.DeepEqual(saved[i], reloaded[i]) {
				t.Fatalf("%s: read %d answered %+v before the reload, %+v after", corpus.name, i, saved[i], reloaded[i])
			}
		}
	}
}

package serve

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"inspire/internal/query"
)

// TestBorrowedAnswersOutliveNothing is the answer-lifetime oracle. A seeded
// stream of term, and, or, theme and near reads, filtered and unfiltered,
// runs on one Session and on one 4-shard RouterSession over stores with
// sealed segments and a tombstone, with Release between reads. Every answer
// is compared with a fresh service's over the same stores, whose cold caches
// no earlier read can have touched. After each Release the test writes -1
// over the slice it was handed, as a caller may once the buffer is back:
// if any borrowed buffer had been kept by a cache or a session, a later
// answer would read the -1s, or another read's documents, and differ.
func TestBorrowedAnswersOutliveNothing(t *testing.T) {
	ctx := context.Background()
	cfg := Config{TileMaxZoom: 4}
	for _, n := range []int{1, 4} {
		st := batchStore(t, ingestSources(), 3).Fork()
		stampMetaT(t, st)
		stores := []*Store{st}
		if n > 1 {
			var err error
			if stores, err = st.Shard(n); err != nil {
				t.Fatal(err)
			}
		}
		fresh := func() Service {
			if n == 1 {
				return newServerT(t, st, cfg)
			}
			r, err := NewRouter(stores, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		subject := fresh()
		all := st.TopTerms(200)
		terms := append(append([]string{}, all[:10]...), all[150:160]...)

		// Three sealed segments of timestamped, faceted documents and a
		// deleted base document: term answers merge several lists.
		w := subject.NewQuerier()
		for i := 0; i < 24; i++ {
			text := terms[i%5] + " " + terms[5+i%10]
			if _, err := w.AddDoc(ctx, text, 1000+int64(5*i), []string{fmt.Sprintf("source=s%d", i%3)}); err != nil {
				t.Fatal(err)
			}
			if i%8 == 7 {
				if err := subject.(Liver).FlushLive(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Delete(ctx, w.TermDocs(ctx, terms[0])[0].Doc); err != nil {
			t.Fatal(err)
		}

		sess := subject.NewQuerier()
		filters := probeFilters()
		themes := st.Themes
		rng := rand.New(rand.NewSource(46))
		term := func() string { return terms[rng.Intn(len(terms))] }
		for op := 0; op < 400; op++ {
			f := Filter{}
			if rng.Intn(2) == 0 {
				f = filters[rng.Intn(len(filters))]
			}
			ref := fresh().NewQuerier()
			if err := sess.SetFilter(f); err != nil {
				t.Fatal(err)
			}
			if err := ref.SetFilter(f); err != nil {
				t.Fatal(err)
			}
			var label string
			var got, want []int64
			var gotP, wantP []query.Posting
			switch rng.Intn(5) {
			case 0:
				tm := term()
				label = "term " + tm
				gotP, wantP = sess.TermDocs(ctx, tm), ref.TermDocs(ctx, tm)
			case 1:
				a, b := term(), term()
				label = "and " + a + " " + b
				got, want = sess.And(ctx, a, b), ref.And(ctx, a, b)
			case 2:
				a, b, c := term(), term(), term()
				label = "or " + a + " " + b + " " + c
				got, want = sess.Or(ctx, a, b, c), ref.Or(ctx, a, b, c)
			case 3:
				c := rng.Intn(len(themes))
				label = fmt.Sprintf("theme %d", c)
				got, want = sess.ThemeDocs(ctx, c), ref.ThemeDocs(ctx, c)
			default:
				th := themes[rng.Intn(len(themes))]
				r := 0.05 + 0.3*rng.Float64()
				label = fmt.Sprintf("near %v %v %v", th.X, th.Y, r)
				got, want = sess.Near(ctx, th.X, th.Y, r), ref.Near(ctx, th.X, th.Y, r)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotP, wantP) {
				t.Fatalf("%d shards, op %d (%s, filter %+v): got %v%v, want %v%v", n, op, label, f, got, gotP, want, wantP)
			}
			sess.Release()
			for i := range got {
				got[i] = -1
			}
			for i := range gotP {
				gotP[i] = query.Posting{Doc: -1, Freq: -1}
			}
		}
	}
}

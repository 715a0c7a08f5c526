package serve

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"inspire/internal/cluster"
	"inspire/internal/core"
	"inspire/internal/corpus"
	"inspire/internal/query"
	"inspire/internal/simtime"
)

// propDocs mixes ASCII and non-ASCII vocabulary with overlapping themes so
// random conjunctions and disjunctions hit every interesting case: shared
// docs, disjoint lists, repeated terms, unicode folds.
var propDocs = []string{
	"apple apple banana banana cherry naïve",
	"apple banana banana café café",
	"apple apple cherry cherry naïve naïve",
	"durian durian elder elder fig fig café",
	"durian elder elder fig straße straße",
	"grape grape honeydew honeydew kiwi kiwi",
	"naïve café straße résumé résumé",
	"banana fig kiwi résumé naïve",
}

// propTerms is the query pool the checker draws from: indexed terms in odd
// spellings, plus misses.
var propTerms = []string{
	"apple", "APPLE", "banana", "cherry", "durian", "elder", "fig",
	"grape", "honeydew", "kiwi", "naïve", "NAÏVE", "'naïve'", "café",
	"CAFÉ", "straße", "résumé", "Résumé-", "missing", "naive", "cafe",
}

// TestSessionAgreesWithEngineProperty is the cross-layer property check: for
// random term sets, serve.Session answers over the snapshotted store — with
// the default posting cache and with one so small every query evicts — must
// equal query.Engine answers over the live run the snapshot was taken from.
func TestSessionAgreesWithEngineProperty(t *testing.T) {
	src := corpus.FromTexts("prop", propDocs)
	_, err := cluster.Run(3, simtime.Zero(), func(c *cluster.Comm) error {
		res, err := core.Run(c, []*corpus.Source{src}, core.Config{TopN: 200, TopicFrac: 0.5})
		if err != nil {
			return err
		}
		st, err := Snapshot(c, res)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return nil
		}
		e := query.New(c, res)
		roomy, err := NewServer(st, Config{})
		if err != nil {
			return err
		}
		tight, err := NewServer(st.Fork(), Config{PostingCacheEntries: 2})
		if err != nil {
			return err
		}

		agree := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			terms := make([]string, 1+rng.Intn(4))
			for i := range terms {
				terms[i] = propTerms[rng.Intn(len(propTerms))]
			}
			for _, srv := range []*Server{roomy, tight} {
				sess := srv.NewSession()
				for _, term := range terms {
					if !reflect.DeepEqual(sess.TermDocs(context.Background(), term), e.TermDocs(term)) {
						t.Logf("seed %d: TermDocs(%q) disagrees", seed, term)
						return false
					}
					if sess.DF(context.Background(), term) != e.DF(term) {
						t.Logf("seed %d: DF(%q) disagrees", seed, term)
						return false
					}
				}
				if got, want := sess.And(context.Background(), terms...), e.And(terms...); !reflect.DeepEqual(got, want) {
					t.Logf("seed %d: And(%v) = %v, engine says %v", seed, terms, got, want)
					return false
				}
				if got, want := sess.Or(context.Background(), terms...), e.Or(terms...); !reflect.DeepEqual(got, want) {
					t.Logf("seed %d: Or(%v) = %v, engine says %v", seed, terms, got, want)
					return false
				}
			}
			return true
		}
		if err := quick.Check(agree, &quick.Config{MaxCount: 120}); err != nil {
			return fmt.Errorf("session/engine divergence: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

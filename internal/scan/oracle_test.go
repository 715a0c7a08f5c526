package scan

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"inspire/internal/armci"
	"inspire/internal/cluster"
	"inspire/internal/corpus"
	"inspire/internal/dhash"
	"inspire/internal/simtime"
)

// oracleForEachToken is the rune-at-a-time tokenizer Scan used before its
// rank-local term table, kept verbatim as the oracle for the byte-level
// token loop.
func oracleForEachToken(text string, cfg TokenizerConfig, fn func(term string)) {
	cfg = cfg.withDefaults()
	start := -1
	flush := func(end int) {
		if start < 0 {
			return
		}
		tok := text[start:end]
		start = -1
		if len(tok) < cfg.MinLen || len(tok) > cfg.MaxLen {
			return
		}
		tok = NormalizeTerm(tok)
		if len(tok) < cfg.MinLen {
			return
		}
		if !cfg.KeepNumbers && allDigits(tok) {
			return
		}
		if cfg.Stopwords[tok] {
			return
		}
		fn(tok)
	}
	for i, r := range text {
		if isDelim(r) {
			flush(i)
		} else if start < 0 {
			start = i
		}
	}
	flush(len(text))
}

// oracleScan is Scan as it was before the rank-local term table — one
// vocab.Insert per token — kept verbatim as the oracle.
func oracleScan(c *cluster.Comm, vocab *dhash.Map, mySources []*corpus.Source, cfg TokenizerConfig) (*Forward, error) {
	fwd := &Forward{RecordOffsets: []int64{0}}
	for _, src := range mySources {
		recs, err := corpus.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("scan: rank %d: %w", c.Rank(), err)
		}
		for _, rec := range recs {
			localRec := len(fwd.RecordIDs)
			fwd.RecordIDs = append(fwd.RecordIDs, rec.ID)
			for _, fl := range rec.Fields {
				lo := int64(len(fwd.Tokens))
				oracleForEachToken(fl.Text, cfg, func(term string) {
					fwd.Tokens = append(fwd.Tokens, vocab.Insert(term))
				})
				hi := int64(len(fwd.Tokens))
				fwd.Fields = append(fwd.Fields, FieldSpan{Record: localRec, Name: fl.Name, Lo: lo, Hi: hi})
			}
			fwd.RecordOffsets = append(fwd.RecordOffsets, int64(len(fwd.Tokens)))
		}
		fwd.SourceNames = append(fwd.SourceNames, src.Name)
		fwd.SourceRecCounts = append(fwd.SourceRecCounts, int64(len(recs)))
		fwd.RawBytes += src.Size()
		// Charge the tokenize + forward-index cost for this source, plus
		// the storage read under the configured I/O model (paper §4.2:
		// scanning is I/O bound as well as computationally bound).
		c.Clock().Advance(c.Model().ScanCost(float64(src.Size())))
		c.Clock().Advance(c.Model().IO.ReadCost(c.Model(), float64(src.Size()), c.Size()))
	}
	return fwd, nil
}

type scanFunc func(*cluster.Comm, *dhash.Map, []*corpus.Source, TokenizerConfig) (*Forward, error)

// denseScan runs scan with p ranks on the default machine model and returns
// each rank's dense forward index and virtual clock after the scan.
func denseScan(t testing.TB, scan scanFunc, p int, sources []*corpus.Source) ([]*Forward, []float64) {
	t.Helper()
	fwds := make([]*Forward, p)
	clocks := make([]float64, p)
	_, err := cluster.Run(p, nil, func(c *cluster.Comm) error {
		vocab := dhash.New(c, armci.New(c))
		fwd, err := scan(c, vocab, corpus.Partition(sources, p)[c.Rank()], TokenizerConfig{})
		if err != nil {
			return err
		}
		clocks[c.Rank()] = c.Clock().Now()
		vocab.Finalize()
		fwd.RemapDense(c, vocab)
		fwd.AssignGlobalDocIDs(c)
		fwds[c.Rank()] = fwd
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fwds, clocks
}

// TestScanMatchesOracle holds Scan to the per-token-Insert scan: the same
// dense forward index (tokens, fields, offsets, documents) on every rank and
// the same virtual time, for PubMed and TREC corpora at several P.
func TestScanMatchesOracle(t *testing.T) {
	for _, format := range []corpus.Format{corpus.FormatPubMed, corpus.FormatTREC} {
		sources := corpus.Generate(corpus.GenSpec{
			Format: format, TargetBytes: 120_000, Sources: 9, Seed: 5, VocabSize: 3000, Topics: 5,
		})
		for _, p := range []int{1, 2, 3, 4, 7} {
			want, wantClk := denseScan(t, oracleScan, p, sources)
			got, gotClk := denseScan(t, Scan, p, sources)
			for r := range want {
				if !reflect.DeepEqual(got[r], want[r]) {
					t.Fatalf("format %d p=%d rank %d: forward index differs from the oracle's", format, p, r)
				}
				if gotClk[r] != wantClk[r] {
					t.Fatalf("format %d p=%d rank %d: virtual time %v, oracle %v", format, p, r, gotClk[r], wantClk[r])
				}
			}
		}
	}
}

// FuzzScanTerms holds the byte-level token loop to the rune-level oracle on
// arbitrary text and tokenizer settings: Tokenize must equal the oracle, and
// Scan's term stream for every field must equal Tokenize's.
func FuzzScanTerms(f *testing.F) {
	for _, s := range []string{
		"Hello, World! The AND of 1984",
		"naïve CAFÉ résumé 'quoted' -dash- state-of-the-art O'Brien",
		"x yy zzz 12 123abc abc123 --- '' - '-'",
		"<p>Markup</p> &amp; ÀB \xff\xfe invalid \xc3 utf8 İstanbul ǅ",
		"THE The the tHe", "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa ok",
	} {
		f.Add([]byte(s), uint8(0), uint8(0), false)
		f.Add([]byte(s), uint8(3), uint8(5), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, minLen, maxLen uint8, keepNumbers bool) {
		cfg := TokenizerConfig{MinLen: int(minLen % 8), MaxLen: int(maxLen % 48), KeepNumbers: keepNumbers}
		text := string(data)
		var want []string
		oracleForEachToken(text, cfg, func(term string) { want = append(want, term) })
		if got := Tokenize(text, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, oracle %q", text, got, want)
		}
		src := corpus.FromTexts("fuzz", []string{text, text})
		recs, err := corpus.Parse(src)
		if err != nil {
			t.Skip(err)
		}
		for _, p := range []int{1, 2} {
			got := scanTerms(t, p, []*corpus.Source{src}, cfg)
			for _, rec := range recs {
				for i, fl := range rec.Fields {
					if w := Tokenize(fl.Text, cfg); !slices.Equal(got[rec.ID][i], w) {
						t.Fatalf("p=%d record %s field %d: scan terms %q, Tokenize %q", p, rec.ID, i, got[rec.ID][i], w)
					}
				}
			}
		}
	})
}

// scanTerms runs Scan with p ranks and returns, per record ID, the terms of
// each field as the vocabulary spells them.
func scanTerms(t testing.TB, p int, sources []*corpus.Source, cfg TokenizerConfig) map[string][][]string {
	t.Helper()
	fwds := make([]*Forward, p)
	out := make(map[string][][]string)
	_, err := cluster.Run(p, simtime.Zero(), func(c *cluster.Comm) error {
		vocab := dhash.New(c, armci.New(c))
		fwd, err := Scan(c, vocab, corpus.Partition(sources, p)[c.Rank()], cfg)
		if err != nil {
			return err
		}
		vocab.Finalize()
		fwds[c.Rank()] = fwd
		c.Barrier()
		if c.Rank() == 0 {
			for _, f := range fwds {
				for _, span := range f.Fields {
					var terms []string
					for _, id := range f.Tokens[span.Lo:span.Hi] {
						terms = append(terms, vocab.Term(vocab.Dense(id)))
					}
					rid := f.RecordIDs[span.Record]
					out[rid] = append(out[rid], terms)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

package scan

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"inspire/internal/armci"
	"inspire/internal/cluster"
	"inspire/internal/corpus"
	"inspire/internal/dhash"
	"inspire/internal/simtime"
)

func TestTokenizeBasics(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"the and of", nil},                             // stopwords
		{"x y z", nil},                                  // below MinLen
		{"foo-bar baz's", []string{"foo-bar", "baz's"}}, // connectors kept
		{"1984 was a year", []string{"year"}},           // numbers dropped
		{"<p>markup</p> &amp; entities", []string{"markup", "amp", "entities"}},
		{"", nil},
		{"UPPER lower MiXeD", []string{"upper", "lower", "mixed"}},
		{"--- '' -", nil},
		{"gene-expression", []string{"gene-expression"}},
	}
	for _, tc := range cases {
		got := Tokenize(tc.in, TokenizerConfig{})
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestTokenizeConfig(t *testing.T) {
	// KeepNumbers retains digits.
	got := Tokenize("in 1984 there", TokenizerConfig{KeepNumbers: true, Stopwords: map[string]bool{}})
	if !reflect.DeepEqual(got, []string{"in", "1984", "there"}) {
		t.Errorf("KeepNumbers: %v", got)
	}
	// MaxLen drops long tokens.
	long := strings.Repeat("a", 50)
	if out := Tokenize(long+" ok", TokenizerConfig{}); !reflect.DeepEqual(out, []string{"ok"}) {
		t.Errorf("MaxLen: %v", out)
	}
	// Custom MinLen.
	if out := Tokenize("go is fun", TokenizerConfig{MinLen: 3, Stopwords: map[string]bool{}}); !reflect.DeepEqual(out, []string{"fun"}) {
		t.Errorf("MinLen: %v", out)
	}
	// Trailing connector trim: "well-" -> "well".
	if out := Tokenize("well- said", TokenizerConfig{}); !reflect.DeepEqual(out, []string{"well", "said"}) {
		t.Errorf("trim: %v", out)
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("naïve café résumé", TokenizerConfig{})
	if len(got) != 3 {
		t.Fatalf("unicode words: %v", got)
	}
	if got[0] != "naïve" {
		t.Errorf("lowercasing broke unicode: %v", got[0])
	}
}

func TestForEachTokenMatchesTokenize(t *testing.T) {
	f := func(s string) bool {
		var streamed []string
		ForEachToken(s, TokenizerConfig{}, func(term string) { streamed = append(streamed, term) })
		return reflect.DeepEqual(streamed, Tokenize(s, TokenizerConfig{}))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTokenizeDeterministic(t *testing.T) {
	f := func(s string) bool {
		return reflect.DeepEqual(Tokenize(s, TokenizerConfig{}), Tokenize(s, TokenizerConfig{}))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// scanWorld runs Scan over the sources with p ranks and returns each rank's
// forward index plus rank 0's vocabulary view.
func scanWorld(t *testing.T, p int, sources []*corpus.Source) []*Forward {
	t.Helper()
	fwds := make([]*Forward, p)
	_, err := cluster.Run(p, simtime.Zero(), func(c *cluster.Comm) error {
		vocab := dhash.New(c, armci.New(c))
		parts := corpus.Partition(sources, p)
		fwd, err := Scan(c, vocab, parts[c.Rank()], TokenizerConfig{})
		if err != nil {
			return err
		}
		vocab.Finalize()
		fwd.RemapDense(c, vocab)
		fwd.AssignGlobalDocIDs(c)
		fwds[c.Rank()] = fwd
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fwds
}

func testSources() []*corpus.Source {
	return corpus.Generate(corpus.GenSpec{
		Format: corpus.FormatPubMed, TargetBytes: 40_000, Sources: 6, Seed: 11, VocabSize: 1500, Topics: 4,
	})
}

func TestScanCoversAllRecords(t *testing.T) {
	sources := testSources()
	var wantDocs int
	for _, s := range sources {
		recs, err := corpus.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		wantDocs += len(recs)
	}
	for _, p := range []int{1, 2, 5} {
		fwds := scanWorld(t, p, sources)
		var got int
		for _, f := range fwds {
			got += f.NumRecords()
		}
		if got != wantDocs {
			t.Fatalf("p=%d: scanned %d of %d records", p, got, wantDocs)
		}
		if fwds[0].TotalDocs != int64(wantDocs) {
			t.Fatalf("p=%d: TotalDocs=%d want %d", p, fwds[0].TotalDocs, wantDocs)
		}
	}
}

func TestGlobalDocIDsArePInvariantPermutation(t *testing.T) {
	sources := testSources()
	collect := func(p int) map[string]int64 {
		out := make(map[string]int64)
		for _, f := range scanWorld(t, p, sources) {
			for i, rid := range f.RecordIDs {
				out[rid] = f.GlobalDocIDs[i]
			}
		}
		return out
	}
	base := collect(1)
	// IDs are a permutation of 0..D-1.
	seen := make(map[int64]bool)
	for _, id := range base {
		if id < 0 || id >= int64(len(base)) || seen[id] {
			t.Fatalf("bad id %d", id)
		}
		seen[id] = true
	}
	for _, p := range []int{2, 4} {
		got := collect(p)
		if len(got) != len(base) {
			t.Fatalf("p=%d: %d ids vs %d", p, len(got), len(base))
		}
		for rid, id := range base {
			if got[rid] != id {
				t.Fatalf("p=%d: record %s id %d vs %d", p, rid, got[rid], id)
			}
		}
	}
}

func TestScanTokensMatchDirectTokenization(t *testing.T) {
	docs := []string{
		"parallel scalable text engines for visual analytics",
		"clusters of documents reveal hidden thematic relationships",
		"the quick brown fox jumps over the lazy dog",
	}
	src := corpus.FromTexts("unit", docs)
	got := scanTerms(t, 2, []*corpus.Source{src}, TokenizerConfig{})
	if len(got) != 3 {
		t.Fatalf("scanned %d records, want 3", len(got))
	}
	for i, d := range docs {
		id := fmt.Sprintf("unit-%06d", i+1)
		if want := Tokenize(d, TokenizerConfig{}); !reflect.DeepEqual(got[id], [][]string{want}) {
			t.Fatalf("record %d: scanned terms %q, want %q", i, got[id], want)
		}
	}
}

func TestFieldSpansPartitionTokens(t *testing.T) {
	sources := testSources()
	for _, f := range scanWorld(t, 3, sources) {
		var covered int64
		prevHi := int64(0)
		// Fields must tile the token stream in order.
		for _, span := range f.Fields {
			if span.Lo != prevHi {
				t.Fatalf("field gap: lo=%d prev=%d", span.Lo, prevHi)
			}
			if span.Hi < span.Lo {
				t.Fatalf("negative span")
			}
			covered += span.Hi - span.Lo
			prevHi = span.Hi
		}
		if covered != int64(len(f.Tokens)) {
			t.Fatalf("fields cover %d of %d tokens", covered, len(f.Tokens))
		}
		// Record offsets also tile.
		if f.RecordOffsets[0] != 0 || f.RecordOffsets[len(f.RecordOffsets)-1] != int64(len(f.Tokens)) {
			t.Fatalf("record offsets don't tile")
		}
		if !sort.SliceIsSorted(f.RecordOffsets, func(a, b int) bool { return f.RecordOffsets[a] < f.RecordOffsets[b] }) {
			t.Fatalf("record offsets unsorted")
		}
	}
}

func TestVocabularySetInvariantAcrossP(t *testing.T) {
	sources := testSources()
	collect := func(p int) map[string]bool {
		out := make(map[string]bool)
		_, err := cluster.Run(p, simtime.Zero(), func(c *cluster.Comm) error {
			vocab := dhash.New(c, armci.New(c))
			parts := corpus.Partition(sources, p)
			if _, err := Scan(c, vocab, parts[c.Rank()], TokenizerConfig{}); err != nil {
				return err
			}
			n := vocab.Finalize()
			if c.Rank() == 0 {
				for d := int64(0); d < n; d++ {
					out[vocab.Term(d)] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := collect(1)
	for _, p := range []int{2, 4} {
		got := collect(p)
		if len(got) != len(base) {
			t.Fatalf("p=%d: vocab %d vs %d", p, len(got), len(base))
		}
		for term := range base {
			if !got[term] {
				t.Fatalf("p=%d: missing term %q", p, term)
			}
		}
	}
}

func TestScanParseErrorPropagates(t *testing.T) {
	bad := &corpus.Source{Name: "bad", Format: corpus.FormatPubMed, Data: []byte("garbage line\n")}
	_, err := cluster.Run(1, simtime.Zero(), func(c *cluster.Comm) error {
		vocab := dhash.New(c, armci.New(c))
		_, err := Scan(c, vocab, []*corpus.Source{bad}, TokenizerConfig{})
		return err
	})
	if err == nil {
		t.Fatal("expected parse error to propagate")
	}
}

func TestScanChargesVirtualTime(t *testing.T) {
	sources := testSources()
	w, err := cluster.Run(2, nil, func(c *cluster.Comm) error {
		vocab := dhash.New(c, armci.New(c))
		parts := corpus.Partition(sources, 2)
		_, err := Scan(c, vocab, parts[c.Rank()], TokenizerConfig{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, clk := range w.Clocks() {
		if clk.Now() <= 0 {
			t.Fatalf("rank %d scanned for free", r)
		}
	}
}

func TestRawBytesAccounting(t *testing.T) {
	sources := testSources()
	fwds := scanWorld(t, 2, sources)
	var total int64
	for _, f := range fwds {
		total += f.RawBytes
	}
	if total != corpus.TotalBytes(sources) {
		t.Fatalf("raw bytes %d vs %d", total, corpus.TotalBytes(sources))
	}
}

func ExampleTokenize() {
	fmt.Println(Tokenize("Scalable Visual Analytics of Massive Textual Datasets!", TokenizerConfig{}))
	// Output: [scalable visual analytics massive textual datasets]
}

func TestNormalizeTermMatchesTokenizerFold(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Apple", "apple"},
		{"NAÏVE", "naïve"},
		{"Café", "café"},
		{"STRASSE", "strasse"},
		{"'quoted'", "quoted"},
		{"-dash-", "dash"},
		{"--'mix'-", "mix"},
		{"state-of-the-art", "state-of-the-art"}, // interior connectors survive
		{"o'brien", "o'brien"},
	}
	for _, c := range cases {
		if got := NormalizeTerm(c.in); got != c.want {
			t.Errorf("NormalizeTerm(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Every token the tokenizer emits is a fixed point of NormalizeTerm —
	// the property that makes query-side folding agree with the index.
	text := "Naïve CAFÉS résumé 'alpha' beta-gamma- O'Brien <b>Markup</b> straße"
	for _, tok := range Tokenize(text, TokenizerConfig{}) {
		if got := NormalizeTerm(tok); got != tok {
			t.Errorf("indexed token %q renormalizes to %q", tok, got)
		}
	}
}

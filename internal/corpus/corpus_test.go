package corpus

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestPubMedRoundTrip(t *testing.T) {
	recs := []Record{
		{ID: "10000001", Fields: []Field{
			{Name: "ti", Text: "a short title"},
			{Name: "ab", Text: strings.Repeat("longword ", 40) + "end"},
		}},
		{ID: "10000002", Fields: []Field{
			{Name: "ti", Text: "another"},
		}},
	}
	data := EncodePubMed(recs)
	got, err := ParsePubMed(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records", len(got))
	}
	if got[0].ID != "10000001" || got[1].ID != "10000002" {
		t.Fatalf("ids: %q %q", got[0].ID, got[1].ID)
	}
	if got[0].Fields[0].Name != "ti" || got[0].Fields[0].Text != "a short title" {
		t.Fatalf("field 0: %+v", got[0].Fields[0])
	}
	// Wrapped abstract reassembles to the same word sequence.
	wantWords := strings.Fields(recs[0].Fields[1].Text)
	gotWords := strings.Fields(got[0].Fields[1].Text)
	if len(wantWords) != len(gotWords) {
		t.Fatalf("abstract words: %d vs %d", len(gotWords), len(wantWords))
	}
	for i := range wantWords {
		if wantWords[i] != gotWords[i] {
			t.Fatalf("word %d: %q vs %q", i, gotWords[i], wantWords[i])
		}
	}
}

func TestPubMedParseErrors(t *testing.T) {
	cases := [][]byte{
		[]byte("TI  - field before pmid\n"),
		[]byte("PMID- 1\n      orphan continuation applies to nothing\n"), // continuation without field... wait: PMID sets cur, continuation needs curField
		[]byte("PMID- 1\nnot a tagged line\n"),
	}
	for i, data := range cases {
		if _, err := ParsePubMed(data); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

func TestTRECRoundTrip(t *testing.T) {
	recs := []Record{
		{ID: "GX001-02-0000003", Fields: []Field{
			{Name: "title", Text: "Budget Report"},
			{Name: "text", Text: "fiscal year <p> figures &amp; tables"},
		}},
		{ID: "GX001-02-0000004", Fields: []Field{
			{Name: "text", Text: "no title here"},
		}},
	}
	data := EncodeTREC(recs)
	got, err := ParseTREC(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records", len(got))
	}
	if got[0].ID != recs[0].ID {
		t.Fatalf("id: %q", got[0].ID)
	}
	if got[0].Fields[0].Name != "title" || got[0].Fields[0].Text != "Budget Report" {
		t.Fatalf("title: %+v", got[0].Fields[0])
	}
	if !strings.Contains(got[0].Fields[1].Text, "&amp;") {
		t.Fatalf("markup lost: %q", got[0].Fields[1].Text)
	}
	if len(got[1].Fields) != 1 || got[1].Fields[0].Name != "text" {
		t.Fatalf("no-title record: %+v", got[1].Fields)
	}
}

func TestTRECParseErrors(t *testing.T) {
	cases := [][]byte{
		[]byte("<DOC>\n<DOCNO>X</DOCNO>\n"),             // missing </DOC>
		[]byte("<DOC>\n<TEXT>body</TEXT>\n</DOC>\n"),    // missing DOCNO
		[]byte("<DOC>\n<DOCNO>X</DOCNO>\n</DOC>\njunk"), // trailing garbage
	}
	for i, data := range cases {
		if _, err := ParseTREC(data); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

func TestRecordText(t *testing.T) {
	r := Record{Fields: []Field{{Text: "a b"}, {Text: "c"}}}
	if got := r.Text(); got != "a b c" {
		t.Fatalf("got %q", got)
	}
	empty := Record{}
	if empty.Text() != "" {
		t.Fatal("empty record text")
	}
	single := Record{Fields: []Field{{Text: "only"}}}
	if single.Text() != "only" {
		t.Fatal("single field text")
	}
}

func TestPartitionBalancedAndComplete(t *testing.T) {
	sources := make([]*Source, 40)
	for i := range sources {
		sources[i] = &Source{
			Name: fmt.Sprintf("s%02d", i),
			Data: bytes.Repeat([]byte("x"), 100+i*37),
		}
	}
	for _, p := range []int{1, 2, 3, 8, 16} {
		parts := Partition(sources, p)
		if len(parts) != p {
			t.Fatalf("p=%d: %d parts", p, len(parts))
		}
		seen := make(map[string]bool)
		loads := make([]int64, p)
		for r, part := range parts {
			for _, s := range part {
				if seen[s.Name] {
					t.Fatalf("source %s assigned twice", s.Name)
				}
				seen[s.Name] = true
				loads[r] += s.Size()
			}
		}
		if len(seen) != len(sources) {
			t.Fatalf("p=%d: %d of %d sources assigned", p, len(seen), len(sources))
		}
		// Greedy bound: max load <= mean + max source size.
		var total, maxLoad, maxSrc int64
		for _, l := range loads {
			total += l
			if l > maxLoad {
				maxLoad = l
			}
		}
		for _, s := range sources {
			if s.Size() > maxSrc {
				maxSrc = s.Size()
			}
		}
		if maxLoad > total/int64(p)+maxSrc {
			t.Fatalf("p=%d: imbalanced: max=%d mean=%d maxSrc=%d", p, maxLoad, total/int64(p), maxSrc)
		}
	}
	if Partition(sources, 0) != nil {
		t.Fatal("p=0 should return nil")
	}
}

func TestPartitionDeterministic(t *testing.T) {
	sources := make([]*Source, 10)
	for i := range sources {
		sources[i] = &Source{Name: fmt.Sprintf("s%d", i), Data: bytes.Repeat([]byte("y"), 50)}
	}
	a := Partition(sources, 3)
	b := Partition(sources, 3)
	for r := range a {
		if len(a[r]) != len(b[r]) {
			t.Fatal("nondeterministic partition")
		}
		for i := range a[r] {
			if a[r][i].Name != b[r][i].Name {
				t.Fatal("nondeterministic partition order")
			}
		}
	}
}

func TestBuildVocabularyDistinct(t *testing.T) {
	for _, f := range []Format{FormatPubMed, FormatTREC} {
		words := BuildVocabulary(f, 5000)
		if len(words) != 5000 {
			t.Fatalf("%v: got %d words", f, len(words))
		}
		seen := make(map[string]bool)
		for _, w := range words {
			if w == "" {
				t.Fatalf("%v: empty word", f)
			}
			if seen[w] {
				t.Fatalf("%v: duplicate word %q", f, w)
			}
			seen[w] = true
		}
	}
	// Deterministic.
	a := BuildVocabulary(FormatPubMed, 100)
	b := BuildVocabulary(FormatPubMed, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("vocabulary not deterministic")
		}
	}
}

func TestGenerateDeterministicAndSized(t *testing.T) {
	spec := GenSpec{Format: FormatPubMed, TargetBytes: 200_000, Sources: 4, Seed: 7}
	a := Generate(spec)
	b := Generate(spec)
	if len(a) != 4 {
		t.Fatalf("got %d sources", len(a))
	}
	for i := range a {
		if !bytes.Equal(a[i].Data, b[i].Data) {
			t.Fatalf("source %d differs across identical generations", i)
		}
	}
	total := TotalBytes(a)
	if total < 150_000 || total > 320_000 {
		t.Fatalf("total bytes %d far from target 200000", total)
	}
}

func TestGeneratePubMedParses(t *testing.T) {
	spec := GenSpec{Format: FormatPubMed, TargetBytes: 60_000, Sources: 2, Seed: 3}
	var n int
	for _, s := range Generate(spec) {
		recs, err := Parse(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		n += len(recs)
		for _, r := range recs {
			if r.ID == "" || len(r.Fields) != 2 {
				t.Fatalf("malformed record %+v", r)
			}
		}
	}
	if n < 20 {
		t.Fatalf("only %d records", n)
	}
}

func TestGenerateTRECParsesAndIsHeavyTailed(t *testing.T) {
	spec := GenSpec{Format: FormatTREC, TargetBytes: 400_000, Sources: 4, Seed: 5}
	var sizes []int
	for _, s := range Generate(spec) {
		recs, err := Parse(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, r := range recs {
			sizes = append(sizes, len(r.Text()))
		}
	}
	if len(sizes) < 20 {
		t.Fatalf("only %d records", len(sizes))
	}
	var sum, max float64
	for _, s := range sizes {
		sum += float64(s)
		if float64(s) > max {
			max = float64(s)
		}
	}
	mean := sum / float64(len(sizes))
	if max < 3*mean {
		t.Errorf("expected heavy-tailed sizes: max=%g mean=%g", max, mean)
	}
}

func TestGeneratePubMedConsistentSizes(t *testing.T) {
	spec := GenSpec{Format: FormatPubMed, TargetBytes: 300_000, Sources: 3, Seed: 11}
	var sizes []float64
	for _, s := range Generate(spec) {
		recs, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			sizes = append(sizes, float64(len(r.Text())))
		}
	}
	var sum float64
	for _, s := range sizes {
		sum += s
	}
	mean := sum / float64(len(sizes))
	var varSum float64
	for _, s := range sizes {
		varSum += (s - mean) * (s - mean)
	}
	cv := math.Sqrt(varSum/float64(len(sizes))) / mean
	if cv > 0.5 {
		t.Errorf("PubMed-like sizes should be consistent: cv=%g", cv)
	}
}

func TestRecordsIndependentOfSourceCount(t *testing.T) {
	// The same (seed, index) yields the same record regardless of how the
	// corpus is split into sources.
	m1 := NewModel(GenSpec{Format: FormatTREC, Seed: 9, Sources: 2})
	m2 := NewModel(GenSpec{Format: FormatTREC, Seed: 9, Sources: 16})
	for i := 0; i < 20; i++ {
		a, b := m1.GenRecord(i), m2.GenRecord(i)
		if a.ID != b.ID || a.Text() != b.Text() {
			t.Fatalf("record %d differs with source count", i)
		}
	}
}

func TestTopicWords(t *testing.T) {
	m := NewModel(GenSpec{Format: FormatPubMed, Topics: 4, VocabSize: 1000})
	for tpc := 0; tpc < 4; tpc++ {
		words := m.TopicWords(tpc, 5)
		if len(words) != 5 {
			t.Fatalf("topic %d: %d words", tpc, len(words))
		}
	}
	// Distinct topics start with distinct words (stride construction).
	if m.TopicWords(0, 1)[0] == m.TopicWords(1, 1)[0] {
		t.Fatal("topics share first word")
	}
}

func TestFromTexts(t *testing.T) {
	src := FromTexts("demo", []string{"alpha beta", "gamma"})
	recs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Text() != "alpha beta" || recs[1].Text() != "gamma" {
		t.Fatalf("round trip: %+v", recs)
	}
}

func TestFormatString(t *testing.T) {
	if FormatPubMed.String() != "pubmed" || FormatTREC.String() != "trec" {
		t.Fatal("format names")
	}
	if Format(9).String() == "" {
		t.Fatal("unknown format should still render")
	}
	if _, err := Parse(&Source{Name: "x", Format: Format(9)}); err == nil {
		t.Fatal("unknown format should fail to parse")
	}
}

func TestPubMedQuickRoundTrip(t *testing.T) {
	// Any record whose fields contain whitespace-separated printable words
	// survives encode/parse with word sequences intact.
	f := func(words []string) bool {
		var clean []string
		for _, w := range words {
			w = strings.Map(func(r rune) rune {
				if r > 32 && r < 127 {
					return r
				}
				return -1
			}, w)
			if w != "" && len(w) < 40 {
				clean = append(clean, w)
			}
		}
		if len(clean) == 0 {
			return true
		}
		rec := Record{ID: "1", Fields: []Field{{Name: "ab", Text: strings.Join(clean, " ")}}}
		got, err := ParsePubMed(EncodePubMed([]Record{rec}))
		if err != nil || len(got) != 1 || len(got[0].Fields) != 1 {
			return false
		}
		return strings.Join(strings.Fields(got[0].Fields[0].Text), " ") == strings.Join(clean, " ")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// generateSerial is Generate as it was before records were drawn a batch
// ahead: one loop over GenRecord, each source encoded in turn. It is the
// reference TestGenerateMatchesSerialLoop compares against.
func generateSerial(spec GenSpec) []*Source {
	spec = spec.withDefaults()
	m := NewModel(spec)
	budgets := make([]int64, spec.Sources)
	srcRng := rand.New(rand.NewSource(spec.Seed ^ 0x5eed))
	var totalWeight float64
	weights := make([]float64, spec.Sources)
	for s := range weights {
		if spec.Format == FormatTREC {
			weights[s] = 0.4 + 1.2*srcRng.Float64()
		} else {
			weights[s] = 1
		}
		totalWeight += weights[s]
	}
	for s := range budgets {
		budgets[s] = int64(float64(spec.TargetBytes) * weights[s] / totalWeight)
	}
	sources := make([]*Source, spec.Sources)
	doc := 0
	for s := 0; s < spec.Sources; s++ {
		var recs []Record
		var got int64
		for got < budgets[s] {
			r := m.GenRecord(doc)
			doc++
			est := int64(len(r.Text())) + 64
			got += est + est/10
			recs = append(recs, r)
		}
		var data []byte
		if spec.Format == FormatPubMed {
			data = EncodePubMed(recs)
		} else {
			data = EncodeTREC(recs)
		}
		sources[s] = &Source{
			Name:   fmt.Sprintf("%s-%04d.txt", spec.Format, s),
			Format: spec.Format,
			Data:   data,
		}
	}
	return sources
}

func TestGenerateMatchesSerialLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, format := range []Format{FormatPubMed, FormatTREC} {
		for _, seed := range []int64{1, 7, 1 << 40} {
			// A dozen records (inside the first batch), a couple of hundred
			// and enough to reach the largest batch; none a whole number of
			// batches.
			for _, size := range []int64{20_000, 300_000, 700_000} {
				spec := GenSpec{Format: format, TargetBytes: size, Sources: 5, Seed: seed, VocabSize: 3000}
				want := generateSerial(spec)
				for _, procs := range []int{1, 2, 8} {
					runtime.GOMAXPROCS(procs)
					got := Generate(spec)
					if len(got) != len(want) {
						t.Fatalf("%v seed %d size %d procs %d: %d sources, want %d", format, seed, size, procs, len(got), len(want))
					}
					for s := range want {
						if got[s].Name != want[s].Name || got[s].Format != want[s].Format || !bytes.Equal(got[s].Data, want[s].Data) {
							t.Fatalf("%v seed %d size %d procs %d: source %d differs from the serial loop", format, seed, size, procs, s)
						}
					}
				}
			}
		}
	}
}

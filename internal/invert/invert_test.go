package invert

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"inspire/internal/armci"
	"inspire/internal/cluster"
	"inspire/internal/corpus"
	"inspire/internal/dhash"
	"inspire/internal/ga"
	"inspire/internal/scan"
	"inspire/internal/simtime"
)

// refPosting is a reference posting list entry.
type refPosting struct {
	Doc  int64
	Freq int64
}

// referenceIndex builds the expected term->postings map by scanning the
// whole corpus serially (P=1) and inverting it with plain maps.
func referenceIndex(t *testing.T, sources []*corpus.Source) map[string][]refPosting {
	t.Helper()
	ref := make(map[string][]refPosting)
	_, err := cluster.Run(1, simtime.Zero(), func(c *cluster.Comm) error {
		vocab := dhash.New(c, armci.New(c))
		fwd, err := scan.Scan(c, vocab, sources, scan.TokenizerConfig{})
		if err != nil {
			return err
		}
		vocab.Finalize()
		fwd.RemapDense(c, vocab)
		fwd.AssignGlobalDocIDs(c)
		for r := 0; r < fwd.NumRecords(); r++ {
			freq := make(map[int64]int64)
			for _, tok := range fwd.RecordTokens(r) {
				freq[tok]++
			}
			doc := fwd.GlobalDocIDs[r]
			for tok, f := range freq {
				term := vocab.Term(tok)
				ref[term] = append(ref[term], refPosting{Doc: doc, Freq: f})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sort postings by doc for comparability.
	for term := range ref {
		ps := ref[term]
		for i := 1; i < len(ps); i++ {
			for j := i; j > 0 && ps[j].Doc < ps[j-1].Doc; j-- {
				ps[j], ps[j-1] = ps[j-1], ps[j]
			}
		}
	}
	return ref
}

// runInvert executes the full scan+invert under the given strategy and
// returns the term->postings map read back through one-sided gets.
func runInvert(t *testing.T, p int, sources []*corpus.Source, strat Strategy, chunk int64) map[string][]refPosting {
	t.Helper()
	out := make(map[string][]refPosting)
	_, err := cluster.Run(p, simtime.Zero(), func(c *cluster.Comm) error {
		rpc := armci.New(c)
		vocab := dhash.New(c, rpc)
		parts := corpus.Partition(sources, p)
		fwd, err := scan.Scan(c, vocab, parts[c.Rank()], scan.TokenizerConfig{})
		if err != nil {
			return err
		}
		n := vocab.Finalize()
		fwd.RemapDense(c, vocab)
		fwd.AssignGlobalDocIDs(c)
		gf := PublishForward(c, fwd)
		ix := Invert(c, gf, n, vocab.DenseRange, Options{Strategy: strat, ChunkTokens: chunk, RPC: rpc})
		if c.Rank() == 0 {
			for d := int64(0); d < n; d++ {
				docs, freqs := ix.Postings(d)
				term := vocab.Term(d)
				for i := range docs {
					out[term] = append(out[term], refPosting{Doc: docs[i], Freq: freqs[i]})
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

func invTestSources() []*corpus.Source {
	return corpus.Generate(corpus.GenSpec{
		Format: corpus.FormatPubMed, TargetBytes: 30_000, Sources: 5, Seed: 23, VocabSize: 900, Topics: 4,
	})
}

func TestInvertMatchesReferenceAllStrategies(t *testing.T) {
	sources := invTestSources()
	want := referenceIndex(t, sources)
	for _, strat := range []Strategy{DynamicGA, Static, MasterWorker} {
		for _, p := range []int{1, 2, 4} {
			got := runInvert(t, p, sources, strat, 512)
			if len(got) != len(want) {
				t.Fatalf("%v p=%d: %d terms vs %d", strat, p, len(got), len(want))
			}
			for term, wps := range want {
				if !reflect.DeepEqual(got[term], wps) {
					t.Fatalf("%v p=%d: term %q postings %v want %v", strat, p, term, got[term], wps)
				}
			}
		}
	}
}

func TestInvertTinyChunksStressStealing(t *testing.T) {
	sources := invTestSources()
	want := referenceIndex(t, sources)
	// Chunk of 1 token maximizes load count and steal contention.
	got := runInvert(t, 4, sources, DynamicGA, 1)
	if len(got) != len(want) {
		t.Fatalf("%d terms vs %d", len(got), len(want))
	}
	for term, wps := range want {
		if !reflect.DeepEqual(got[term], wps) {
			t.Fatalf("term %q postings differ under tiny chunks", term)
		}
	}
}

func TestInvertRepeatedRunsIdentical(t *testing.T) {
	// Work stealing changes who does what, never the result.
	sources := invTestSources()
	a := runInvert(t, 4, sources, DynamicGA, 256)
	b := runInvert(t, 4, sources, DynamicGA, 256)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated dynamic runs differ")
	}
}

func TestBuildLoadsCoverEveryFieldOnce(t *testing.T) {
	sources := invTestSources()
	for _, p := range []int{1, 3} {
		for _, chunk := range []int64{64, 1024, 1 << 20} {
			_, err := cluster.Run(p, simtime.Zero(), func(c *cluster.Comm) error {
				vocab := dhash.New(c, armci.New(c))
				parts := corpus.Partition(sources, p)
				fwd, err := scan.Scan(c, vocab, parts[c.Rank()], scan.TokenizerConfig{})
				if err != nil {
					return err
				}
				vocab.Finalize()
				fwd.RemapDense(c, vocab)
				fwd.AssignGlobalDocIDs(c)
				gf := PublishForward(c, fwd)
				loads := BuildLoads(c, gf, chunk)
				covered := make(map[int64]bool)
				for _, l := range loads {
					if l.Owner < 0 || l.Owner >= p {
						return fmt.Errorf("bad owner %d", l.Owner)
					}
					for f := l.FieldLo; f < l.FieldHi; f++ {
						if covered[f] {
							return fmt.Errorf("field %d in two loads", f)
						}
						covered[f] = true
					}
				}
				if int64(len(covered)) != gf.NumField {
					return fmt.Errorf("loads cover %d of %d fields", len(covered), gf.NumField)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d chunk=%d: %v", p, chunk, err)
			}
		}
	}
}

func TestLoadsAlignToRecordBoundaries(t *testing.T) {
	sources := invTestSources()
	_, err := cluster.Run(2, simtime.Zero(), func(c *cluster.Comm) error {
		vocab := dhash.New(c, armci.New(c))
		parts := corpus.Partition(sources, 2)
		fwd, err := scan.Scan(c, vocab, parts[c.Rank()], scan.TokenizerConfig{})
		if err != nil {
			return err
		}
		vocab.Finalize()
		fwd.RemapDense(c, vocab)
		fwd.AssignGlobalDocIDs(c)
		gf := PublishForward(c, fwd)
		loads := BuildLoads(c, gf, 64)
		// The first field of a load must start a new document relative to
		// the previous field.
		for _, l := range loads {
			if l.FieldLo == 0 {
				continue
			}
			var prev, first [1]int64
			gf.FieldDoc.Get(l.FieldLo-1, prev[:])
			gf.FieldDoc.Get(l.FieldLo, first[:])
			if prev[0] == first[0] {
				// Same doc crossing a load boundary is only legal when
				// the previous field belongs to another owner's rank
				// boundary — which cannot happen since docs never span
				// sources. Flag it.
				return fmt.Errorf("load at field %d splits doc %d", l.FieldLo, first[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDFAndCFConsistency(t *testing.T) {
	sources := invTestSources()
	_, err := cluster.Run(3, simtime.Zero(), func(c *cluster.Comm) error {
		rpc := armci.New(c)
		vocab := dhash.New(c, rpc)
		parts := corpus.Partition(sources, 3)
		fwd, err := scan.Scan(c, vocab, parts[c.Rank()], scan.TokenizerConfig{})
		if err != nil {
			return err
		}
		n := vocab.Finalize()
		fwd.RemapDense(c, vocab)
		fwd.AssignGlobalDocIDs(c)
		gf := PublishForward(c, fwd)
		ix := Invert(c, gf, n, vocab.DenseRange, Options{Strategy: DynamicGA})
		// Sum of CF over all terms equals the global token count.
		var localCF int64
		for _, v := range ix.CF {
			localCF += v
		}
		totalCF := c.AllreduceSumInt(localCF)
		totalTokens := c.AllreduceSumInt(int64(len(fwd.Tokens)))
		if totalCF != totalTokens {
			return fmt.Errorf("sum(CF)=%d != tokens=%d", totalCF, totalTokens)
		}
		// DF of each owned term equals its posting count and postings are
		// sorted by doc.
		lo, _ := vocab.DenseRange(c.Rank())
		for i := range ix.DF {
			docs, freqs := ix.Postings(lo + int64(i))
			if int64(len(docs)) != ix.DF[i] {
				return fmt.Errorf("term %d: %d postings, DF=%d", lo+int64(i), len(docs), ix.DF[i])
			}
			var cf int64
			for k := range docs {
				cf += freqs[k]
				if k > 0 && docs[k] <= docs[k-1] {
					return fmt.Errorf("term %d postings unsorted or duplicated", lo+int64(i))
				}
			}
			if cf != ix.CF[i] {
				return fmt.Errorf("term %d: CF %d vs %d", lo+int64(i), cf, ix.CF[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLoadCostPositiveAndMonotone(t *testing.T) {
	m := simtime.PNNLCluster2007()
	small := &Load{TokenLo: 0, TokenHi: 100, FieldLo: 0, FieldHi: 4, Entries: 50}
	big := &Load{TokenLo: 0, TokenHi: 10000, FieldLo: 0, FieldHi: 400, Entries: 5000}
	cs, cb := LoadCost(m, small), LoadCost(m, big)
	if cs <= 0 || cb <= cs {
		t.Fatalf("load costs not monotone: small=%g big=%g", cs, cb)
	}
	costs, owners := LoadCosts(m, []Load{*small, *big})
	if len(costs) != 2 || len(owners) != 2 || costs[0] != cs || costs[1] != cb {
		t.Fatalf("LoadCosts mismatch")
	}
}

func TestStrategyString(t *testing.T) {
	if DynamicGA.String() != "dynamic-ga" || Static.String() != "static" || MasterWorker.String() != "master-worker" {
		t.Fatal("strategy names")
	}
	if Strategy(42).String() == "" {
		t.Fatal("unknown strategy should render")
	}
}

func TestEmptyCorpus(t *testing.T) {
	empty := &corpus.Source{Name: "empty", Format: corpus.FormatPubMed, Data: nil}
	_, err := cluster.Run(2, simtime.Zero(), func(c *cluster.Comm) error {
		rpc := armci.New(c)
		vocab := dhash.New(c, rpc)
		fwd, err := scan.Scan(c, vocab, []*corpus.Source{empty}, scan.TokenizerConfig{})
		if err != nil {
			return err
		}
		n := vocab.Finalize()
		fwd.RemapDense(c, vocab)
		fwd.AssignGlobalDocIDs(c)
		gf := PublishForward(c, fwd)
		ix := Invert(c, gf, n, vocab.DenseRange, Options{})
		if len(ix.Loads) != 0 {
			return fmt.Errorf("loads from empty corpus")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEncodePostingsMatchesIndex(t *testing.T) {
	sources := invTestSources()
	_, err := cluster.Run(3, simtime.Zero(), func(c *cluster.Comm) error {
		rpc := armci.New(c)
		vocab := dhash.New(c, rpc)
		parts := corpus.Partition(sources, 3)
		fwd, err := scan.Scan(c, vocab, parts[c.Rank()], scan.TokenizerConfig{})
		if err != nil {
			return err
		}
		n := vocab.Finalize()
		fwd.RemapDense(c, vocab)
		fwd.AssignGlobalDocIDs(c)
		gf := PublishForward(c, fwd)
		ix := Invert(c, gf, n, vocab.DenseRange, Options{Strategy: DynamicGA, RPC: rpc})

		// Every rank emits its owned range straight into the block codec;
		// the blocks must decode to exactly the index's posting lists.
		ps, err := ix.EncodePostings(c)
		if err != nil {
			return err
		}
		if err := ps.Validate(); err != nil {
			return err
		}
		if ps.NumTerms != ix.TermHi-ix.TermLo {
			return fmt.Errorf("rank %d encoded %d terms, owns %d", c.Rank(), ps.NumTerms, ix.TermHi-ix.TermLo)
		}
		for i := int64(0); i < ps.NumTerms; i++ {
			wantDocs, wantFreqs := ix.Postings(ix.TermLo + i)
			gotDocs, gotFreqs := ps.Postings(i)
			if !reflect.DeepEqual(gotDocs, wantDocs) || !reflect.DeepEqual(gotFreqs, wantFreqs) {
				return fmt.Errorf("rank %d term %d: block postings differ", c.Rank(), ix.TermLo+i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// scanned runs Scan & Map over sources on p ranks and hands every rank its
// dense forward index and the vocabulary, as core.Run does before indexing.
func scanned(p int, sources []*corpus.Source, body func(c *cluster.Comm, fwd *scan.Forward, vocab *dhash.Map, n int64) error) error {
	_, err := cluster.Run(p, simtime.Zero(), func(c *cluster.Comm) error {
		vocab := dhash.New(c, armci.New(c))
		fwd, err := scan.Scan(c, vocab, corpus.Partition(sources, p)[c.Rank()], scan.TokenizerConfig{})
		if err != nil {
			return err
		}
		n := vocab.Finalize()
		fwd.RemapDense(c, vocab)
		fwd.AssignGlobalDocIDs(c)
		return body(c, fwd, vocab, n)
	})
	return err
}

// TestInvertDifferential holds Invert to the per-term inversion it replaced:
// every array of the Index, DF, CF and the load table (Entries included) must
// be equal element for element on every rank, whoever claimed which load.
func TestInvertDifferential(t *testing.T) {
	// One-word documents make loads that touch a single owner; the
	// generated records touch all of them.
	mono := corpus.FromTexts("mono", []string{"zebra", "zebra zebra zebra", "quagga", "zebra quagga"})
	corpora := map[string][]*corpus.Source{
		"pubmed": append(invTestSources(), mono),
		"trec": append(corpus.Generate(corpus.GenSpec{
			Format: corpus.FormatTREC, TargetBytes: 40_000, Sources: 4, Seed: 5, VocabSize: 1200, Topics: 3,
		}), mono),
	}
	for name, sources := range corpora {
		for _, p := range []int{1, 2, 3, 4, 7} {
			err := scanned(p, sources, func(c *cluster.Comm, fwd *scan.Forward, vocab *dhash.Map, n int64) error {
				gf := PublishForward(c, fwd)
				for _, strat := range []Strategy{DynamicGA, Static, MasterWorker} {
					for _, chunk := range []int64{1, 256, 4096} {
						opts := Options{Strategy: strat, ChunkTokens: chunk}
						want := oracleInvert(c, gf, n, vocab.DenseRange, opts)
						got := Invert(c, gf, n, vocab.DenseRange, opts)
						if what := indexDiff(got, want); what != "" {
							return fmt.Errorf("%v chunk=%d rank %d: %s differs from the per-term oracle", strat, chunk, c.Rank(), what)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
		}
	}
}

// indexDiff names the first part of the calling rank's view of two indexes
// that differs, or returns "".
func indexDiff(got, want *Index) string {
	arrays := []struct {
		name      string
		got, want *ga.Array[int64]
	}{
		{"Counts", got.Counts, want.Counts}, {"Off", got.Off, want.Off},
		{"PostDoc", got.PostDoc, want.PostDoc}, {"PostFreq", got.PostFreq, want.PostFreq},
	}
	for _, a := range arrays {
		if !slices.Equal(a.got.Access(), a.want.Access()) {
			return a.name
		}
	}
	switch {
	case !slices.Equal(got.DF, want.DF):
		return "DF"
	case !slices.Equal(got.CF, want.CF):
		return "CF"
	case !slices.Equal(got.Loads, want.Loads):
		return "Loads"
	case got.N != want.N || got.TermLo != want.TermLo || got.TermHi != want.TermHi:
		return "term range"
	}
	return ""
}

// TestInvertRejectsTermOutsideVocabulary feeds inversion a forward index
// holding a token ID that RemapDense would never produce.
func TestInvertRejectsTermOutsideVocabulary(t *testing.T) {
	var bad int64
	err := scanned(2, invTestSources(), func(c *cluster.Comm, fwd *scan.Forward, vocab *dhash.Map, n int64) error {
		if c.Rank() == 1 {
			bad = n + 41
			fwd.Tokens[len(fwd.Tokens)/2] = bad
		}
		Invert(c, PublishForward(c, fwd), n, vocab.DenseRange, Options{Strategy: Static})
		return nil
	})
	if err == nil {
		t.Fatal("a term outside [0, N) was inverted")
	}
	for _, want := range []string{"invert: load ", " field ", fmt.Sprintf(" term %d outside the vocabulary [0,%d)", bad, bad-41)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("panic does not name the load, the field and the term (%q missing): %v", want, err)
		}
	}
}

// oracleInvert is the inversion this package shipped before postings moved a
// load at a time, kept verbatim as the reference TestInvertDifferential
// compares Invert against: per-load maps, and in pass 2 one ReadInc and two
// Puts per term of every load.
func oracleInvert(c *cluster.Comm, gf *GlobalForward, N int64, termBounds func(rank int) (lo, hi int64), opts Options) *Index {
	lo, hi := termBounds(c.Rank())
	ix := &Index{N: N, TermLo: lo, TermHi: hi}
	ix.Counts = createTermArray(c, "inv.counts", N, termBounds)
	ix.Off = createTermArray(c, "inv.off", N, termBounds)

	loads := BuildLoads(c, gf, opts.ChunkTokens)
	claimer := newClaimer(c, loads, opts)

	// --- Pass 1: count distinct (term, doc) pairs per term. -------------
	myEntries := make(map[int]int64) // load index -> entries
	myLoads := claimer.claim(func(li int) {
		pairs := oracleInvertLoad(c, gf, &loads[li])
		idxs := make([]int64, 0, len(pairs))
		ones := make([]int64, 0, len(pairs))
		seen := make(map[int64]int64)
		for _, pr := range pairs {
			seen[pr.term]++
		}
		for t := range seen {
			idxs = append(idxs, t)
			ones = append(ones, seen[t])
		}
		ix.Counts.ScatterAcc(idxs, ones)
		myEntries[li] = int64(len(pairs))
		c.Clock().Advance(c.Model().InvertCost(float64(loads[li].Tokens())))
	})
	c.Barrier()

	// Share per-load entry counts so the load table (and therefore the
	// deterministic cost model) is global.
	type entryPair struct{ Load, Entries int64 }
	local := make([]entryPair, 0, len(myEntries))
	for li, e := range myEntries {
		local = append(local, entryPair{int64(li), e})
	}
	for _, part := range c.Allgather(local, float64(16*len(local))) {
		for _, ep := range part.([]entryPair) {
			loads[ep.Load].Entries = ep.Entries
		}
	}
	ix.Loads = loads

	// --- Offsets: local prefix over owned counts, global base via exscan.
	counts := ix.Counts.Access()
	var localTotal int64
	for _, n := range counts {
		localTotal += n
	}
	base, totalPostings := c.ExScanInt64(localTotal)
	offs := ix.Off.Access()
	run := base
	for i, n := range counts {
		offs[i] = run
		run += n
	}
	ix.PostDoc = ga.CreateIrregular[int64](c, "inv.postdoc", localTotal)
	ix.PostFreq = ga.CreateIrregular[int64](c, "inv.postfreq", localTotal)
	cursor := createTermArray(c, "inv.cursor", N, termBounds)
	copy(cursor.Access(), offs)
	c.Barrier()
	_ = totalPostings

	// --- Pass 2: re-invert the same loads and place postings. -----------
	for _, li := range myLoads {
		pairs := oracleInvertLoad(c, gf, &loads[li])
		// Group by term, preserving the deterministic (doc-ordered within
		// a load) pair order.
		byTerm := make(map[int64][]entry)
		for _, pr := range pairs {
			byTerm[pr.term] = append(byTerm[pr.term], pr)
		}
		terms := make([]int64, 0, len(byTerm))
		for t := range byTerm {
			terms = append(terms, t)
		}
		sort.Slice(terms, func(a, b int) bool { return terms[a] < terms[b] })
		for _, t := range terms {
			es := byTerm[t]
			slot := cursor.ReadInc(t, int64(len(es)))
			docs := make([]int64, len(es))
			freqs := make([]int64, len(es))
			for i, e := range es {
				docs[i] = e.doc
				freqs[i] = e.freq
			}
			ix.PostDoc.Put(slot, docs)
			ix.PostFreq.Put(slot, freqs)
		}
		c.Clock().Advance(c.Model().InvertCost(float64(loads[li].Tokens())))
	}
	c.Barrier()

	// --- Finalize at the owner: sort postings per term, derive DF/CF. ---
	ix.finalizeOwned(c)
	c.Barrier()
	return ix
}

// oracleInvertLoad reads a load's fields and tokens through one-sided Gets and
// produces its (term, doc)->freq contributions in deterministic order
// (ascending doc, then term-insertion order within the doc).
func oracleInvertLoad(c *cluster.Comm, gf *GlobalForward, l *Load) []entry {
	nf := l.FieldHi - l.FieldLo
	fLo := make([]int64, nf)
	fLen := make([]int64, nf)
	fDoc := make([]int64, nf)
	gf.FieldLo.Get(l.FieldLo, fLo)
	gf.FieldLen.Get(l.FieldLo, fLen)
	gf.FieldDoc.Get(l.FieldLo, fDoc)
	toks := make([]int64, l.Tokens())
	gf.Tokens.Get(l.TokenLo, toks)

	var out []entry
	freq := make(map[int64]int64)
	var order []int64
	flush := func(doc int64) {
		for _, t := range order {
			out = append(out, entry{term: t, doc: doc, freq: freq[t]})
			delete(freq, t)
		}
		order = order[:0]
	}
	curDoc := int64(-1)
	for i := int64(0); i < nf; i++ {
		if fDoc[i] != curDoc {
			if curDoc >= 0 {
				flush(curDoc)
			}
			curDoc = fDoc[i]
		}
		start := fLo[i] - l.TokenLo
		for _, t := range toks[start : start+fLen[i]] {
			if freq[t] == 0 {
				order = append(order, t)
			}
			freq[t]++
		}
	}
	if curDoc >= 0 {
		flush(curDoc)
	}
	return out
}

// TestMergeSorterOrdersPostings holds finalizeOwned's run merge to a plain
// sort: postings made of ascending runs in any order, a random permutation
// (every element its own run), one run, and one posting.
func TestMergeSorterOrdersPostings(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ms mergeSorter
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(200)
		docs := rng.Perm(4 * n)[:n]
		switch trial % 3 {
		case 0: // ascending runs, shuffled as loads reserve them
			slices.Sort(docs)
			var runs [][]int
			for len(docs) > 0 {
				k := 1 + rng.Intn(len(docs))
				runs, docs = append(runs, docs[:k]), docs[k:]
			}
			rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
			docs = slices.Concat(runs...)
		case 1:
			slices.Sort(docs)
		}
		d := make([]int64, n)
		f := make([]int64, n)
		want := make([]refPosting, n)
		for i, doc := range docs {
			d[i], f[i] = int64(doc), int64(rng.Intn(9)+1)
			want[i] = refPosting{d[i], f[i]}
		}
		slices.SortFunc(want, func(a, b refPosting) int { return int(a.Doc - b.Doc) })
		ms.sort(d, f)
		for i := range want {
			if d[i] != want[i].Doc || f[i] != want[i].Freq {
				t.Fatalf("trial %d: posting %d is (%d,%d), want %v", trial, i, d[i], f[i], want[i])
			}
		}
	}
}

// TestSortTermsMatchesSort holds the bitmap sweep to a sort, from loads of
// a few terms spread over the vocabulary to loads that fill it, and checks
// the bitmap is left clear.
func TestSortTermsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 5000
	s := &scratch{mark: make([]uint64, (n+63)/64)}
	for trial := 0; trial < 300; trial++ {
		k := rng.Intn(n / (1 + trial%50))
		s.terms = s.terms[:0]
		for _, t := range rng.Perm(n)[:k] {
			s.terms = append(s.terms, int64(t))
		}
		want := slices.Sorted(slices.Values(s.terms))
		s.sortTerms()
		if !slices.Equal(s.terms, want) {
			t.Fatalf("trial %d: sortTerms gave %v, want %v", trial, s.terms, want)
		}
		if i := slices.IndexFunc(s.mark, func(w uint64) bool { return w != 0 }); i >= 0 {
			t.Fatalf("trial %d: mark word %d left set", trial, i)
		}
	}
}

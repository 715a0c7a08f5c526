package corpus

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// GenSpec parameterizes a synthetic corpus. The generators stand in for the
// paper's two evaluation datasets, which cannot be redistributed at their
// original multi-gigabyte scale:
//
//   - FormatPubMed mimics NIH PubMed/MEDLINE abstracts: records of
//     consistent size and language type (paper §4.1), title + abstract
//     fields, uniform source files.
//   - FormatTREC mimics the GOV2 web crawl: heterogeneous document lengths
//     with a heavy tail, residual HTML markup in the text, and source files
//     of uneven size.
//
// Both draw words from a Zipf-distributed vocabulary through a latent topic
// mixture, so downstream clustering and projection recover real structure,
// and the skewed term distribution reproduces the inverted-indexing load
// imbalance the paper's Figure 9 investigates.
type GenSpec struct {
	// Format selects the dataset family (FormatPubMed or FormatTREC).
	Format Format
	// TargetBytes is the approximate total corpus size to generate.
	TargetBytes int64
	// Sources is the number of source files to split the corpus into.
	// Default 16.
	Sources int
	// Seed makes generation reproducible. Same spec -> same corpus.
	Seed int64
	// Topics is the number of latent themes. Default 12.
	Topics int
	// VocabSize is the vocabulary size. Default 20000.
	VocabSize int
	// TopicMix is the probability a word is drawn from the document's
	// topic block rather than the background distribution. Default 0.55.
	TopicMix float64
}

// withDefaults normalizes the spec.
func (g GenSpec) withDefaults() GenSpec {
	if g.TargetBytes <= 0 {
		g.TargetBytes = 1 << 20
	}
	if g.Sources <= 0 {
		g.Sources = 16
	}
	if g.Topics <= 0 {
		g.Topics = 12
	}
	if g.VocabSize <= 0 {
		g.VocabSize = 20000
	}
	if g.TopicMix <= 0 || g.TopicMix >= 1 {
		g.TopicMix = 0.55
	}
	return g
}

// Model is the language model a spec induces: the vocabulary and the
// per-topic word blocks. Exposed so tests and examples can check that the
// engine recovers the planted themes.
type Model struct {
	Spec   GenSpec
	Words  []string
	Blocks [][]int // Blocks[t] lists vocabulary indexes characteristic of topic t
}

// NewModel builds the language model for a spec.
func NewModel(spec GenSpec) *Model {
	spec = spec.withDefaults()
	words := BuildVocabulary(spec.Format, spec.VocabSize)
	// Reserve the first half of the vocabulary (the high-Zipf-mass words)
	// for the background distribution; carve per-topic blocks out of the
	// full range so each topic has some frequent and some rare words.
	blocks := make([][]int, spec.Topics)
	blockSize := spec.VocabSize / (2 * spec.Topics)
	if blockSize < 4 {
		blockSize = 4
	}
	for t := 0; t < spec.Topics; t++ {
		block := make([]int, 0, blockSize)
		for k := 0; k < blockSize; k++ {
			// Stride topics through the vocabulary so block words span
			// the frequency spectrum.
			idx := (t + k*spec.Topics) % spec.VocabSize
			block = append(block, idx)
		}
		blocks[t] = block
	}
	return &Model{Spec: spec, Words: words, Blocks: blocks}
}

// TopicWords returns the first n words of topic t's block.
func (m *Model) TopicWords(t, n int) []string {
	block := m.Blocks[t%len(m.Blocks)]
	if n > len(block) {
		n = len(block)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = m.Words[block[i]]
	}
	return out
}

// docSpec is the plan for one generated record.
type docSpec struct {
	topics     []int
	titleWords int
	bodyWords  int
}

// planDoc draws a document plan from the per-document RNG.
func (m *Model) planDoc(rng *rand.Rand) docSpec {
	spec := m.Spec
	var d docSpec
	// One or two topics per document.
	d.topics = []int{rng.Intn(spec.Topics)}
	if rng.Float64() < 0.3 {
		d.topics = append(d.topics, rng.Intn(spec.Topics))
	}
	if spec.Format == FormatPubMed {
		// Abstracts are consistent in size.
		d.titleWords = 8 + rng.Intn(6)
		d.bodyWords = 140 + rng.Intn(80)
	} else {
		// Web pages are heavy-tailed: lognormal body length.
		d.titleWords = 4 + rng.Intn(7)
		ln := math.Exp(5.3 + rng.NormFloat64()*0.9)
		d.bodyWords = int(ln)
		if d.bodyWords < 30 {
			d.bodyWords = 30
		}
		if d.bodyWords > 4000 {
			d.bodyWords = 4000
		}
	}
	return d
}

// drawWords appends n words drawn through the topic mixture.
func (m *Model) drawWords(rng *rand.Rand, d docSpec, n int, htmlNoise bool) string {
	spec := m.Spec
	background := rand.NewZipf(rng, 1.3, 1.5, uint64(spec.VocabSize-1))
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if htmlNoise && rng.Intn(48) == 0 {
			sb.WriteString(htmlTags[rng.Intn(len(htmlTags))])
			sb.WriteByte(' ')
		}
		var idx int
		if rng.Float64() < spec.TopicMix {
			block := m.Blocks[d.topics[rng.Intn(len(d.topics))]]
			// Zipf-like within the block: favour early block words.
			z := rng.Float64()
			idx = block[int(z*z*float64(len(block)))%len(block)]
		} else {
			idx = int(background.Uint64())
		}
		sb.WriteString(m.Words[idx])
	}
	return sb.String()
}

var htmlTags = []string{"<p>", "</p>", "<br/>", "&amp;", "<b>", "</b>", "<a href=\"index.html\">", "</a>"}

// GenRecord deterministically generates record number i (0-based). Records
// depend only on (spec, seed, i), never on how they are later grouped into
// sources, so corpora of different source counts share a document prefix.
func (m *Model) GenRecord(i int) Record {
	spec := m.Spec
	rng := rand.New(rand.NewSource(spec.Seed*1_000_003 + int64(i)))
	d := m.planDoc(rng)
	title := m.drawWords(rng, d, d.titleWords, false)
	if spec.Format == FormatPubMed {
		body := m.drawWords(rng, d, d.bodyWords, false)
		return Record{
			ID: fmt.Sprintf("%d", 10_000_001+i),
			Fields: []Field{
				{Name: "ti", Text: title},
				{Name: "ab", Text: body},
			},
		}
	}
	body := m.drawWords(rng, d, d.bodyWords, true)
	return Record{
		ID: fmt.Sprintf("GX%03d-%02d-%07d", i%997, i%89, i),
		Fields: []Field{
			{Name: "title", Text: title},
			{Name: "text", Text: body},
		},
	}
}

// Generate produces the synthetic corpus for the spec: Sources files
// totalling approximately TargetBytes. PubMed sources are near-uniform in
// size; TREC source sizes vary (the crawl's files differ widely), which
// exercises the engine's byte-balanced source partitioner.
func Generate(spec GenSpec) []*Source {
	spec = spec.withDefaults()
	m := NewModel(spec)
	// Per-source byte budgets.
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

	// Records depend only on (spec, seed, i), so they are drawn a batch
	// ahead of the budget loop on every core, and a source is encoded as
	// soon as its records are chosen; the bytes are those of a serial loop.
	sources := make([]*Source, spec.Sources)
	var encoders sync.WaitGroup
	var batch []Record // records [lo, lo+len(batch))
	lo, doc := 0, 0
	for s := 0; s < spec.Sources; s++ {
		var recs []Record
		var got int64
		for got < budgets[s] {
			if doc == lo+len(batch) {
				// Batches double, so a small corpus draws few records it
				// then leaves unused.
				lo, batch = doc, m.genRecords(doc, min(max(2*len(batch), 8), 256))
			}
			r := batch[doc-lo]
			doc++
			// Approximate encoded size: ids, tags and wrapping add ~10%.
			est := int64(len(r.Text())) + 64
			got += est + est/10
			recs = append(recs, r)
		}
		encoders.Add(1)
		go func() {
			defer encoders.Done()
			src := &Source{Name: fmt.Sprintf("%s-%04d.txt", spec.Format, s), Format: spec.Format}
			if spec.Format == FormatPubMed {
				src.Data = EncodePubMed(recs)
			} else {
				src.Data = EncodeTREC(recs)
			}
			sources[s] = src
		}()
	}
	encoders.Wait()
	return sources
}

// genRecords generates records [lo, lo+n), spread over every core.
func (m *Model) genRecords(lo, n int) []Record {
	out := make([]Record, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				out[i] = m.GenRecord(lo + i)
			}
		}()
	}
	wg.Wait()
	return out
}

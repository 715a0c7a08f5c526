package scan

import (
	"fmt"
	"sort"
	"strings"

	"inspire/internal/cluster"
	"inspire/internal/corpus"
	"inspire/internal/dhash"
)

// FieldSpan locates one field instance inside a rank's token stream.
type FieldSpan struct {
	Record int    // local record index
	Name   string // field name
	Lo, Hi int64  // token range within Forward.Tokens
}

// Forward holds one rank's forward index — the product of Scan & Map: the
// document-to-field table (RecordOffsets + Fields) and the field-to-term
// table (Tokens per FieldSpan), with terms as global vocabulary IDs.
type Forward struct {
	// RecordIDs are the external record identifiers, in processing order.
	RecordIDs []string
	// RecordOffsets has len(RecordIDs)+1 entries; record r's tokens are
	// Tokens[RecordOffsets[r]:RecordOffsets[r+1]].
	RecordOffsets []int64
	// Tokens is the concatenated term-ID stream of all local records.
	// After Scan these are provisional vocabulary IDs; RemapDense rewrites
	// them to dense IDs.
	Tokens []int64
	// Fields is the field-to-term table: every field instance with its
	// token span.
	Fields []FieldSpan
	// SourceNames lists this rank's sources in processing order, and
	// SourceRecCounts the number of records scanned from each.
	SourceNames     []string
	SourceRecCounts []int64
	// RawBytes is the total source bytes scanned by this rank.
	RawBytes int64
	// GlobalDocIDs assigns each local record its partition-invariant
	// global document ID; populated by AssignGlobalDocIDs.
	GlobalDocIDs []int64
	// TotalDocs is the global record count; populated by
	// AssignGlobalDocIDs.
	TotalDocs int64
}

// NumRecords returns the number of local records.
func (f *Forward) NumRecords() int { return len(f.RecordIDs) }

// RecordTokens returns the token slice of local record r.
func (f *Forward) RecordTokens(r int) []int64 {
	return f.Tokens[f.RecordOffsets[r]:f.RecordOffsets[r+1]]
}

// Scan parses and tokenizes the rank's assigned sources, building the
// forward index and populating the global vocabulary. Every unique term
// encountered is inserted into the distributed hashmap, which hands back its
// global term ID (an RPC to the term's owner on first sight, cached after).
//
// Each raw token costs one lookup in a rank-local table (termTable) that
// maps it to its provisional ID, or to dropped (stopword, number, out of
// length bounds). Only a raw token the rank has not seen is folded and
// classified, so the hashmap is reached once per new term per rank, in
// first-occurrence order, exactly as a per-token Insert would reach its
// owner.
func Scan(c *cluster.Comm, vocab *dhash.Map, mySources []*corpus.Source, cfg TokenizerConfig) (*Forward, error) {
	cfg = cfg.withDefaults()
	fwd := &Forward{RecordOffsets: []int64{0}}
	var size int64
	for _, src := range mySources {
		size += src.Size()
	}
	// A kept token takes at least six bytes of source in most text; the
	// stream grows past this guess only on denser text.
	fwd.Tokens = make([]int64, 0, size/6)
	var ids termTable
	var buf []byte
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
				toks := tokens{text: fl.Text}
				for {
					tok, ascii, ok := toks.next()
					if !ok {
						break
					}
					id, seen := ids.get(tok)
					if !seen {
						id = dropped
						if term, keep := cfg.term(tok, ascii, &buf); keep {
							id = vocab.Insert(strings.Clone(term))
						}
						ids.put(tok, id)
					}
					if id != dropped {
						fwd.Tokens = append(fwd.Tokens, id)
					}
				}
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

// dropped marks a raw token in Scan's table that yields no term.
// Provisional IDs are never negative.
const dropped = -1

// RemapDense rewrites the token stream from provisional to dense vocabulary
// IDs after vocab.Finalize. One linear pass; charged at the token-walk rate.
func (f *Forward) RemapDense(c *cluster.Comm, vocab *dhash.Map) {
	for i, t := range f.Tokens {
		f.Tokens[i] = vocab.Dense(t)
	}
	c.Clock().Advance(c.Model().TokenCost(float64(len(f.Tokens))))
}

// AssignGlobalDocIDs collectively assigns every record a global document ID
// that depends only on (source name, position in source) — never on P or on
// which rank scanned the source — so downstream products are comparable
// across runs with different processor counts. It fills GlobalDocIDs and
// TotalDocs.
func (f *Forward) AssignGlobalDocIDs(c *cluster.Comm) {
	type srcCount struct {
		Name  string
		Count int64
	}
	local := make([]srcCount, len(f.SourceNames))
	for i, n := range f.SourceNames {
		local[i] = srcCount{Name: n, Count: f.SourceRecCounts[i]}
	}
	parts := c.Allgather(local, float64(32*len(local)))
	var all []srcCount
	for _, p := range parts {
		all = append(all, p.([]srcCount)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	base := make(map[string]int64, len(all))
	var running int64
	for _, sc := range all {
		base[sc.Name] = running
		running += sc.Count
	}
	f.TotalDocs = running
	f.GlobalDocIDs = make([]int64, 0, len(f.RecordIDs))
	for i, name := range f.SourceNames {
		b := base[name]
		for k := int64(0); k < f.SourceRecCounts[i]; k++ {
			f.GlobalDocIDs = append(f.GlobalDocIDs, b+k)
		}
	}
}

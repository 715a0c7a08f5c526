package segment

import (
	"fmt"
	"slices"
)

// MaxRowFacets bounds the facets one metadata row may carry.
const MaxRowFacets = 64

// Meta is a block's document metadata, in the one form the base snapshot
// and every sealed segment share: sparse rows, strictly ascending by
// document, for exactly the documents that carry an ingest timestamp or
// facets (a document with neither has no row). Times[i] is Docs[i]'s
// timestamp (unix seconds; 0 = none). FacetOffs/FacetIDs are the row-offset
// form of the facet sets as IDs into Dict, the block's own dictionary, each
// row in ascending string order; all three are nil when no row has facets.
// It is the base's INSPSTORE4 layout too, so a loaded store's Meta aliases
// the mapped file. Read-only once built (MetaBuilder).
type Meta struct {
	Docs, Times         []int64
	FacetOffs, FacetIDs []int64
	Dict                []string
}

// Row returns doc's row, -1 when doc has none.
func (m *Meta) Row(doc int64) int {
	if i, ok := slices.BinarySearch(m.Docs, doc); ok {
		return i
	}
	return -1
}

// FacetRow returns row i's facet IDs (nil when it has none), aliasing m.
func (m *Meta) FacetRow(i int) []int64 {
	if len(m.FacetOffs) == 0 {
		return nil
	}
	return m.FacetIDs[m.FacetOffs[i]:m.FacetOffs[i+1]]
}

// AppendFacets appends row i's facet strings, ascending, to dst.
func (m *Meta) AppendFacets(dst []string, i int) []string {
	for _, id := range m.FacetRow(i) {
		dst = append(dst, m.Dict[id])
	}
	return dst
}

// Lookup returns doc's timestamp and facet strings (ascending, freshly
// allocated); (0, nil) for a document with no row.
func (m *Meta) Lookup(doc int64) (ts int64, facets []string) {
	if i := m.Row(doc); i >= 0 {
		return m.Times[i], m.AppendFacets(nil, i)
	}
	return 0, nil
}

// SizeBytes returns the metadata's footprint: its vectors and dictionary.
func (m *Meta) SizeBytes() int64 {
	n := int64(8 * (len(m.Docs) + len(m.Times) + len(m.FacetOffs) + len(m.FacetIDs)))
	for _, s := range m.Dict {
		n += int64(len(s))
	}
	return n
}

// Validate checks the structural invariants of m, and that every row names
// one of docs (ascending) — one merge walk.
func (m *Meta) Validate(docs []int64) error {
	n := len(m.Docs)
	if len(m.Times) != n {
		return fmt.Errorf("segment: %d metadata times for %d rows", len(m.Times), n)
	}
	j := 0
	for i, d := range m.Docs {
		if d < 0 || (i > 0 && d <= m.Docs[i-1]) {
			return fmt.Errorf("segment: metadata docs not strictly ascending at %d", i)
		}
		for j < len(docs) && docs[j] < d {
			j++
		}
		if j == len(docs) || docs[j] != d {
			return fmt.Errorf("segment: metadata row for document %d, which the block does not hold", d)
		}
	}
	seen := make(map[string]bool, len(m.Dict))
	for i, s := range m.Dict {
		if s == "" {
			return fmt.Errorf("segment: facet dictionary entry %d empty", i)
		}
		if seen[s] {
			return fmt.Errorf("segment: facet dictionary entry %q duplicated", s)
		}
		seen[s] = true
	}
	offs := m.FacetOffs
	if len(offs) == 0 {
		if len(m.FacetIDs) > 0 || len(m.Dict) > 0 {
			return fmt.Errorf("segment: facet vectors present without row offsets")
		}
		return nil
	}
	if len(offs) != n+1 {
		return fmt.Errorf("segment: %d facet offsets for %d metadata rows", len(offs), n)
	}
	if offs[0] != 0 || offs[n] != int64(len(m.FacetIDs)) {
		return fmt.Errorf("segment: facet offsets [%d,%d] disagree with %d IDs", offs[0], offs[n], len(m.FacetIDs))
	}
	for i := 0; i < n; i++ {
		lo, hi := offs[i], offs[i+1]
		if hi < lo {
			return fmt.Errorf("segment: facet offsets decrease at row %d", i)
		}
		if hi-lo > MaxRowFacets {
			return fmt.Errorf("segment: metadata row %d has %d facets (max %d)", i, hi-lo, MaxRowFacets)
		}
		for k := lo; k < hi; k++ {
			id := m.FacetIDs[k]
			if id < 0 || id >= int64(len(m.Dict)) {
				return fmt.Errorf("segment: metadata row %d references facet %d of %d", i, id, len(m.Dict))
			}
			if k > lo && m.Dict[id] <= m.Dict[m.FacetIDs[k-1]] {
				return fmt.Errorf("segment: metadata row %d facets not ascending", i)
			}
		}
	}
	return nil
}

// MetaBuilder builds a Meta row by row, interning facet strings into the
// dictionary in order of first appearance. The zero value is ready to use.
type MetaBuilder struct {
	m   Meta
	ids map[string]int64
}

// Add appends doc's row: doc above every document added before, facets
// strictly ascending (the slice is not retained). A row with no timestamp
// and no facets is dropped — absence is the one encoding of "none".
func (b *MetaBuilder) Add(doc, ts int64, facets []string) {
	if ts == 0 && len(facets) == 0 {
		return
	}
	if b.m.FacetOffs == nil {
		b.m.FacetOffs = []int64{0}
		b.ids = make(map[string]int64)
	}
	b.m.Docs = append(b.m.Docs, doc)
	b.m.Times = append(b.m.Times, ts)
	for _, s := range facets {
		id, ok := b.ids[s]
		if !ok {
			id = int64(len(b.m.Dict))
			b.m.Dict = append(b.m.Dict, s)
			b.ids[s] = id
		}
		b.m.FacetIDs = append(b.m.FacetIDs, id)
	}
	b.m.FacetOffs = append(b.m.FacetOffs, int64(len(b.m.FacetIDs)))
}

// Meta returns the rows added so far.
func (b *MetaBuilder) Meta() Meta {
	m := b.m
	if len(m.FacetIDs) == 0 {
		m.FacetOffs = nil
	}
	return m
}

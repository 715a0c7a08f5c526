package serve

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"inspire/internal/postings"
	"inspire/internal/segment"
	"inspire/internal/storefile"
)

// Document metadata: an optional ingest timestamp and a set of categorical
// "key=value" facets per document, threaded through every query layer so an
// analyst can restrict any interaction — boolean retrieval, similarity,
// spatial tiles — to a time window or an attribute slice of the corpus.
//
// Every block — the base snapshot and each sealed segment — carries its
// metadata as one segment.Meta: sparse rows ascending by document, facet
// strings interned into the block's own dictionary. A Filter compiles
// against each block's dictionary, and dense selections become packed
// bitmaps (postings.Bits) that the word-wise AND kernels consume directly.

// Facet bounds enforced at ingest, comfortably inside the tile codec's
// decode limits so every facet a store accepts round-trips the sidecar.
const (
	maxDocFacets = segment.MaxRowFacets
	maxFacetLen  = 256
)

// Filter restricts a session's queries to documents matching every listed
// predicate. The zero Filter matches everything. Time bounds are inclusive
// [After, Before] on the ingest timestamp; a bound of 0 is open. A document
// with no timestamp (0) fails any time-bounded filter, and every facet
// listed must be present on the document. Semantics are exactly "post-filter
// the unfiltered answer": a filtered query returns the unfiltered result
// with non-matching documents removed.
type Filter struct {
	After  int64    `json:"after,omitempty"`
	Before int64    `json:"before,omitempty"`
	Facets []string `json:"facets,omitempty"`
}

// Empty reports whether the filter matches every document.
func (f Filter) Empty() bool {
	return f.After == 0 && f.Before == 0 && len(f.Facets) == 0
}

// timeOK applies the inclusive time window to an ingest timestamp.
func (f Filter) timeOK(ts int64) bool {
	if f.After == 0 && f.Before == 0 {
		return true
	}
	if ts == 0 {
		return false
	}
	if f.After != 0 && ts < f.After {
		return false
	}
	if f.Before != 0 && ts > f.Before {
		return false
	}
	return true
}

// normalized returns the filter with its facet list validated, sorted and
// deduplicated — the canonical form every serving path works with.
func (f Filter) normalized() (Filter, error) {
	facets, err := normalizeFacets(f.Facets)
	if err != nil {
		return Filter{}, err
	}
	f.Facets = facets
	return f, nil
}

// canonical is normalized without the copy when the facets already are —
// as a Querier's sticky filter always is.
func (f Filter) canonical() (Filter, error) {
	for i, s := range f.Facets {
		if i >= maxDocFacets || len(s) > maxFacetLen || strings.IndexByte(s, '=') <= 0 ||
			(i > 0 && f.Facets[i-1] >= s) {
			return f.normalized()
		}
	}
	return f, nil
}

// cacheKey canonically serializes the (normalized) filter for cache keying.
func (f Filter) cacheKey() string {
	var sb strings.Builder
	sb.WriteString(strconv.FormatInt(f.After, 10))
	sb.WriteByte('|')
	sb.WriteString(strconv.FormatInt(f.Before, 10))
	for _, s := range f.Facets {
		sb.WriteByte('|')
		sb.WriteString(s)
	}
	return sb.String()
}

// normalizeFacets validates a facet list ("key=value", bounded) and returns
// it sorted and deduplicated, nil when empty — the canonical row form shared
// by ingest and filters.
func normalizeFacets(facets []string) ([]string, error) {
	if len(facets) == 0 {
		return nil, nil
	}
	if len(facets) > maxDocFacets {
		return nil, Errorf(ErrInvalid, "serve: %d facets (max %d)", len(facets), maxDocFacets)
	}
	out := make([]string, len(facets))
	copy(out, facets)
	for _, f := range out {
		if len(f) > maxFacetLen {
			return nil, Errorf(ErrInvalid, "serve: facet %q exceeds %d bytes", f[:32]+"…", maxFacetLen)
		}
		if eq := strings.IndexByte(f, '='); eq <= 0 {
			return nil, Errorf(ErrInvalid, "serve: facet %q is not key=value", f)
		}
	}
	sort.Strings(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[i-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w], nil
}

// metaPred is a Filter compiled against one block's dictionary: the wanted
// facets resolved to IDs once, so matching a row is a scan over small int64
// rows with no string work. A wanted facet absent from the dictionary (ID
// -1) can never match.
type metaPred struct {
	f   Filter
	ids []int64
}

func compilePred(m *segment.Meta, f Filter) metaPred {
	p := metaPred{f: f, ids: make([]int64, len(f.Facets))}
	for i, s := range f.Facets {
		p.ids[i] = int64(slices.Index(m.Dict, s))
	}
	return p
}

// match tests row i of m. Rows hold at most maxDocFacets IDs, so membership
// is a linear scan.
func (p *metaPred) match(m *segment.Meta, i int) bool {
	if !p.f.timeOK(m.Times[i]) {
		return false
	}
	row := m.FacetRow(i)
	for _, want := range p.ids {
		if want < 0 || !slices.Contains(row, want) {
			return false
		}
	}
	return true
}

// filterSet is the materialized document set of one (view, filter) pair.
// Dense selections pack into a postings.Bits sharing the bitmap containers'
// word grid, so a filtered AND runs the same word-wise kernels as a dense
// posting intersection; sparse selections keep a sorted ID list and filter
// by merge-walk. Built once per (epoch, filter) and cached on the Server.
type filterSet struct {
	bits *postings.Bits
	docs []int64 // sorted; nil when bits != nil
}

// filterDensity is the span-per-member threshold below which a filter set
// packs into a bitmap: at least one member per 64-ID word on average means
// the word-wise kernels beat a merge-walk.
const filterDensity = 64

// buildFilterSet enumerates the documents of v matching the non-empty filter
// f, walking every block's metadata rows once: a document without a row
// matches no non-empty filter.
func buildFilterSet(v *view, f Filter) *filterSet {
	fs := &filterSet{}
	var docs []int64
	for _, b := range v.blocks {
		p := compilePred(&b.Meta, f)
		for i, doc := range b.Meta.Docs {
			if p.match(&b.Meta, i) {
				docs = append(docs, doc)
			}
		}
	}
	slices.Sort(docs)
	if n := int64(len(docs)); n > 0 {
		if span := docs[n-1] - docs[0] + 1; span/n < filterDensity {
			bits := postings.NewBits(docs[0], docs[n-1]+1)
			for _, d := range docs {
				bits.Set(d)
			}
			fs.bits = bits
			return fs
		}
	}
	fs.docs = docs
	return fs
}

// contains reports membership — one word probe for a dense set, a binary
// search for a sparse one.
func (fs *filterSet) contains(doc int64) bool {
	if fs.bits != nil {
		return fs.bits.Contains(doc)
	}
	i := sort.Search(len(fs.docs), func(i int) bool { return fs.docs[i] >= doc })
	return i < len(fs.docs) && fs.docs[i] == doc
}

// filterDocs filters an ascending candidate list in place, returning the
// kept prefix of docs' backing array.
func (fs *filterSet) filterDocs(docs []int64) []int64 {
	if len(docs) == 0 {
		return docs
	}
	if fs.bits != nil {
		out, _ := fs.bits.FilterInto(docs[:0], docs)
		return out
	}
	out := docs[:0]
	j := 0
	for _, d := range docs {
		for j < len(fs.docs) && fs.docs[j] < d {
			j++
		}
		if j < len(fs.docs) && fs.docs[j] == d {
			out = append(out, d)
		}
	}
	return out
}

// metaRow returns the block metadata holding doc's row and the row, -1 when
// doc has none: one loop over the blocks, which are disjoint in documents.
func (v *view) metaRow(doc int64) (*segment.Meta, int) {
	for _, b := range v.blocks {
		if i := b.Meta.Row(doc); i >= 0 {
			return &b.Meta, i
		}
	}
	return nil, -1
}

// matches reports whether doc's metadata satisfies the non-empty filter f.
func (v *view) matches(doc int64, f Filter) bool {
	m, i := v.metaRow(doc)
	if i < 0 {
		return false
	}
	p := compilePred(m, f)
	return p.match(m, i)
}

// docMeta resolves doc's ingest metadata as (timestamp, sorted facets);
// (0, nil) if none. Tile-pyramid maintenance stamps entries with it.
func (v *view) docMeta(doc int64) (int64, []string) {
	m, i := v.metaRow(doc)
	if i < 0 {
		return 0, nil
	}
	return m.Times[i], m.AppendFacets(nil, i)
}

// SetBaseMeta installs document metadata directly on the base snapshot —
// the bulk path for attaching timestamps and facets to an already-indexed
// corpus (benchmark fixtures, offline backfills). docs, times and facets are
// parallel; rows are validated and normalized exactly like ingest-time
// metadata, and only rows of base documents are kept (as Rebase keeps
// them). It rewrites the base layout, so it refuses once live data exists.
func (st *Store) SetBaseMeta(docs []int64, times []int64, facets [][]string) error {
	if len(times) != len(docs) || len(facets) != len(docs) {
		return fmt.Errorf("serve: set base meta: %d docs, %d times, %d facet rows", len(docs), len(times), len(facets))
	}
	order := make([]int, len(docs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return docs[order[a]] < docs[order[b]] })
	st.live.mu.Lock()
	defer st.live.mu.Unlock()
	if st.hasLiveLocked() {
		return fmt.Errorf("serve: set base meta: store has live segments or tombstones; Rebase first")
	}
	var meta segment.MetaBuilder
	base, j := st.SigDocs, 0
	for o, i := range order {
		doc := docs[i]
		if doc < 0 {
			return fmt.Errorf("serve: set base meta: negative doc ID %d", doc)
		}
		if o > 0 && docs[order[o-1]] == doc {
			return fmt.Errorf("serve: set base meta: duplicate doc ID %d", doc)
		}
		norm, err := normalizeFacets(facets[i])
		if err != nil {
			return err
		}
		for j < len(base) && base[j] < doc {
			j++
		}
		if j < len(base) && base[j] == doc {
			meta.Add(doc, times[i], norm)
		}
	}
	st.Meta = meta.Meta()
	st.resetViewLocked()
	st.dropTiles() // every member carries its metadata
	return nil
}

// appendMetaSections appends the INSPSTORE4 sections carrying the base
// metadata. A store with no metadata appends nothing, keeping its file
// byte-identical to a pre-metadata build's.
func appendMetaSections(secs []storefile.Section, m *segment.Meta) []storefile.Section {
	if len(m.Docs) == 0 {
		return secs
	}
	secs = append(secs,
		storefile.Section{Name: secMetaDocs, Data: storefile.AppendInt64s(nil, m.Docs)},
		storefile.Section{Name: secMetaTimes, Data: storefile.AppendInt64s(nil, m.Times)},
	)
	if len(m.FacetOffs) == 0 {
		return secs
	}
	dict := m.Dict
	var blobLen int
	for _, s := range dict {
		blobLen += len(s)
	}
	blob := make([]byte, 0, blobLen)
	facetOffs := make([]int64, len(dict)+1)
	for i, s := range dict {
		facetOffs[i] = int64(len(blob))
		blob = append(blob, s...)
	}
	facetOffs[len(dict)] = int64(len(blob))
	return append(secs,
		storefile.Section{Name: secMetaFacOffs, Data: storefile.AppendInt64s(nil, m.FacetOffs)},
		storefile.Section{Name: secMetaFacIDs, Data: storefile.AppendInt64s(nil, m.FacetIDs)},
		storefile.Section{Name: secFacetBlob, Data: blob},
		storefile.Section{Name: secFacetOffs, Data: storefile.AppendInt64s(nil, facetOffs)},
	)
}

// decodeMetaSections reads the metadata sections back, aliasing the int64
// vectors and dictionary strings into the (mapped) file wherever the host
// allows. pinned is the heap bytes any forced copies cost. Structural
// validation is segment.Meta.Validate's, run by Store.validate afterwards;
// only what must hold to slice the blob safely is checked here.
func decodeMetaSections(f *storefile.File) (m segment.Meta, pinned int64, err error) {
	sec := func(name string) []byte {
		b, _ := f.Section(name)
		return b
	}
	ints := func(name string) ([]int64, error) {
		v, copied, err := storefile.Int64s(sec(name))
		if err != nil {
			return nil, fmt.Errorf("serve: load store v4: section %s: %v", name, err)
		}
		if copied {
			pinned += int64(8 * len(v))
		}
		return v, nil
	}
	if m.Docs, err = ints(secMetaDocs); err != nil {
		return
	}
	if m.Times, err = ints(secMetaTimes); err != nil {
		return
	}
	if m.FacetOffs, err = ints(secMetaFacOffs); err != nil {
		return
	}
	if m.FacetIDs, err = ints(secMetaFacIDs); err != nil {
		return
	}
	var facetOffs []int64
	if facetOffs, err = ints(secFacetOffs); err != nil {
		return
	}
	blob := sec(secFacetBlob)
	if len(facetOffs) == 0 {
		if len(blob) > 0 {
			err = fmt.Errorf("serve: load store v4: section %s: blob without offsets", secFacetBlob)
		}
		return
	}
	nDict := len(facetOffs) - 1
	m.Dict = make([]string, nDict)
	pinned += int64(16 * nDict)
	for i := 0; i < nDict; i++ {
		lo, hi := facetOffs[i], facetOffs[i+1]
		if lo < 0 || hi < lo || hi > int64(len(blob)) {
			err = fmt.Errorf("serve: load store v4: section %s: entry %d bounds [%d,%d) exceed blob %d", secFacetOffs, i, lo, hi, len(blob))
			return
		}
		m.Dict[i] = storefile.String(blob[lo:hi])
	}
	if facetOffs[nDict] != int64(len(blob)) {
		err = fmt.Errorf("serve: load store v4: section %s: %d trailing bytes", secFacetBlob, int64(len(blob))-facetOffs[nDict])
	}
	return
}

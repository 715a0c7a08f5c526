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
// The base snapshot stores metadata as sparse sorted parallel vectors over
// document IDs, with facet strings interned into one dictionary (see the
// Store fields MetaDocs..FacetDict); sealed segments carry their rows as
// plain strings. A Filter compiles against a view once, and dense selections
// become packed bitmaps (postings.Bits) that the word-wise AND kernels
// consume directly.

// Facet bounds enforced at ingest, comfortably inside the tile codec's
// decode limits so every facet a store accepts round-trips the sidecar.
const (
	maxDocFacets = 64
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

// facetSubset reports whether every facet in want appears in have; both are
// sorted ascending.
func facetSubset(want, have []string) bool {
	j := 0
	for _, w := range want {
		for j < len(have) && have[j] < w {
			j++
		}
		if j >= len(have) || have[j] != w {
			return false
		}
	}
	return true
}

// metaPred is a Filter compiled against one view: the wanted facets resolved
// to base-dictionary IDs once, so matching a base row is a scan over small
// int64 rows with no string work. A wanted facet absent from the dictionary
// (baseIDs[i] == -1) can never match a base row.
type metaPred struct {
	f       Filter
	baseIDs []int64
}

func compilePred(b *baseView, f Filter) *metaPred {
	p := &metaPred{f: f}
	if len(f.Facets) > 0 {
		p.baseIDs = make([]int64, len(f.Facets))
		for i, s := range f.Facets {
			id, ok := b.facetIDs[s]
			if !ok {
				id = -1
			}
			p.baseIDs[i] = id
		}
	}
	return p
}

// matchBase tests base metadata row i. Rows hold at most maxDocFacets IDs,
// so membership is a linear scan.
func (p *metaPred) matchBase(b *baseView, i int) bool {
	if !p.f.timeOK(b.metaTimes[i]) {
		return false
	}
	if len(p.baseIDs) == 0 {
		return true
	}
	if len(b.metaFacetOffs) == 0 {
		return false
	}
	row := b.metaFacetIDs[b.metaFacetOffs[i]:b.metaFacetOffs[i+1]]
	for _, want := range p.baseIDs {
		if want < 0 {
			return false
		}
		found := false
		for _, id := range row {
			if id == want {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// matchMeta tests a raw (timestamp, sorted facet strings) pair — the segment
// row form, and the form for documents with no metadata at all (0, nil).
func (p *metaPred) matchMeta(ts int64, have []string) bool {
	if !p.f.timeOK(ts) {
		return false
	}
	return facetSubset(p.f.Facets, have)
}

// filterSet is the materialized document set of one (view, filter) pair.
// Dense selections pack into a postings.Bits sharing the bitmap containers'
// word grid, so a filtered AND runs the same word-wise kernels as a dense
// posting intersection; sparse selections keep a sorted ID list and filter
// by merge-walk. Built once per (epoch, filter) and cached on the Server.
type filterSet struct {
	pred *metaPred
	bits *postings.Bits
	docs []int64 // sorted; nil when bits != nil
}

// filterDensity is the span-per-member threshold below which a filter set
// packs into a bitmap: at least one member per 64-ID word on average means
// the word-wise kernels beat a merge-walk.
const filterDensity = 64

// buildFilterSet enumerates the documents of v matching f, walking the base
// metadata vectors and every segment's rows once.
func buildFilterSet(v *view, f Filter) *filterSet {
	b := v.base
	pred := compilePred(b, f)
	fs := &filterSet{pred: pred}
	var docs []int64
	stray := b.strayMeta(v.blocks[0])
	for i, doc := range b.metaDocs {
		if pred.matchBase(b, i) && (!stray || v.blocks[0].Contains(doc)) {
			docs = append(docs, doc)
		}
	}
	for _, s := range v.segs() {
		for i, doc := range s.Docs {
			if pred.matchMeta(s.MetaAt(i)) {
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

// strayMeta reports whether some base metadata row names a document outside
// the base block blk — a row only counts for a base document, and
// SetBaseMeta takes any ID (Rebase drops such rows). Found by one merge walk,
// once per base, so the common case tests no membership per row.
func (b *baseView) strayMeta(blk *segment.Segment) bool {
	b.strayOnce.Do(func() {
		j := 0
		for _, d := range b.metaDocs {
			for j < len(blk.Docs) && blk.Docs[j] < d {
				j++
			}
			if j == len(blk.Docs) || blk.Docs[j] != d {
				b.stray = true
				return
			}
		}
	})
	return b.stray
}

// metaIndex returns doc's row in the base metadata vectors, -1 when absent.
func (b *baseView) metaIndex(doc int64) int {
	i := sort.Search(len(b.metaDocs), func(i int) bool { return b.metaDocs[i] >= doc })
	if i < len(b.metaDocs) && b.metaDocs[i] == doc {
		return i
	}
	return -1
}

// meta returns base document doc's metadata row as (timestamp, facet
// strings) — ascending by string, because rows are interned in string order;
// ok is false when the document has none.
func (b *baseView) meta(doc int64) (ts int64, facets []string, ok bool) {
	i := b.metaIndex(doc)
	if i < 0 {
		return 0, nil, false
	}
	if len(b.metaFacetOffs) > 0 {
		if row := b.metaFacetIDs[b.metaFacetOffs[i]:b.metaFacetOffs[i+1]]; len(row) > 0 {
			facets = make([]string, len(row))
			for j, id := range row {
				facets[j] = b.facetDict[id]
			}
		}
	}
	return b.metaTimes[i], facets, true
}

// docMeta resolves doc's ingest metadata — its segment row, else its base row
// (a stray one for a live ID counts for no filter) — as (timestamp, sorted
// facets); (0, nil) if none. Tile-pyramid maintenance stamps entries with it.
func (v *view) docMeta(doc int64) (int64, []string) {
	for _, s := range v.segs() {
		if ts, facets, ok := s.Meta(doc); ok {
			return ts, facets
		}
	}
	ts, facets, _ := v.base.meta(doc)
	return ts, facets
}

// metaRows returns the base metadata as per-document rows over docs — the
// segment form (see segment.Segment.Times) Rebase merges; (nil, nil) when the
// base has none.
func (b *baseView) metaRows(docs []int64) ([]int64, [][]string) {
	if len(b.metaDocs) == 0 {
		return nil, nil
	}
	times, facets := make([]int64, len(docs)), make([][]string, len(docs))
	for i, d := range docs {
		times[i], facets[i], _ = b.meta(d)
	}
	return times, facets
}

// facetInterner builds a facet dictionary incrementally, mapping sorted
// string rows to ID rows that stay ascending by dictionary string.
type facetInterner struct {
	dict []string
	ids  map[string]int64
}

func newFacetInterner(dict []string) *facetInterner {
	in := &facetInterner{dict: dict, ids: make(map[string]int64, len(dict))}
	for i, s := range dict {
		in.ids[s] = int64(i)
	}
	return in
}

// intern maps one sorted facet row to dictionary IDs, extending the
// dictionary with unseen strings. The ID row preserves the input (string)
// order, so converting back yields a sorted row.
func (in *facetInterner) intern(facets []string) []int64 {
	if len(facets) == 0 {
		return nil
	}
	row := make([]int64, len(facets))
	for i, s := range facets {
		id, ok := in.ids[s]
		if !ok {
			id = int64(len(in.dict))
			in.dict = append(in.dict, s)
			in.ids[s] = id
		}
		row[i] = id
	}
	return row
}

// metaTable is the base metadata vectors in transit: built by a fold
// (SetBaseMeta, Rebase) and assigned onto a Store wholesale.
type metaTable struct {
	docs, times []int64
	facetOffs   []int64
	facetIDs    []int64
	dict        []string
}

// buildMetaTable interns per-document rows (sorted by doc, facets
// normalized) into the sparse base form. Rows with zero time and no facets
// are dropped — absence of metadata is the canonical encoding of "none" —
// and nil times mean no rows at all, as in a segment.
func buildMetaTable(docs, times []int64, facets [][]string) metaTable {
	var t metaTable
	if times == nil {
		return t
	}
	in := newFacetInterner(nil)
	var ids []int64
	offs := []int64{0}
	hasFacets := false
	for i, doc := range docs {
		if times[i] == 0 && len(facets[i]) == 0 {
			continue
		}
		t.docs = append(t.docs, doc)
		t.times = append(t.times, times[i])
		row := in.intern(facets[i])
		ids = append(ids, row...)
		offs = append(offs, int64(len(ids)))
		if len(row) > 0 {
			hasFacets = true
		}
	}
	if hasFacets {
		t.facetOffs = offs
		t.facetIDs = ids
		t.dict = in.dict
	}
	return t
}

// install assigns the table onto the store's base fields.
func (t metaTable) install(st *Store) {
	st.MetaDocs = t.docs
	st.MetaTimes = t.times
	st.MetaFacetOffs = t.facetOffs
	st.MetaFacetIDs = t.facetIDs
	st.FacetDict = t.dict
}

// SetBaseMeta installs document metadata directly on the base snapshot —
// the bulk path for attaching timestamps and facets to an already-indexed
// corpus (benchmark fixtures, offline backfills). docs, times and facets are
// parallel; rows are validated and normalized exactly like ingest-time
// metadata. It rewrites the base layout, so it refuses once live data
// exists.
func (st *Store) SetBaseMeta(docs []int64, times []int64, facets [][]string) error {
	if len(times) != len(docs) || len(facets) != len(docs) {
		return fmt.Errorf("serve: set base meta: %d docs, %d times, %d facet rows", len(docs), len(times), len(facets))
	}
	order := make([]int, len(docs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return docs[order[a]] < docs[order[b]] })
	sDocs := make([]int64, len(docs))
	sTimes := make([]int64, len(docs))
	sFacets := make([][]string, len(docs))
	for o, i := range order {
		doc := docs[i]
		if doc < 0 {
			return fmt.Errorf("serve: set base meta: negative doc ID %d", doc)
		}
		if o > 0 && sDocs[o-1] == doc {
			return fmt.Errorf("serve: set base meta: duplicate doc ID %d", doc)
		}
		norm, err := normalizeFacets(facets[i])
		if err != nil {
			return err
		}
		sDocs[o], sTimes[o], sFacets[o] = doc, times[i], norm
	}
	st.live.mu.Lock()
	defer st.live.mu.Unlock()
	if st.hasLiveLocked() {
		return fmt.Errorf("serve: set base meta: store has live segments or tombstones; Rebase first")
	}
	buildMetaTable(sDocs, sTimes, sFacets).install(st)
	st.resetViewLocked()
	st.dropTiles() // every member carries its metadata
	return nil
}

// validateMeta checks the structural invariants of the base metadata
// vectors; part of Store.validate.
func (st *Store) validateMeta() error {
	n := len(st.MetaDocs)
	if len(st.MetaTimes) != n {
		return fmt.Errorf("serve: store has %d metadata times for %d docs", len(st.MetaTimes), n)
	}
	for i, d := range st.MetaDocs {
		if d < 0 || (i > 0 && d <= st.MetaDocs[i-1]) {
			return fmt.Errorf("serve: store metadata docs not strictly ascending at %d", i)
		}
	}
	seen := make(map[string]bool, len(st.FacetDict))
	for i, s := range st.FacetDict {
		if s == "" {
			return fmt.Errorf("serve: store facet dictionary entry %d empty", i)
		}
		if seen[s] {
			return fmt.Errorf("serve: store facet dictionary entry %q duplicated", s)
		}
		seen[s] = true
	}
	offs := st.MetaFacetOffs
	if len(offs) == 0 {
		if len(st.MetaFacetIDs) > 0 || len(st.FacetDict) > 0 {
			return fmt.Errorf("serve: store facet vectors present without row offsets")
		}
		return nil
	}
	if len(offs) != n+1 {
		return fmt.Errorf("serve: store has %d facet offsets for %d metadata rows", len(offs), n)
	}
	if offs[0] != 0 || offs[n] != int64(len(st.MetaFacetIDs)) {
		return fmt.Errorf("serve: store facet offsets [%d,%d] disagree with %d IDs", offs[0], offs[n], len(st.MetaFacetIDs))
	}
	for i := 0; i < n; i++ {
		lo, hi := offs[i], offs[i+1]
		if hi < lo {
			return fmt.Errorf("serve: store facet offsets decrease at row %d", i)
		}
		if hi-lo > maxDocFacets {
			return fmt.Errorf("serve: store metadata row %d has %d facets (max %d)", i, hi-lo, maxDocFacets)
		}
		for j := lo; j < hi; j++ {
			id := st.MetaFacetIDs[j]
			if id < 0 || id >= int64(len(st.FacetDict)) {
				return fmt.Errorf("serve: store metadata row %d references facet %d of %d", i, id, len(st.FacetDict))
			}
			if j > lo && st.FacetDict[id] <= st.FacetDict[st.MetaFacetIDs[j-1]] {
				return fmt.Errorf("serve: store metadata row %d facets not ascending", i)
			}
		}
	}
	return nil
}

// appendMetaSections appends the INSPSTORE4 sections carrying the base
// metadata vectors. A store with no metadata appends nothing, keeping its
// file byte-identical to a pre-metadata build's.
func appendMetaSections(secs []storefile.Section, docs, times, offs, ids []int64, dict []string) []storefile.Section {
	if len(docs) == 0 {
		return secs
	}
	secs = append(secs,
		storefile.Section{Name: secMetaDocs, Data: storefile.AppendInt64s(nil, docs)},
		storefile.Section{Name: secMetaTimes, Data: storefile.AppendInt64s(nil, times)},
	)
	if len(offs) == 0 {
		return secs
	}
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
		storefile.Section{Name: secMetaFacOffs, Data: storefile.AppendInt64s(nil, offs)},
		storefile.Section{Name: secMetaFacIDs, Data: storefile.AppendInt64s(nil, ids)},
		storefile.Section{Name: secFacetBlob, Data: blob},
		storefile.Section{Name: secFacetOffs, Data: storefile.AppendInt64s(nil, facetOffs)},
	)
}

// decodeMetaSections reads the metadata sections back, aliasing the int64
// vectors and dictionary strings into the (mapped) file wherever the host
// allows. pinned is the heap bytes any forced copies cost. Structural
// validation is validateMeta's, run by Store.validate afterwards; only what
// must hold to slice the blob safely is checked here.
func decodeMetaSections(f *storefile.File) (docs, times, offs, ids []int64, dict []string, pinned int64, err error) {
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
	if docs, err = ints(secMetaDocs); err != nil {
		return
	}
	if times, err = ints(secMetaTimes); err != nil {
		return
	}
	if offs, err = ints(secMetaFacOffs); err != nil {
		return
	}
	if ids, err = ints(secMetaFacIDs); err != nil {
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
	dict = make([]string, nDict)
	pinned += int64(16 * nDict)
	for i := 0; i < nDict; i++ {
		lo, hi := facetOffs[i], facetOffs[i+1]
		if lo < 0 || hi < lo || hi > int64(len(blob)) {
			err = fmt.Errorf("serve: load store v4: section %s: entry %d bounds [%d,%d) exceed blob %d", secFacetOffs, i, lo, hi, len(blob))
			return
		}
		dict[i] = storefile.String(blob[lo:hi])
	}
	if facetOffs[nDict] != int64(len(blob)) {
		err = fmt.Errorf("serve: load store v4: section %s: %d trailing bytes", secFacetBlob, int64(len(blob))-facetOffs[nDict])
	}
	return
}

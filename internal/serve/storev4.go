package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sort"
	"unsafe"

	"inspire/internal/core"
	"inspire/internal/postings"
	"inspire/internal/project"
	"inspire/internal/signature"
	"inspire/internal/simtime"
	"inspire/internal/storefile"
	"inspire/internal/tiles"
)

// INSPSTORE4 (internal/storefile) is the zero-copy serving layout: every
// bulk product — posting blobs and their skip directory, the term
// dictionary, signatures, projected points, cluster assignments and the tile
// pyramid — lives as a page-aligned section addressed straight out of the
// mapped file. Loading a v4 store costs one gob decode of a small metadata
// section; everything else is faulted in by the kernel on first touch and
// stays evictable, so cold start is milliseconds, and replicas mapping the
// same file share physical pages.
const (
	secMeta           = "meta"
	secTermBlob       = "termblob"
	secTermOffs       = "termoffs"
	secTermSort       = "termsort"
	secDF             = "df"
	secPostDoc        = "postdoc"
	secPostFreq       = "postfreq"
	secPostTermDoc    = "posttermdoc"
	secPostTermFreq   = "posttermfreq"
	secPostTermBlk    = "posttermblk"
	secPostBlkMax     = "postblkmax"
	secPostBlkDocEnd  = "postblkdocend"
	secPostBlkFreqEnd = "postblkfreqend"
	// Bitmap posting containers (absent on block-only stores; absent
	// sections decode as nil, so pre-bitmap v4 files load unchanged). The
	// word section is raw fixed-width uint64s in a page-aligned section, so
	// the mapped reader aliases it in place and the dense∧dense AND kernel
	// runs straight off the page cache.
	secPostTermBit    = "posttermbit"
	secPostBitBase    = "postbitbase"
	secPostBitWords   = "postbitwords"
	secSigDocs        = "sigdocs"
	secSigOffs        = "sigoffs"
	secSigBlob        = "sigblob"
	secPoints         = "points"
	secAssignDocs     = "assigndocs"
	secAssignClusters = "assignclusters"
	secTiles          = "tiles"
	// Document metadata (see meta.go): raw int64 vectors plus the interned
	// facet dictionary as blob+offsets. All absent on metadata-free stores,
	// so their files stay byte-identical to pre-metadata builds'.
	secMetaDocs    = "metadocs"
	secMetaTimes   = "metatimes"
	secMetaFacOffs = "metafacoffs"
	secMetaFacIDs  = "metafacids"
	secFacetBlob   = "facetblob"
	secFacetOffs   = "facetoffs"
)

// pointRecordSize is the fixed on-disk record of one projected point:
// doc int64, X float64, Y float64, all little-endian.
const pointRecordSize = 24

// hostLittleEndian gates in-place aliasing of numeric sections.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// storeMetaV4 is the gob-encoded metadata section: everything a Store
// carries that is not a bulk vector. The bulk vectors live as raw sections
// so they never pass through gob.
type storeMetaV4 struct {
	Model      *simtime.Model
	P          int
	TotalDocs  int64
	VocabSize  int64
	ShardCount int
	ShardIndex int
	GlobalDocs int64
	Holes      []int64
	Prefix     []int64
	SigM       int
	Proj       *signature.Projection
	Planar     *project.Planar
	TileBox    *tiles.Rect
	K          int
	Themes     []core.Theme
}

// Save writes the store in its persistent format, INSPSTORE4 — the
// page-aligned layout later loads serve straight from an mmap — enabling
// index-once/serve-many across process restarts.
func (st *Store) Save(w io.Writer) error {
	V := st.VocabSize

	var metaBuf bytes.Buffer
	meta := storeMetaV4{
		Model: st.Model, P: st.P,
		TotalDocs: st.TotalDocs, VocabSize: V,
		ShardCount: st.ShardCount, ShardIndex: st.ShardIndex, GlobalDocs: st.GlobalDocs,
		Holes: st.Holes, Prefix: st.Prefix,
		SigM: st.SigM, Proj: st.Proj, Planar: st.Planar, TileBox: st.TileBox,
		K: st.K, Themes: st.Themes,
	}
	if err := gob.NewEncoder(&metaBuf).Encode(&meta); err != nil {
		return fmt.Errorf("serve: save v4 meta: %w", err)
	}

	// Term dictionary: concatenated bytes + offsets, plus the sorted
	// permutation a mapped store binary-searches instead of a heap map.
	termOffs := make([]int64, V+1)
	var blobLen int
	for _, t := range st.TermList {
		blobLen += len(t)
	}
	termBlob := make([]byte, 0, blobLen)
	for i, t := range st.TermList {
		termOffs[i] = int64(len(termBlob))
		termBlob = append(termBlob, t...)
	}
	termOffs[V] = int64(len(termBlob))

	// Signatures: doc IDs, per-doc offsets in float units (equal adjacent
	// offsets mean a null signature), and the flat vector blob.
	sigOffs := make([]int64, len(st.SigDocs)+1)
	var nVecs int
	for i, vec := range st.SigVecs {
		sigOffs[i] = int64(nVecs)
		if vec != nil {
			if len(vec) != st.SigM {
				return fmt.Errorf("serve: save v4: signature %d has %d dims, want %d", i, len(vec), st.SigM)
			}
			nVecs += len(vec)
		}
	}
	sigOffs[len(st.SigDocs)] = int64(nVecs)
	sigBlob := make([]byte, 0, 8*nVecs)
	for _, vec := range st.SigVecs {
		sigBlob = storefile.AppendFloat64s(sigBlob, vec)
	}

	pts := make([]byte, 0, pointRecordSize*len(st.Points))
	for _, p := range st.Points {
		pts = binary.LittleEndian.AppendUint64(pts, uint64(p.Doc))
		pts = binary.LittleEndian.AppendUint64(pts, math.Float64bits(p.X))
		pts = binary.LittleEndian.AppendUint64(pts, math.Float64bits(p.Y))
	}

	secs := []storefile.Section{
		{Name: secMeta, Data: metaBuf.Bytes()},
		{Name: secTermBlob, Data: termBlob},
		{Name: secTermOffs, Data: storefile.AppendInt64s(nil, termOffs)},
		{Name: secTermSort, Data: storefile.AppendInt64s(nil, st.termSorted)},
		{Name: secDF, Data: storefile.AppendInt64s(nil, st.DF)},
		{Name: secPostDoc, Data: st.Posts.DocBlob},
		{Name: secPostFreq, Data: st.Posts.FreqBlob},
		{Name: secPostTermDoc, Data: storefile.AppendInt64s(nil, st.Posts.TermDoc)},
		{Name: secPostTermFreq, Data: storefile.AppendInt64s(nil, st.Posts.TermFreq)},
		{Name: secPostTermBlk, Data: storefile.AppendInt64s(nil, st.Posts.TermBlk)},
		{Name: secPostBlkMax, Data: storefile.AppendInt64s(nil, st.Posts.BlkMax)},
		{Name: secPostBlkDocEnd, Data: storefile.AppendInt64s(nil, st.Posts.BlkDocEnd)},
		{Name: secPostBlkFreqEnd, Data: storefile.AppendInt64s(nil, st.Posts.BlkFreqEnd)},
		{Name: secSigDocs, Data: storefile.AppendInt64s(nil, st.SigDocs)},
		{Name: secSigOffs, Data: storefile.AppendInt64s(nil, sigOffs)},
		{Name: secSigBlob, Data: sigBlob},
		{Name: secPoints, Data: pts},
		{Name: secAssignDocs, Data: storefile.AppendInt64s(nil, st.AssignDocs)},
		{Name: secAssignClusters, Data: storefile.AppendInt64s(nil, st.AssignClusters)},
	}
	// Bitmap containers ride along only when some term uses one, keeping
	// block-only files byte-compatible with pre-bitmap readers.
	if st.Posts.HasBitmaps() {
		secs = append(secs,
			storefile.Section{Name: secPostTermBit, Data: storefile.AppendInt64s(nil, st.Posts.TermBit)},
			storefile.Section{Name: secPostBitBase, Data: storefile.AppendInt64s(nil, st.Posts.BitBase)},
			storefile.Section{Name: secPostBitWords, Data: storefile.AppendUint64s(nil, st.Posts.BitWords)},
		)
	}
	secs = appendMetaSections(secs, st.MetaDocs, st.MetaTimes, st.MetaFacetOffs, st.MetaFacetIDs, st.FacetDict)
	// Embed the base tile pyramid so a mapped load serves spatial queries
	// without a rebuild. A store whose points cannot pyramid (duplicates,
	// non-finite coordinates) persists without the section and builds
	// lazily.
	if pyr, err := st.BaseTilePyramid(Config{}); err == nil {
		secs = append(secs, storefile.Section{Name: secTiles, Data: pyr.Encode()})
	}
	return storefile.Write(w, secs)
}

// decodeStoreV4 builds a serving store over a decoded INSPSTORE4 file. Bulk
// vectors alias the file's sections wherever the host allows (little-endian,
// aligned — always true for a mapped file); anything that must be copied is
// charged to the store's resident accountant as permanently pinned heap.
func decodeStoreV4(f *storefile.File) (*Store, error) {
	res := &storefile.Resident{}
	var pinned int64
	bad := func(name string, format string, args ...any) error {
		return fmt.Errorf("serve: load store v4: section %s: %s", name, fmt.Sprintf(format, args...))
	}
	sec := func(name string) []byte {
		b, _ := f.Section(name)
		return b
	}
	ints := func(name string) ([]int64, error) {
		v, copied, err := storefile.Int64s(sec(name))
		if err != nil {
			return nil, bad(name, "%v", err)
		}
		if copied {
			pinned += int64(8 * len(v))
		}
		return v, nil
	}

	metaSec, ok := f.Section(secMeta)
	if !ok {
		return nil, bad(secMeta, "missing")
	}
	var meta storeMetaV4
	if err := gob.NewDecoder(bytes.NewReader(metaSec)).Decode(&meta); err != nil {
		return nil, bad(secMeta, "%v", err)
	}
	V := meta.VocabSize
	if V < 0 {
		return nil, bad(secMeta, "negative vocabulary size %d", V)
	}

	st := &Store{
		Model: meta.Model, P: meta.P,
		TotalDocs: meta.TotalDocs, VocabSize: V,
		ShardCount: meta.ShardCount, ShardIndex: meta.ShardIndex, GlobalDocs: meta.GlobalDocs,
		Holes: meta.Holes, Prefix: meta.Prefix,
		SigM: meta.SigM, Proj: meta.Proj, Planar: meta.Planar, TileBox: meta.TileBox,
		K: meta.K, Themes: meta.Themes,
	}

	// Term dictionary: strings alias the mapped blob, the sorted
	// permutation replaces the heap map (see lookupTerm).
	termOffs, err := ints(secTermOffs)
	if err != nil {
		return nil, err
	}
	if int64(len(termOffs)) != V+1 {
		return nil, bad(secTermOffs, "%d offsets for %d terms", len(termOffs), V)
	}
	termBlob := sec(secTermBlob)
	st.TermList = make([]string, V)
	pinned += 16 * V // string headers
	for i := int64(0); i < V; i++ {
		lo, hi := termOffs[i], termOffs[i+1]
		if lo < 0 || hi < lo || hi > int64(len(termBlob)) {
			return nil, bad(secTermOffs, "term %d bounds [%d,%d) exceed blob %d", i, lo, hi, len(termBlob))
		}
		st.TermList[i] = storefile.String(termBlob[lo:hi])
	}
	if V > 0 && termOffs[V] != int64(len(termBlob)) {
		return nil, bad(secTermBlob, "%d trailing bytes", int64(len(termBlob))-termOffs[V])
	}
	termSort, err := ints(secTermSort)
	if err != nil {
		return nil, err
	}
	if int64(len(termSort)) != V {
		return nil, bad(secTermSort, "%d entries for %d terms", len(termSort), V)
	}
	for i, id := range termSort {
		if id < 0 || id >= V {
			return nil, bad(secTermSort, "entry %d out of range: %d", i, id)
		}
		if i > 0 && st.TermList[termSort[i-1]] >= st.TermList[id] {
			return nil, bad(secTermSort, "not a strictly sorted permutation at %d", i)
		}
	}
	st.termSorted = termSort

	if st.DF, err = ints(secDF); err != nil {
		return nil, err
	}

	// Postings: blobs and directory vectors straight off the sections.
	// Posts.Count shares the DF slice — the validate invariant by
	// construction.
	posts := &postings.Store{NumTerms: V, Count: st.DF}
	posts.DocBlob = sec(secPostDoc)
	posts.FreqBlob = sec(secPostFreq)
	if posts.TermDoc, err = ints(secPostTermDoc); err != nil {
		return nil, err
	}
	if posts.TermFreq, err = ints(secPostTermFreq); err != nil {
		return nil, err
	}
	if posts.TermBlk, err = ints(secPostTermBlk); err != nil {
		return nil, err
	}
	if posts.BlkMax, err = ints(secPostBlkMax); err != nil {
		return nil, err
	}
	if posts.BlkDocEnd, err = ints(secPostBlkDocEnd); err != nil {
		return nil, err
	}
	if posts.BlkFreqEnd, err = ints(secPostBlkFreqEnd); err != nil {
		return nil, err
	}
	// Bitmap containers: absent sections decode as nil, which is exactly the
	// block-only representation. On a mapped little-endian host the word
	// array below is an alias of the file — the dense∧dense kernel then runs
	// in place over the page cache.
	if posts.TermBit, err = ints(secPostTermBit); err != nil {
		return nil, err
	}
	if posts.BitBase, err = ints(secPostBitBase); err != nil {
		return nil, err
	}
	bitWords, bitCopied, err := storefile.Uint64s(sec(secPostBitWords))
	if err != nil {
		return nil, bad(secPostBitWords, "%v", err)
	}
	if bitCopied {
		pinned += int64(8 * len(bitWords))
	}
	posts.BitWords = bitWords
	st.Posts = posts

	// Signatures: vectors are subslices of one flat float section.
	if st.SigDocs, err = ints(secSigDocs); err != nil {
		return nil, err
	}
	sigOffs, err := ints(secSigOffs)
	if err != nil {
		return nil, err
	}
	sigFloats, copied, err := storefile.Float64s(sec(secSigBlob))
	if err != nil {
		return nil, bad(secSigBlob, "%v", err)
	}
	if copied {
		pinned += int64(8 * len(sigFloats))
	}
	N := len(st.SigDocs)
	if N > 0 || len(sigOffs) > 1 {
		if len(sigOffs) != N+1 {
			return nil, bad(secSigOffs, "%d offsets for %d signatures", len(sigOffs), N)
		}
	}
	if N > 0 {
		if sigOffs[0] != 0 || sigOffs[N] != int64(len(sigFloats)) {
			return nil, bad(secSigOffs, "offsets [%d,%d] disagree with blob %d", sigOffs[0], sigOffs[N], len(sigFloats))
		}
		st.SigVecs = make([][]float64, N)
		pinned += int64(24 * N) // slice headers
		for i := 0; i < N; i++ {
			lo, hi := sigOffs[i], sigOffs[i+1]
			switch {
			case hi == lo:
				// null signature
			case hi-lo == int64(st.SigM) && hi <= int64(len(sigFloats)):
				st.SigVecs[i] = sigFloats[lo:hi:hi]
			default:
				return nil, bad(secSigOffs, "signature %d spans [%d,%d) for dimensionality %d", i, lo, hi, st.SigM)
			}
		}
	} else if len(sigFloats) > 0 {
		return nil, bad(secSigBlob, "%d floats with no signatures", len(sigFloats))
	}

	// Projected points: fixed 24-byte records, aliased in place as
	// project.Point when the host layout matches (it does on every
	// little-endian 64-bit platform).
	ptsSec := sec(secPoints)
	if len(ptsSec)%pointRecordSize != 0 {
		return nil, bad(secPoints, "length %d not a multiple of %d", len(ptsSec), pointRecordSize)
	}
	if n := len(ptsSec) / pointRecordSize; n > 0 {
		if hostLittleEndian && unsafe.Sizeof(project.Point{}) == pointRecordSize &&
			uintptr(unsafe.Pointer(&ptsSec[0]))%8 == 0 {
			st.Points = unsafe.Slice((*project.Point)(unsafe.Pointer(&ptsSec[0])), n)
		} else {
			st.Points = make([]project.Point, n)
			pinned += int64(pointRecordSize * n)
			for i := range st.Points {
				rec := ptsSec[i*pointRecordSize:]
				st.Points[i] = project.Point{
					Doc: int64(binary.LittleEndian.Uint64(rec)),
					X:   math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
					Y:   math.Float64frombits(binary.LittleEndian.Uint64(rec[16:])),
				}
			}
		}
	}

	if st.AssignDocs, err = ints(secAssignDocs); err != nil {
		return nil, err
	}
	if st.AssignClusters, err = ints(secAssignClusters); err != nil {
		return nil, err
	}

	// Document metadata: int64 vectors and dictionary strings aliased off the
	// mapped sections; absent on metadata-free files.
	var metaPinned int64
	if st.MetaDocs, st.MetaTimes, st.MetaFacetOffs, st.MetaFacetIDs, st.FacetDict, metaPinned, err = decodeMetaSections(f); err != nil {
		return nil, err
	}
	pinned += metaPinned

	if err := st.validate(); err != nil {
		return nil, err
	}
	if st.TileBox == nil && len(st.Points) > 0 {
		st.TileBox = pointBounds(st.Points)
	}

	// The embedded tile pyramid decodes lazily on the first spatial query
	// (see sidecarLocked); keeping it as raw mapped bytes costs nothing at
	// load.
	st.live.tileRaw = sec(secTiles)

	if f.Mapped() {
		res.AddMapped(f.Size())
	} else {
		// Heap-loaded v4 (-no-mmap): the whole buffer is resident.
		res.Pin(f.Size())
	}
	res.Pin(pinned)
	st.backing = f
	st.res = res
	return st, nil
}

// sortTerms returns the permutation of terms in ascending order: the index
// lookupTerm binary-searches, built once per indexed store.
func sortTerms(terms []string) []int64 {
	ids := make([]int64, len(terms))
	for i := range ids {
		ids[i] = int64(i)
	}
	sort.Slice(ids, func(a, b int) bool { return terms[ids[a]] < terms[ids[b]] })
	return ids
}

// lookupTerm resolves an already-normalized term to its dense ID by binary
// search over the sorted permutation — aliased off the mapped section on a
// loaded store, so there is no per-term heap at all.
func (st *Store) lookupTerm(norm string) (int64, bool) {
	ts := st.termSorted
	i := sort.Search(len(ts), func(i int) bool { return st.TermList[ts[i]] >= norm })
	if i < len(ts) && st.TermList[ts[i]] == norm {
		return ts[i], true
	}
	return 0, false
}

// Mapped reports whether the store serves from a live file mapping rather
// than heap-resident products.
func (st *Store) Mapped() bool {
	return st.backing != nil && st.backing.Mapped()
}

// ResidentStats snapshots the store's resident-set accountant: bytes pinned
// on heap against the budget, bytes left evictable in the mapping, and how
// many cache pins the budget refused. ok is false for freshly indexed
// stores, which have no accountant.
func (st *Store) ResidentStats() (stats storefile.ResidentStats, ok bool) {
	if st.res == nil {
		return storefile.ResidentStats{}, false
	}
	return st.res.Stats(), true
}

// DescribeFormat names the persisted layout this store was loaded from (or
// would be saved as), for operator-facing logs: the format plus how its
// products are resident.
func (st *Store) DescribeFormat() string {
	if st.Mapped() {
		return "INSPSTORE4, memory-mapped"
	}
	return "INSPSTORE4, heap-resident"
}

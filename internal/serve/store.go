// Package serve is the concurrent query-serving layer over a finished
// pipeline run — the "heavy traffic" axis the paper leaves open after naming
// interactive analysis of massive datasets as its next frontier. A Store is
// a front-end snapshot of a run's distributed products (vocabulary, inverted
// index, knowledge signatures, clusters and ThemeView projection); a Server
// answers many concurrent analyst Sessions against one Store with an LRU
// posting-list cache, a top-K similarity cache, and request coalescing that
// folds concurrent fetches of one term into one decode.
//
// Serving performance is measured on the host, not modeled: the repository
// benchmark (go run ./benchmark) drives the daemon end to end, and the
// counters in Stats say where an interaction's work went.
package serve

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"

	"inspire/internal/cluster"
	"inspire/internal/core"
	"inspire/internal/ga"
	"inspire/internal/postings"
	"inspire/internal/project"
	"inspire/internal/scan"
	"inspire/internal/signature"
	"inspire/internal/simtime"
	"inspire/internal/storefile"
	"inspire/internal/tiles"
)

// Store is the serving form of one finished pipeline run: an immutable base
// snapshot plus a live side — sealed delta segments, tombstones and an
// in-memory ingest delta — published to readers as atomically swapped epoch
// views (see view.go and ingest.go). The exported fields are the base
// snapshot; they change only under explicit whole-layout operations
// (SetBaseMeta before serving starts, Rebase), each of which publishes a
// fresh view rather than mutating slices a concurrent reader may hold. Every
// method is safe for concurrent use.
//
// Model, P and Prefix record the producing run (its machine model, world
// size and dense-term ownership bounds); they persist as provenance and take
// no part in serving.
type Store struct {
	// Model is the machine model of the producing run.
	Model *simtime.Model
	// P is the world size of the producing run.
	P int

	TotalDocs int64
	VocabSize int64

	// ShardCount/ShardIndex/GlobalDocs describe a shard store's slice of the
	// document space: base document d lives here iff d < GlobalDocs and
	// d mod ShardCount == ShardIndex. ShardCount 0 is a monolithic store
	// with the dense base [0, TotalDocs). The live layer needs this to tell
	// "base document" from "unknown" on a shard.
	ShardCount int
	ShardIndex int
	GlobalDocs int64

	// Holes lists, strictly ascending, the base-range document IDs whose
	// documents were deleted and then rebased away: the dense range keeps
	// covering them (TotalDocs — GlobalDocs on a shard — stays the ID
	// high-water mark, because IDs are never reused), but they must read as
	// absent. Nil for stores with no rebased deletions.
	Holes []int64

	// TermList maps a dense term ID to its normalized term; lookupTerm
	// inverts it by binary search over termSorted.
	TermList []string
	// Prefix holds the dense-ID ownership bounds of the producing run
	// (len P+1); term t is owned by the rank r with Prefix[r] <= t < Prefix[r+1].
	Prefix []int64

	// DF[t] is term t's document frequency.
	DF []int64

	// Posts holds the postings: block-compressed delta+varint doc/freq lists
	// with a skip directory, dense terms as bitmaps. Never nil on a store
	// that validates.
	Posts *postings.Store

	// Knowledge signatures, sorted by document ID (nil = null signature).
	// Read them through Signatures(), which returns a consistent indexed
	// snapshot even across ApplySignatures.
	SigM    int
	SigDocs []int64
	SigVecs [][]float64

	// Proj is the frozen signature-projection model of the producing run
	// (the association-matrix rows of the major terms). Live ingestion uses
	// it to give added documents the exact signature the batch pipeline
	// would have computed; nil on stores persisted before it existed, in
	// which case ingested documents get null signatures.
	Proj *signature.Projection

	// Planar is the frozen 2-D projection model (centroid mean + leading
	// principal components): live ingestion uses it to place added
	// documents on the ThemeView plane exactly as the batch run would
	// have. Nil on stores persisted before it existed, in which case
	// ingested documents stay off the Galaxy until an offline re-run.
	Planar *project.Planar

	// TileBox is the frozen world bounds of the Galaxy tile pyramid, fixed
	// at snapshot time from the projected points and replicated to every
	// shard so tile (z, x, y) addresses the same world rectangle on every
	// server of a set. Documents projected outside it (late ingests) clamp
	// into the edge tiles. Nil on legacy stores; derived from the points
	// at load.
	TileBox *tiles.Rect

	// ThemeView products.
	Points         []project.Point
	AssignDocs     []int64
	AssignClusters []int64
	K              int
	Themes         []core.Theme

	// Document metadata (see meta.go): sparse sorted parallel vectors over
	// base document IDs. MetaDocs lists, strictly ascending, the base
	// documents carrying any metadata; MetaTimes their ingest timestamps
	// (0 = none). MetaFacetOffs/MetaFacetIDs are the row-offset form of the
	// per-document facet sets, as IDs into FacetDict, each row ascending by
	// dictionary string; MetaFacetOffs is nil when no document has facets.
	MetaDocs      []int64
	MetaTimes     []int64
	MetaFacetOffs []int64
	MetaFacetIDs  []int64
	FacetDict     []string

	sigMu  sync.Mutex
	sigSet *signature.Set

	// backing is the decoded INSPSTORE4 file this store serves from, nil
	// for freshly indexed stores. Base vectors alias its sections; it is
	// never unmapped while the store lives.
	backing *storefile.File
	// res is the resident-set accountant of a v4 store: decoded posting
	// lists pin heap bytes against its budget, everything else stays
	// evictable in the mapping. Nil for freshly indexed stores.
	res *storefile.Resident
	// termSorted is the permutation of TermList in ascending term order,
	// built once when a store is indexed and persisted as the termsort
	// section (a loaded store aliases it). See lookupTerm.
	termSorted []int64

	// live is the mutable serving state: the current epoch view, the ingest
	// delta and the compaction bookkeeping. Never persisted; see view.go.
	live liveState
}

// snapshotStreams is the number of concurrent one-sided streams Snapshot uses
// to drain the posting arrays (cluster.Comm.Fork + ga.Array.On).
const snapshotStreams = 4

// Snapshot collectively exports a finished run into a serving store. Every
// rank must call it with its own result; rank 0 returns the store, all other
// ranks return (nil, nil). The export is charged to the virtual clocks like
// any other post-pipeline step: rank 0 drains the distributed index with
// overlapped one-sided gets and replicates the vocabulary tables.
func Snapshot(c *cluster.Comm, res *core.Result) (*Store, error) {
	if res == nil || res.Index == nil || res.Clusters == nil {
		return nil, fmt.Errorf("serve: snapshot needs a finished pipeline result")
	}

	// Signatures may already be gathered (Config.CollectSignatures); if not,
	// gather them now. Only rank 0 holds them, so agree collectively.
	have := 0.0
	if res.SigDocIDs != nil {
		have = 1
	}
	if c.AllreduceSum(have) == 0 {
		core.GatherSignatures(c, res)
	}

	// Gather (doc, cluster) assignment pairs at rank 0.
	local := res.Clusters.Assign
	docs := make([]int64, len(local))
	asg := make([]int64, len(local))
	for i, a := range local {
		docs[i] = res.Forward.GlobalDocIDs[i]
		asg[i] = int64(a)
	}
	docParts := c.GatherInt64s(0, docs)
	asgParts := c.GatherInt64s(0, asg)

	var st *Store
	if c.Rank() == 0 {
		st = buildStore(c, res, docParts, asgParts)
	}
	c.Barrier()
	return st, nil
}

// buildStore runs on rank 0 only: it drains the distributed products into
// front-end memory.
func buildStore(c *cluster.Comm, res *core.Result, docParts, asgParts [][]int64) *Store {
	m := c.Model()
	V := res.VocabSize
	st := &Store{
		Model:     m,
		P:         c.Size(),
		TotalDocs: res.TotalDocs,
		VocabSize: V,
		SigM:      res.TopM,
		SigDocs:   res.SigDocIDs,
		SigVecs:   res.SigVecs,
		Points:    res.Coords,
		K:         res.Clusters.K,
		Themes:    res.Themes,
		Proj:      signature.NewProjection(res.AM),
		Planar:    project.NewPlanar(res.Projection),
		TileBox:   pointBounds(res.Coords),
	}

	// Ownership bounds and the replicated vocabulary.
	st.Prefix = make([]int64, c.Size()+1)
	for r := 0; r < c.Size(); r++ {
		lo, hi := res.Vocab.DenseRange(r)
		st.Prefix[r] = lo
		st.Prefix[r+1] = hi
	}
	st.TermList = make([]string, V)
	var remoteBytes float64
	for id := int64(0); id < V; id++ {
		t := res.Vocab.Term(id)
		st.TermList[id] = t
		if st.Owner(id) != c.Rank() {
			remoteBytes += float64(len(t) + 8)
		}
	}
	c.Clock().Advance(m.OneSidedCost(remoteBytes))
	st.termSorted = sortTerms(st.TermList)

	// Term statistics and posting offsets.
	st.DF = make([]int64, V)
	off := make([]int64, V)
	if V > 0 {
		res.Index.Counts.Get(0, st.DF)
		res.Index.Off.Get(0, off)
	}
	total := res.Index.PostDoc.N()
	postDoc := make([]int64, total)
	postFreq := make([]int64, total)

	// Drain the posting arrays with overlapped one-sided streams: each fork
	// owns a private clock, so the cost of the concurrent gets folds back in
	// as their maximum, not their sum.
	if total > 0 {
		streams := snapshotStreams
		if total < int64(streams) {
			streams = 1
		}
		chunk := (total + int64(streams) - 1) / int64(streams)
		forks := make([]*cluster.Comm, streams)
		var wg sync.WaitGroup
		for i := range forks {
			forks[i] = c.Fork()
			lo := int64(i) * chunk
			hi := lo + chunk
			if hi > total {
				hi = total
			}
			if lo >= hi {
				continue
			}
			pd := res.Index.PostDoc.On(forks[i])
			pf := res.Index.PostFreq.On(forks[i])
			wg.Add(1)
			go func(lo, hi int64, pd, pf *ga.Array[int64]) {
				defer wg.Done()
				pd.Get(lo, postDoc[lo:hi])
				pf.Get(lo, postFreq[lo:hi])
			}(lo, hi, pd, pf)
		}
		wg.Wait()
		c.Join(forks...)
	}

	// Flatten the gathered cluster assignments.
	for r := range docParts {
		st.AssignDocs = append(st.AssignDocs, docParts[r]...)
		st.AssignClusters = append(st.AssignClusters, asgParts[r]...)
	}

	// Encode the drained arrays into the serving format. One front-end pass:
	// charged as a local re-encode.
	w := postings.NewWriter(total)
	for t, n := range st.DF {
		lo := off[t]
		if err := w.Append(postDoc[lo:lo+n], postFreq[lo:lo+n]); err != nil {
			panic(fmt.Sprintf("serve: snapshot compression: %v", err))
		}
	}
	st.Posts = w.Finish()
	c.Clock().Advance(m.LocalCopyCost(16*float64(total)) + m.FlopCost(4*float64(total)))
	return st
}

// TermID resolves a query term (normalized exactly like the tokenizer, via
// the shared scan.NormalizeTerm fold) to its dense ID.
func (st *Store) TermID(term string) (int64, bool) {
	return st.lookupTerm(scan.NormalizeTerm(term))
}

// Owner returns the producing-run rank that owned dense term ID t.
func (st *Store) Owner(t int64) int {
	return sort.Search(st.P, func(r int) bool { return st.Prefix[r+1] > t })
}

// Postings returns term t's posting list (sorted by document ID), decoded
// into fresh slices.
func (st *Store) Postings(t int64) (docs, freqs []int64) {
	return st.Posts.Postings(t)
}

// Fork returns a copy of the store with fresh live state: it shares every
// immutable base product with the receiver but ingests, tombstones and
// compacts independently. Benchmarks and tests fork a cached snapshot so
// ingestion never leaks into other users of the original.
func (st *Store) Fork() *Store {
	return &Store{
		Model: st.Model, P: st.P,
		TotalDocs: st.TotalDocs, VocabSize: st.VocabSize,
		ShardCount: st.ShardCount, ShardIndex: st.ShardIndex, GlobalDocs: st.GlobalDocs,
		Holes:    st.Holes,
		TermList: st.TermList, Prefix: st.Prefix,
		DF: st.DF, Posts: st.Posts,
		SigM: st.SigM, SigDocs: st.SigDocs, SigVecs: st.SigVecs, Proj: st.Proj,
		Planar: st.Planar, TileBox: st.TileBox,
		Points: st.Points, AssignDocs: st.AssignDocs, AssignClusters: st.AssignClusters,
		K: st.K, Themes: st.Themes,
		MetaDocs: st.MetaDocs, MetaTimes: st.MetaTimes,
		MetaFacetOffs: st.MetaFacetOffs, MetaFacetIDs: st.MetaFacetIDs, FacetDict: st.FacetDict,
		backing: st.backing, res: st.res, termSorted: st.termSorted,
	}
}

// EmptyCopy returns a store with the receiver's frozen model — vocabulary,
// ownership bounds, machine model, themes and signature projection — but no
// documents at all: no postings, signatures, points or assignments. It is
// the ingest-from-scratch starting point (and what the offline-vs-ingested
// equivalence tests build on): every document is then added through the live
// path against the same vocabulary and projection the batch run produced.
func (st *Store) EmptyCopy() *Store {
	w := postings.NewWriter(0)
	for t := int64(0); t < st.VocabSize; t++ {
		if err := w.Append(nil, nil); err != nil {
			panic(err) // empty appends cannot fail
		}
	}
	posts := w.Finish()
	return &Store{
		Model: st.Model, P: st.P,
		TotalDocs: 0, VocabSize: st.VocabSize,
		TermList: st.TermList, Prefix: st.Prefix,
		DF: posts.Count, Posts: posts,
		SigM: st.SigM, Proj: st.Proj,
		Planar: st.Planar, TileBox: st.TileBox,
		K: st.K, Themes: st.Themes,
		backing: st.backing, res: st.res, termSorted: st.termSorted,
	}
}

// Signatures returns the store's base signature set as one consistent,
// indexed snapshot (the slices and index always belong together, even if
// ApplySignatures swaps the set concurrently).
func (st *Store) Signatures() *signature.Set {
	st.sigMu.Lock()
	defer st.sigMu.Unlock()
	if st.sigSet == nil {
		set, err := signature.NewSet(st.SigM, st.SigDocs, st.SigVecs)
		if err != nil {
			// validate() rejects mismatched lengths at load; a hand-built
			// store that skipped validation fails loudly here.
			panic(err)
		}
		st.sigSet = set
	}
	return st.sigSet
}

// setSigSet installs a signature set as the store's base set, keeping the
// persisted fields in step; callers hold live.mu (or own the store).
func (st *Store) setSigSet(set *signature.Set) {
	st.sigMu.Lock()
	st.SigM = set.M
	st.SigDocs = set.Docs
	st.SigVecs = set.Vecs
	st.sigSet = set
	st.sigMu.Unlock()
}

// SignatureOf returns the knowledge signature of a document in the current
// view — base set or ingested segments: (nil, true) for a present null
// signature, (nil, false) for an unknown or deleted document.
func (st *Store) SignatureOf(doc int64) ([]float64, bool) {
	return st.viewNow().sigVec(doc)
}

// ApplySignatures replaces the store's base signatures with a persisted set —
// the serving load path for signatures regenerated offline (e.g. by an
// adaptive-dimensionality rerun) without re-indexing. The swap rides the
// epoch mechanism: a new view is published with the new set, so every server
// over this store — including ones already running — answers its next
// Similar from the new signatures, and the epoch-keyed similarity caches
// invalidate themselves. Safe to call concurrently with queries.
func (st *Store) ApplySignatures(set *signature.Set) error {
	if set == nil || set.Len() == 0 {
		return fmt.Errorf("serve: empty signature set")
	}
	st.live.mu.Lock()
	defer st.live.mu.Unlock()
	if set.M != st.SigM {
		// The signature space is changing dimensionality. Live segments (and
		// buffered adds) carry vectors of the old dimensionality, and the
		// frozen ingest projection maps into the old space — mixing them
		// would score mismatched vectors.
		if st.hasLiveLocked() {
			return fmt.Errorf("serve: signature set has dimensionality %d but live segments carry %d; flush and Rebase first",
				set.M, st.SigM)
		}
		if st.Proj != nil && st.Proj.M != set.M {
			return fmt.Errorf("serve: signature set dimensionality %d disagrees with the store's ingest projection (%d); re-snapshot to change the signature space",
				set.M, st.Proj.M)
		}
	}
	st.setSigSet(set)
	if v := st.live.cur.Load(); v != nil {
		st.publishLocked(&view{gen: v.gen, base: v.base, segs: v.segs, tombs: v.tombs, sigs: set, pts: v.pts})
	}
	return nil
}

// TopTerms returns up to n terms ordered by descending document frequency
// (ties alphabetically) — the natural query vocabulary for workload replay.
func (st *Store) TopTerms(n int) []string { return topTerms(st.DF, st.TermList, n) }

// topTerms ranks a DF vector; the Router reuses it over its global
// (shard-summed) document frequencies.
func topTerms(df []int64, termList []string, n int) []string {
	ids := make([]int64, 0, len(df))
	for t, d := range df {
		if d > 0 {
			ids = append(ids, int64(t))
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		if df[ids[a]] != df[ids[b]] {
			return df[ids[a]] > df[ids[b]]
		}
		return termList[ids[a]] < termList[ids[b]]
	})
	if len(ids) > n {
		ids = ids[:n]
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = termList[id]
	}
	return out
}

// SampleDocs returns up to n document IDs with non-null signatures, in
// ascending ID order — deterministic similarity-search targets.
func (st *Store) SampleDocs(n int) []int64 {
	set := st.Signatures()
	out := make([]int64, 0, n)
	for i, d := range set.Docs {
		if set.Vecs[i] == nil {
			continue
		}
		out = append(out, d)
		if len(out) == n {
			break
		}
	}
	return out
}

// validate checks the structural invariants a loaded store must satisfy.
func (st *Store) validate() error {
	V := st.VocabSize
	switch {
	case st.Model == nil:
		return fmt.Errorf("serve: store has no machine model")
	case st.P <= 0 || int64(len(st.Prefix)) != int64(st.P)+1:
		return fmt.Errorf("serve: store ownership bounds malformed (P=%d, len=%d)", st.P, len(st.Prefix))
	case int64(len(st.DF)) != V || int64(len(st.TermList)) != V:
		return fmt.Errorf("serve: store term vectors disagree with vocabulary size %d", V)
	case len(st.SigDocs) != len(st.SigVecs):
		return fmt.Errorf("serve: store has %d signature ids for %d vectors", len(st.SigDocs), len(st.SigVecs))
	case len(st.AssignDocs) != len(st.AssignClusters):
		return fmt.Errorf("serve: store assignment vectors disagree")
	case st.Posts == nil:
		return fmt.Errorf("serve: store has no postings")
	}
	if err := st.Model.Validate(); err != nil {
		return err
	}
	for i, d := range st.Holes {
		if d < 0 || (i > 0 && d <= st.Holes[i-1]) {
			return fmt.Errorf("serve: store holes not strictly ascending at %d", i)
		}
	}
	if st.Proj != nil {
		if err := st.Proj.Validate(); err != nil {
			return err
		}
	}
	if st.Planar != nil {
		if err := st.Planar.Validate(); err != nil {
			return err
		}
	}
	if st.TileBox != nil {
		if err := st.TileBox.Validate(); err != nil {
			return err
		}
	}
	if err := st.validateMeta(); err != nil {
		return err
	}
	if err := st.Posts.Validate(); err != nil {
		return err
	}
	if st.Posts.NumTerms != V {
		return fmt.Errorf("serve: compressed postings cover %d of %d terms", st.Posts.NumTerms, V)
	}
	for t := int64(0); t < V; t++ {
		if st.Posts.Count[t] != st.DF[t] {
			return fmt.Errorf("serve: term %d has %d compressed postings for DF %d", t, st.Posts.Count[t], st.DF[t])
		}
	}
	return nil
}

// checkStoreMagic is the one check at the door of every loader: anything
// that does not start an INSPSTORE4 file — short and empty input included —
// is refused before a decoder runs, and the gob formats this build no longer
// reads (flat, block, hole-carrying) are named with their remedy.
func checkStoreMagic(head []byte) error {
	if storefile.Sniff(head) {
		return nil
	}
	for _, retired := range []string{"INSPSTORE1", "INSPSTORE2", "INSPSTORE3"} {
		if bytes.HasPrefix(head, []byte(retired+"\n")) {
			return fmt.Errorf("retired gob format %s (last read by build 715247c); re-index: inspired -in <corpus> -save-store <file>", retired)
		}
	}
	return fmt.Errorf("not an INSPSTORE4 store")
}

// SaveFile persists the store to a file. The write is atomic (temp + fsync
// + rename): a crash mid-save leaves the previous file intact.
func (st *Store) SaveFile(path string) error {
	return storefile.WriteFileAtomic(path, st.Save)
}

// LoadStore reads a store written by Save and validates its invariants. The
// body decodes over a heap copy of the stream (the file loaders map
// instead).
func LoadStore(r io.Reader) (*Store, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("serve: load store: %w", err)
	}
	if err := checkStoreMagic(data); err != nil {
		return nil, fmt.Errorf("serve: load store: %w", err)
	}
	f, err := storefile.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("serve: load store: %w", err)
	}
	return decodeStoreV4(f)
}

// LoadStoreFile reads a persisted store by path and maps it: the store
// serves straight from the file's pages with no load-time copy (pass through
// LoadStoreFileHeap to opt out). The tile pyramid embedded in the file
// decodes lazily on the first spatial query.
func LoadStoreFile(path string) (*Store, error) {
	return loadStoreFile(path, false)
}

// LoadStoreFileHeap reads a persisted store by path entirely into heap —
// the -no-mmap escape hatch. Sections then alias one heap buffer instead of
// a mapping; every query answers identically to the mapped load.
func LoadStoreFileHeap(path string) (*Store, error) {
	return loadStoreFile(path, true)
}

func loadStoreFile(path string, noMmap bool) (*Store, error) {
	head, err := readHead(path, len(storefile.Magic))
	if err != nil {
		return nil, err
	}
	if err := checkStoreMagic(head); err != nil {
		return nil, fmt.Errorf("serve: load store %s: %w", path, err)
	}
	open := storefile.Open
	if noMmap {
		open = storefile.ReadFile
	}
	sf, err := open(path)
	if err != nil {
		return nil, err
	}
	st, err := decodeStoreV4(sf)
	if err != nil {
		sf.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}

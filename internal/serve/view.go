package serve

import (
	"slices"
	"sync"
	"sync/atomic"

	"inspire/internal/project"
	"inspire/internal/segment"
	"inspire/internal/tiles"
)

// view is one immutable serving epoch of a live store: the base snapshot's
// index block and products, the sealed delta segments ingested since and the
// tombstone set.
// Sessions resolve the current view once per interaction and work against it
// unperturbed while ingestion, compaction or a rebase publishes the next
// epoch — readers never block and never see a half-applied change.
type view struct {
	// epoch increments on every published change (seal, delete, compaction,
	// rebase); it keys the similarity caches so stale merged answers age out
	// naturally.
	epoch uint64
	// gen increments only when the base layout itself is rewritten (Rebase,
	// SetBaseMeta); it keys the posting LRU, so the decoded base lists
	// survive every epoch swap that leaves the base alone.
	gen  uint64
	base *baseView
	// blocks are the view's immutable index blocks, disjoint in documents:
	// blocks[0] is the base snapshot's (see Store.baseBlock), the rest are the
	// sealed delta segments in seal order. Every document lives in exactly
	// one.
	blocks []*segment.Segment
	// tombs marks deleted documents. The map is copy-on-write: published
	// views never mutate it.
	tombs map[int64]bool
	// pts are the ThemeView points of the ingested (sealed) documents,
	// computed from their signatures with the store's frozen Planar model
	// at seal time; nil when the store has no Planar. Like blocks the slice
	// is copy-on-write: seals append to a fresh copy, compaction filters
	// out points whose documents (and tombstones) it dropped, and Rebase
	// folds them into the base points.
	pts []project.Point

	// Incremental-similarity lineage: what changed from the parent epoch.
	// A cached top-K at an ancestor epoch can be patched forward across
	// seal deltas (scan only the appended segments) and compactions
	// (identity on visible documents) instead of rescanning every
	// signature; tombstone deltas patch forward unless they hit a cached
	// result. Rebases and layout resets cut the chain
	// (parent nil), as does depth reaching maxSimChain, which also bounds
	// how many retired views a live chain keeps reachable.
	parent  *view
	depth   int
	kind    viewKind
	newSegs []*segment.Segment // kind == viewSeal: the appended segments
	newPts  []project.Point    // kind == viewSeal: the appended points
	tomb    int64              // kind == viewTomb: the deleted document
}

// viewKind classifies the change a view introduced over its parent.
type viewKind uint8

const (
	viewCut     viewKind = iota // no usable lineage (initial, rebase, reset)
	viewSeal                    // segments appended
	viewTomb                    // one document tombstoned
	viewCompact                 // segments merged; visible answers unchanged
)

// maxSimChain bounds the lineage walked (and retained) for incremental
// similarity refresh.
const maxSimChain = 32

// baseView freezes what only the base snapshot has: its postings,
// signatures and metadata are blocks[0] of the view, everything else it
// serves lives here.
// Rebase builds a fresh baseView rather than mutating slices a concurrent
// reader may hold.
type baseView struct {
	// holes are IDs inside the base range whose documents were deleted and
	// rebased away (Store.Holes).
	holes map[int64]bool

	points         []project.Point
	assignDocs     []int64
	assignClusters []int64
	// themes is the cluster → ascending docs index ThemeDocs walks, derived
	// from the two vectors above by the first theme read of this base
	// (clusterDocs): heap-resident, never persisted, reborn with every base.
	themesOnce sync.Once
	themes     map[int64][]int64
}

// clusterDocs returns the base documents assigned to cluster, ascending
// (shared; do not mutate).
func (b *baseView) clusterDocs(cluster int64) []int64 {
	b.themesOnce.Do(func() {
		b.themes = make(map[int64][]int64)
		for i, c := range b.assignClusters {
			b.themes[c] = append(b.themes[c], b.assignDocs[i])
		}
		for _, docs := range b.themes {
			slices.Sort(docs)
		}
	})
	return b.themes[cluster]
}

// segs returns the sealed delta segments: every block but the base's.
func (v *view) segs() []*segment.Segment { return v.blocks[1:] }

// df returns the live document frequency of term t in the view: the sum of
// every block's DF summary. Tombstoned documents are still counted until
// compaction (or Rebase) drops them — the standard LSM overcount, documented
// on Session.DF.
func (v *view) df(t int64) int64 {
	var n int64
	for _, b := range v.blocks {
		n += b.Posts.Count[t]
	}
	return n
}

// liveDocs returns the number of visible documents: every block's documents
// − tombstones. Documents still buffered in the mutable delta are not
// visible.
func (v *view) liveDocs() int64 {
	n := -int64(len(v.tombs))
	for _, b := range v.blocks {
		n += b.NumDocs()
	}
	return n
}

// blockOf returns the index of the block holding doc, -1 when none does
// (tombstones aside).
func (v *view) blockOf(doc int64) int {
	for i, b := range v.blocks {
		if b.Contains(doc) {
			return i
		}
	}
	return -1
}

// contains reports whether doc exists in the view (tombstoned documents do
// not).
func (v *view) contains(doc int64) bool {
	return !v.tombs[doc] && v.blockOf(doc) >= 0
}

// sigVec resolves doc's knowledge signature in the view. (nil, true) is a
// present null signature; tombstoned and unknown documents report (nil,
// false).
func (v *view) sigVec(doc int64) ([]float64, bool) {
	if v.tombs[doc] {
		return nil, false
	}
	for _, b := range v.blocks {
		if vec, ok := b.SigVec(doc); ok {
			return vec, true
		}
	}
	return nil, false
}

// liveState is the mutable side of a live store: the current published view,
// the in-memory delta, and the ingest/compaction bookkeeping. It lives on the
// Store (unexported, never persisted) so every Server over one store shares
// one epoch stream.
type liveState struct {
	cur atomic.Pointer[view]

	// mu serializes publishers: ingest, seal, delete, compaction publish
	// and rebase. Readers only load cur.
	mu      sync.Mutex
	delta   *segment.Delta
	nextDoc int64
	// idFloor is the retirement floor: every ID below it is in use or
	// retired with possibly no surviving trace (a rebased hole, a gap under
	// an installed segment), so adds reject it outright. Unlike the rolling
	// nextDoc it does NOT advance on ordinary appends — routed adds from
	// concurrent sessions may land on a shard out of ID order, and a
	// later-assigned ID must not retire an earlier one still in flight. It
	// rises only when a view is first built (the base's high water), when
	// live state is installed or a mark carried (Replicate) and on rebase.
	idFloor int64
	// retired pins the exact IDs above the floor whose tombstones a
	// compaction dropped together with their data — nothing else records
	// that they were ever used. A set, not a watermark, so in-flight lower
	// IDs stay addable. Rebase folds it into holes and clears it.
	retired map[int64]bool
	policy  LivePolicy

	compacting bool
	compactWG  sync.WaitGroup

	// Tile-pyramid maintenance state (see tile.go): the pyramid synced to
	// tileView, the pyramid persisted inside the store file (nil once
	// invalid) and the derived world bounds of a store without a frozen
	// TileBox. Guarded by tileMu; publishers holding mu may take tileMu
	// (never the reverse).
	tileMu      sync.Mutex
	tilePyr     *tiles.Pyramid
	tileView    *view
	tileSidecar *tiles.Pyramid
	// tileRaw is the still-encoded pyramid embedded in a mapped INSPSTORE4
	// store, decoded into tileSidecar on the first spatial query (see
	// sidecarLocked) so a cold load never pays the decode.
	tileRaw []byte
	tileBox *tiles.Rect

	adds, deletes, seals, compactions atomic.Uint64

	// Replication log: the recent seal/tombstone entries in publish order,
	// appended by publishLocked and consumed by replica catch-up
	// (LineageSince). Compactions are answer-invariant and are not logged;
	// lineage cuts (rebase, layout reset) and ring trims
	// advance logFloor, past which only a full resync can catch a replica
	// up. Guarded by mu.
	replog   []logEntry
	logFloor uint64
}

// logEntry is one replication-log record: a batch of sealed segments or one
// tombstone, at the epoch that published it. Segments are shared by
// reference — they are immutable once sealed.
type logEntry struct {
	epoch uint64
	kind  viewKind // viewSeal or viewTomb
	segs  []*segment.Segment
	tomb  int64
}

// replogCap bounds the replication log. A trim advances logFloor, so a
// replica dead for longer than the ring covers falls back to a full resync.
const replogCap = 4096

// viewNow returns the store's current view, initializing epoch 1 from the
// base snapshot on first use.
func (st *Store) viewNow() *view {
	if v := st.live.cur.Load(); v != nil {
		return v
	}
	st.live.mu.Lock()
	defer st.live.mu.Unlock()
	return st.initViewLocked()
}

// initViewLocked builds (or returns) the current view; callers hold live.mu.
func (st *Store) initViewLocked() *view {
	if v := st.live.cur.Load(); v != nil {
		return v
	}
	v := st.baseOnlyView(1)
	v.epoch = 1
	st.live.nextDoc = st.idHighWater()
	st.live.idFloor = st.live.nextDoc
	st.live.cur.Store(v)
	return v
}

// baseOnlyView builds a lineage-cut view of the store's base snapshot alone
// at base generation gen: no segments, tombstones or live points.
func (st *Store) baseOnlyView(gen uint64) *view {
	return &view{gen: gen, base: st.baseView(), blocks: []*segment.Segment{st.baseBlock()}}
}

// baseBlock wraps the store's base postings and signatures as an index block,
// zero-copy (mapped or not). Its documents are the signature documents: the
// pipeline and Rebase write one row per base document, null signatures
// included, and validate holds a loaded file to ascending rows inside the
// base, and every metadata row to name one of them.
func (st *Store) baseBlock() *segment.Segment {
	return &segment.Segment{Docs: st.SigDocs, Posts: st.Posts, SigM: st.SigM, SigVecs: st.SigVecs, Meta: st.Meta}
}

// baseView snapshots the store's base-only products into an immutable
// baseView.
func (st *Store) baseView() *baseView {
	b := &baseView{
		points:         st.Points,
		assignDocs:     st.AssignDocs,
		assignClusters: st.AssignClusters,
	}
	if len(st.Holes) > 0 {
		b.holes = make(map[int64]bool, len(st.Holes))
		for _, d := range st.Holes {
			b.holes[d] = true
		}
	}
	return b
}

// publishLocked installs next as the current view with the epoch advanced,
// linking the similarity lineage unless next cuts it; callers hold live.mu
// and must have derived next from the current view.
func (st *Store) publishLocked(next *view) {
	cur := st.initViewLocked()
	next.epoch = cur.epoch + 1
	if next.gen == 0 {
		next.gen = cur.gen
	}
	if next.kind != viewCut && cur.depth < maxSimChain {
		next.parent = cur
		next.depth = cur.depth + 1
	}
	switch next.kind {
	case viewSeal:
		st.appendLogLocked(logEntry{epoch: next.epoch, kind: viewSeal, segs: next.newSegs})
	case viewTomb:
		st.appendLogLocked(logEntry{epoch: next.epoch, kind: viewTomb, tomb: next.tomb})
	case viewCompact:
		// Answer-invariant: a replica replaying the log converges without it.
	default:
		// A cut (rebase) is not expressible as a seal/tomb
		// delta; replicas behind it must fully resync.
		st.live.replog = nil
		st.live.logFloor = next.epoch
	}
	st.live.cur.Store(next)
}

// appendLogLocked records one replication-log entry, trimming the oldest past
// replogCap; callers hold live.mu.
func (st *Store) appendLogLocked(e logEntry) {
	if len(st.live.replog) >= replogCap {
		// Replicas at exactly the dropped epoch no longer need it; anything
		// older falls to a full resync.
		st.live.logFloor = st.live.replog[0].epoch
		n := copy(st.live.replog, st.live.replog[1:])
		st.live.replog = st.live.replog[:n]
	}
	st.live.replog = append(st.live.replog, e)
}

// LineageSince returns the seal/tombstone entries published after epoch
// since, in publish order — the catch-up delta a replica at that epoch needs.
// ok is false when the log cannot cover the gap (a lineage cut or ring trim
// landed past since); the replica must then fully resync (Replicate).
func (st *Store) LineageSince(since uint64) (entries []logEntry, ok bool) {
	st.live.mu.Lock()
	defer st.live.mu.Unlock()
	st.initViewLocked()
	if since < st.live.logFloor {
		return nil, false
	}
	for _, e := range st.live.replog {
		if e.epoch > since {
			entries = append(entries, e)
		}
	}
	return entries, true
}

// hasLiveLocked reports whether live data — sealed segments, tombstones or a
// buffered delta — exists; callers hold live.mu. SetBaseMeta, which
// rewrites the base layout, and Shard refuse while it does.
func (st *Store) hasLiveLocked() bool {
	if st.live.delta != nil && st.live.delta.NumDocs() > 0 {
		return true
	}
	v := st.live.cur.Load()
	return v != nil && (len(v.blocks) > 1 || len(v.tombs) > 0)
}

// resetViewLocked republishes the view from the store fields after a
// whole-layout rewrite, advancing the base generation so posting-cache keys
// from the old layout can never alias the new one; callers hold live.mu and
// have checked hasLiveLocked. A no-op when no view was ever published.
func (st *Store) resetViewLocked() {
	v := st.live.cur.Load()
	if v == nil {
		return
	}
	st.live.replog = nil
	st.live.logFloor = v.epoch + 1
	next := st.baseOnlyView(v.gen + 1)
	next.epoch, next.pts = v.epoch+1, v.pts
	st.live.cur.Store(next)
}

// Epoch returns the store's current serving epoch; it advances on every
// published change (seal, delete, compaction, rebase).
func (st *Store) Epoch() uint64 { return st.viewNow().epoch }

// LiveDocs returns the number of documents visible to queries right now:
// base + sealed segments − tombstones. Adds still buffered in the delta are
// not yet visible (see LivePolicy.SealDocs).
func (st *Store) LiveDocs() int64 { return st.viewNow().liveDocs() }

// LiveSegments returns the number of sealed, uncompacted delta segments.
func (st *Store) LiveSegments() int { return len(st.viewNow().segs()) }

// PendingDocs returns the number of added documents buffered in the mutable
// delta, not yet visible to queries.
func (st *Store) PendingDocs() int {
	st.live.mu.Lock()
	defer st.live.mu.Unlock()
	if st.live.delta == nil {
		return 0
	}
	return st.live.delta.NumDocs()
}

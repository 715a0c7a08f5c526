package serve

// Live ingestion: the mutable side of the epoch-swapped serving stack. Added
// documents accumulate in an in-memory delta (tokenized with the producing
// run's normalization and projected into signature space with its frozen
// association matrix), deltas seal into block-compressed segments, and a
// background compactor k-way-merges small segments into larger ones — each
// step publishing a new immutable view, so concurrent queries never block and
// always see a whole epoch.

import (
	"fmt"
	"slices"
	"sort"

	"inspire/internal/project"
	"inspire/internal/scan"
	"inspire/internal/segment"
)

// LivePolicy tunes a live store's ingest layer. The zero value selects the
// documented defaults.
type LivePolicy struct {
	// SealDocs is the number of buffered documents that triggers an
	// automatic seal: added documents become visible to queries when their
	// delta seals, so this bounds the refresh lag. Default 256.
	SealDocs int
	// CompactSegments is the sealed-segment count that triggers compaction.
	// Default 4.
	CompactSegments int
	// ManualCompaction disables the background compactor; callers compact
	// explicitly (deterministic tests and benchmarks do).
	ManualCompaction bool
	// Tokenizer configures ingest tokenization. The zero value selects the
	// pipeline defaults — matching the producing run is what makes an
	// ingested document index exactly like a batch-scanned one.
	Tokenizer scan.TokenizerConfig
}

func (p LivePolicy) withDefaults() LivePolicy {
	if p.SealDocs <= 0 {
		p.SealDocs = 256
	}
	if p.CompactSegments <= 0 {
		p.CompactSegments = 4
	}
	return p
}

// SetLivePolicy configures the store's ingest layer. Call before ingesting;
// changes apply to the next add.
func (st *Store) SetLivePolicy(p LivePolicy) {
	st.live.mu.Lock()
	st.live.policy = p
	st.live.mu.Unlock()
}

// livePolicy returns the effective policy; callers hold live.mu or accept a
// racy-read default (tokenization uses it outside the lock by design — the
// policy is set before ingestion starts).
func (st *Store) livePolicy() LivePolicy {
	return st.live.policy.withDefaults()
}

// prepareDoc tokenizes a document with the producing run's normalization,
// resolves tokens against the frozen vocabulary (out-of-vocabulary terms are
// dropped — the vocabulary, like the signature space, is fixed at snapshot
// time) and projects the signature.
func (st *Store) prepareDoc(text string) (counts map[int64]int64, sig []float64) {
	counts = make(map[int64]int64)
	scan.ForEachToken(text, st.livePolicy().Tokenizer, func(term string) {
		if id, ok := st.lookupTerm(term); ok {
			counts[id]++
		}
	})
	if st.Proj != nil {
		sig = st.Proj.Project(counts)
	}
	return counts, sig
}

// AddMeta ingests one document with its metadata — an ingest timestamp
// (0 = none) and "key=value" facets (see meta.go) — assigning it the next
// document ID, and returns the ID. The document becomes visible to queries,
// and filtered queries match it by exactly this metadata, from the epoch
// its delta seals (LivePolicy.SealDocs, or Flush).
func (st *Store) AddMeta(text string, ts int64, facets []string) (int64, error) {
	facets, err := normalizeFacets(facets)
	if err != nil {
		return 0, err
	}
	counts, sig := st.prepareDoc(text)
	st.live.mu.Lock()
	defer st.live.mu.Unlock()
	st.initViewLocked()
	doc := st.live.nextDoc
	return doc, st.addLocked(doc, counts, sig, ts, facets)
}

// AddCountsMeta ingests one pre-tokenized document under an explicit ID —
// the sharded path, where the router tokenizes once, assigns global IDs and
// routes each to shard ID mod S — with its in-document term counts (dense
// IDs), signature and metadata (see AddMeta). The ID must never have been
// used: adds reject base documents, already-ingested or tombstoned IDs,
// everything below the retirement floor (rebased holes, gaps under loaded
// segments, persisted high-water marks), and IDs whose tombstones a
// compaction dropped. IDs above the floor may arrive out of order —
// concurrent routed sessions land on a shard that way.
func (st *Store) AddCountsMeta(doc int64, counts map[int64]int64, sig []float64, ts int64, facets []string) error {
	facets, err := normalizeFacets(facets)
	if err != nil {
		return err
	}
	st.live.mu.Lock()
	defer st.live.mu.Unlock()
	st.initViewLocked()
	return st.addLocked(doc, counts, sig, ts, facets)
}

// addLocked buffers one document in the delta, sealing when the policy's
// threshold trips; callers hold live.mu with the view initialized. facets
// arrive normalized (sorted, deduplicated, validated).
func (st *Store) addLocked(doc int64, counts map[int64]int64, sig []float64, ts int64, facets []string) error {
	v := st.live.cur.Load()
	if i := v.blockOf(doc); doc < 0 || i == 0 {
		return Errorf(ErrInvalid, "serve: add: doc %d collides with the base snapshot", doc)
	} else if i > 0 {
		return Errorf(ErrInvalid, "serve: add: doc %d already ingested", doc)
	}
	if v.tombs[doc] || doc < st.live.idFloor || st.live.retired[doc] {
		// Everything below the retirement floor, in the retired set, or
		// still tombstoned is in use or retired; a retired ID may have lost
		// every other trace of itself (a rebased hole, or a tombstone
		// dropped by compaction with its data). The floor and set — not the
		// rolling nextDoc — are what reject here, so routed adds landing on
		// a shard out of ID order still go through.
		return Errorf(ErrInvalid, "serve: add: doc %d was deleted or retired; IDs are never reused", doc)
	}
	pol := st.livePolicy()
	if st.live.delta == nil {
		st.live.delta = segment.NewDelta(st.VocabSize, st.SigM)
	}
	if err := st.live.delta.AddMeta(doc, counts, sig, ts, facets); err != nil {
		return err
	}
	if doc >= st.live.nextDoc {
		st.live.nextDoc = doc + 1
	}
	st.live.adds.Add(1)
	if st.live.delta.NumDocs() >= pol.SealDocs {
		return st.sealLocked()
	}
	return nil
}

// Delete tombstones a document and publishes the change immediately. The
// postings stay in place until compaction (segment documents) or Rebase
// (base documents) drops them; every query path filters the tombstone set.
// Deleting a document still buffered in the delta seals the delta first, so
// tombstones only ever target visible documents and the live-document count
// stays exact.
func (st *Store) Delete(doc int64) error {
	st.live.mu.Lock()
	defer st.live.mu.Unlock()
	v := st.initViewLocked()
	if st.live.delta != nil && st.live.delta.Contains(doc) {
		if err := st.sealLocked(); err != nil {
			return err
		}
		v = st.live.cur.Load()
	}
	if !v.contains(doc) {
		return Errorf(ErrInvalid, "serve: delete: unknown document %d", doc)
	}
	tombs := make(map[int64]bool, len(v.tombs)+1)
	for d := range v.tombs {
		tombs[d] = true
	}
	tombs[doc] = true
	st.publishLocked(&view{gen: v.gen, base: v.base, blocks: v.blocks, tombs: tombs, pts: v.pts,
		kind: viewTomb, tomb: doc})
	st.live.deletes.Add(1)
	return nil
}

// Flush seals the buffered delta (if any) into a segment and publishes it,
// making every pending add visible.
func (st *Store) Flush() error {
	st.live.mu.Lock()
	defer st.live.mu.Unlock()
	st.initViewLocked()
	return st.sealLocked()
}

// sealLocked freezes the delta into a sealed segment and publishes the new
// view; callers hold live.mu. A nil/empty delta is a no-op.
func (st *Store) sealLocked() error {
	if st.live.delta == nil || st.live.delta.NumDocs() == 0 {
		return nil
	}
	seg, err := st.live.delta.Seal()
	if err != nil {
		return err
	}
	st.live.delta = nil
	v := st.live.cur.Load()
	blocks := append(slices.Clip(v.blocks), seg)
	// Place the sealed documents on the ThemeView plane with the frozen
	// projection model, so spatial queries and the tile pyramid see them
	// from this epoch on.
	newPts := st.planarPoints(seg)
	pts := make([]project.Point, len(v.pts), len(v.pts)+len(newPts))
	copy(pts, v.pts)
	pts = append(pts, newPts...)
	st.publishLocked(&view{gen: v.gen, base: v.base, blocks: blocks, tombs: v.tombs, pts: pts,
		kind: viewSeal, newSegs: blocks[len(blocks)-1:], newPts: newPts})
	st.live.seals.Add(1)
	pol := st.livePolicy()
	if !pol.ManualCompaction && len(blocks)-1 >= pol.CompactSegments && !st.live.compacting {
		st.live.compactWG.Add(1)
		go func() {
			defer st.live.compactWG.Done()
			_ = st.Compact()
		}()
	}
	return nil
}

// installLive publishes another store's live state — its sealed segments
// and tombstone list — onto a fresh fork (the Replicate path). The store
// must not have live state already.
func (st *Store) installLive(segs []*segment.Segment, tombs []int64) error {
	st.live.mu.Lock()
	defer st.live.mu.Unlock()
	if st.hasLiveLocked() {
		return fmt.Errorf("serve: store already has live state")
	}
	v := st.initViewLocked()
	next := &view{gen: v.gen, base: v.base, blocks: append([]*segment.Segment{v.blocks[0]}, segs...)}
	for _, seg := range segs {
		next.pts = append(next.pts, st.planarPoints(seg)...)
	}
	if len(tombs) > 0 {
		next.tombs = make(map[int64]bool, len(tombs))
		for _, d := range tombs {
			next.tombs[d] = true
		}
	}
	for _, seg := range segs {
		if max := seg.MaxDoc() + 1; max > st.live.nextDoc {
			st.live.nextDoc = max
		}
	}
	// IDs below the installed segments' maxes are either present (in a
	// segment) or retired gaps whose tombstones compacted away; the floor
	// rejects re-adding the gaps.
	if st.live.nextDoc > st.live.idFloor {
		st.live.idFloor = st.live.nextDoc
	}
	for _, d := range tombs {
		if next.blockOf(d) < 0 {
			return fmt.Errorf("serve: tombstone %d targets no document", d)
		}
	}
	st.publishLocked(next)
	return nil
}

// AdoptSegments publishes already-sealed segments shipped from a replication
// peer onto this store — the replica catch-up path. Segments are shared by
// reference (they are immutable once sealed); ones the store already holds
// are skipped, so replaying a catch-up entry twice converges. The pending
// delta, if any, must have been discarded first (DiscardDelta): every
// document it buffered arrives inside the shipped segments, and sealing it
// too would serve duplicates.
func (st *Store) AdoptSegments(segs []*segment.Segment) error {
	st.live.mu.Lock()
	defer st.live.mu.Unlock()
	v := st.initViewLocked()
	if st.live.delta != nil && st.live.delta.NumDocs() > 0 {
		return fmt.Errorf("serve: adopt: pending delta would duplicate shipped documents; discard it first")
	}
	fresh := segs[:0:0]
	for _, seg := range segs {
		have := false
		for _, s := range v.segs() {
			if s == seg {
				have = true
				break
			}
		}
		if !have {
			fresh = append(fresh, seg)
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	next := append(slices.Clip(v.blocks), fresh...)
	var newPts []project.Point
	for _, seg := range fresh {
		newPts = append(newPts, st.planarPoints(seg)...)
	}
	pts := make([]project.Point, len(v.pts), len(v.pts)+len(newPts))
	copy(pts, v.pts)
	pts = append(pts, newPts...)
	st.publishLocked(&view{gen: v.gen, base: v.base, blocks: next, tombs: v.tombs, pts: pts,
		kind: viewSeal, newSegs: next[len(next)-len(fresh):], newPts: newPts})
	for _, seg := range fresh {
		if max := seg.MaxDoc() + 1; max > st.live.nextDoc {
			st.live.nextDoc = max
		}
	}
	st.live.seals.Add(1)
	return nil
}

// AdoptTombstone applies a replicated delete idempotently: a document the
// store no longer exposes (already tombstoned by a previous application, or
// compacted away together with its tombstone before the replica died) is a
// no-op, so replaying a catch-up entry twice converges.
func (st *Store) AdoptTombstone(doc int64) error {
	if !st.viewNow().contains(doc) {
		return nil
	}
	return st.Delete(doc)
}

// DiscardDelta drops the pending (unsealed) delta. Replica catch-up uses it:
// the discarded documents were replicated writes the primary has since
// sealed, so they come back inside the shipped segments.
func (st *Store) DiscardDelta() {
	st.live.mu.Lock()
	st.live.delta = nil
	st.live.mu.Unlock()
}

// Replicate builds a read-equivalent live copy of the store: the immutable
// base products are shared (a mapped base shares its pages for free), the
// live policy is copied — identical seal thresholds keep an identical write
// stream sealing at identical boundaries — and the current sealed segments,
// tombstones and ID high-water are installed. The pending delta is flushed
// first so the copy sees every write. Keep the copy current by applying the
// original's write stream, or by LineageSince catch-up.
func (st *Store) Replicate() (*Store, error) {
	if err := st.Flush(); err != nil {
		return nil, err
	}
	cp := st.Fork()
	cp.SetLivePolicy(st.livePolicy())
	v := st.viewNow()
	if len(v.blocks) > 1 || len(v.tombs) > 0 {
		tombs := make([]int64, 0, len(v.tombs))
		for d := range v.tombs {
			tombs = append(tombs, d)
		}
		if err := cp.installLive(v.segs(), tombs); err != nil {
			return nil, err
		}
	}
	cp.AdvanceNextDoc(st.NextDocID())
	return cp, nil
}

// NextDocID returns the store's document-ID high-water mark: the ID the next
// local Add would take. IDs at or above it have never been assigned; IDs
// below it are in use or retired (deleted IDs are never reused).
func (st *Store) NextDocID() int64 {
	st.live.mu.Lock()
	defer st.live.mu.Unlock()
	st.initViewLocked()
	return st.live.nextDoc
}

// AdvanceNextDoc raises the document-ID high-water mark (and the retirement
// floor) to at least n. Replicate and replica catch-up use it to carry the
// source's mark, which its surviving data no longer implies when the
// highest assigned IDs were deleted and compacted away.
func (st *Store) AdvanceNextDoc(n int64) {
	st.live.mu.Lock()
	defer st.live.mu.Unlock()
	st.initViewLocked()
	if n > st.live.nextDoc {
		st.live.nextDoc = n
	}
	if n > st.live.idFloor {
		st.live.idFloor = n
	}
}

// unfolded reports whether the store holds live state its file would not
// carry: a pending delta, sealed segments, tombstones, or IDs assigned past
// the base's high water (ingests deleted and compacted away). Rebase folds
// all of it into the base.
func (st *Store) unfolded() bool {
	st.live.mu.Lock()
	defer st.live.mu.Unlock()
	return st.hasLiveLocked() || st.live.nextDoc > st.idHighWater()
}

// WaitCompaction blocks until any in-flight background compaction finishes.
// Quiesce ingestion first — a concurrent add may trigger another run.
func (st *Store) WaitCompaction() { st.live.compactWG.Wait() }

// Compact k-way merges every currently sealed segment into one, dropping the
// tombstones that point into them, and publishes the compacted view. Queries
// keep serving the old view throughout.
func (st *Store) Compact() error {
	st.live.mu.Lock()
	v := st.initViewLocked()
	if len(v.blocks) < 3 || st.live.compacting {
		st.live.mu.Unlock()
		return nil
	}
	st.live.compacting = true
	input := v.segs()
	tombs := v.tombs
	st.live.mu.Unlock()

	// The merge runs off the lock: ingestion and deletes continue against
	// the published view while the compactor works.
	merged, err := segment.Merge(input, func(d int64) bool { return tombs[d] })
	if err != nil {
		st.live.mu.Lock()
		st.live.compacting = false
		st.live.mu.Unlock()
		return fmt.Errorf("serve: compact: %w", err)
	}

	st.live.mu.Lock()
	defer st.live.mu.Unlock()
	cur := st.live.cur.Load()
	// The merge ran off the lock: if the segment list was rewritten under us
	// (a concurrent Rebase folded everything into the base), the input is no
	// longer a prefix of the current list — drop the merge result.
	segs := cur.segs()
	prefix := len(segs) >= len(input)
	for i := 0; prefix && i < len(input); i++ {
		prefix = segs[i] == input[i]
	}
	if !prefix {
		st.live.compacting = false
		return nil
	}
	// Segments sealed while we merged sit after the input prefix; keep them.
	blocks := []*segment.Segment{cur.blocks[0]}
	if merged.NumDocs() > 0 {
		blocks = append(blocks, merged)
	}
	blocks = append(blocks, segs[len(input):]...)
	// Tombstones that pointed into the merged input are gone from the data;
	// drop them from the set. Later tombstones (including ones filed against
	// input docs during the merge) stay and keep filtering. Every dropped
	// tombstone leaves an untraceable retired ID behind; pin it in the
	// retired set — exactly it, not a floor, so a concurrently routed lower
	// ID still in flight stays addable.
	next := make(map[int64]bool, len(cur.tombs))
	var dropped map[int64]bool
	for d := range cur.tombs {
		if tombs[d] && containsAny(input, d) {
			if st.live.retired == nil {
				st.live.retired = make(map[int64]bool)
			}
			st.live.retired[d] = true
			if dropped == nil {
				dropped = make(map[int64]bool)
			}
			dropped[d] = true
			continue
		}
		next[d] = true
	}
	// A dropped tombstone leaves the published set together with its
	// document's postings and signature; the live point must go with them,
	// or a spatial query (and the tile pyramid rebuilt from this view)
	// would resurrect the deleted document.
	pts := cur.pts
	if len(dropped) > 0 && len(pts) > 0 {
		kept := make([]project.Point, 0, len(pts))
		for _, pt := range pts {
			if !dropped[pt.Doc] {
				kept = append(kept, pt)
			}
		}
		pts = kept
	}
	st.publishLocked(&view{gen: cur.gen, base: cur.base, blocks: blocks, tombs: next, pts: pts,
		kind: viewCompact})
	st.live.compacting = false
	st.live.compactions.Add(1)
	return nil
}

// containsAny reports whether any segment covers doc.
func containsAny(segs []*segment.Segment, doc int64) bool {
	for _, s := range segs {
		if s.Contains(doc) {
			return true
		}
	}
	return false
}

// Rebase folds the base snapshot, every sealed segment and the tombstone set
// into a fresh base — one segment.Merge of the view's blocks, the merge
// compaction runs over segments alone — the full materialization that makes
// the store persistable as a single INSPSTORE4 file again. Pending adds are
// flushed first. The old base products are left untouched (readers holding
// the old view keep working); the store's fields and a new view (with the
// base generation advanced) are swapped in at the end.
//
// After a rebase TotalDocs is the document-ID high water, not the live count
// (deleted IDs leave holes, recorded in Store.Holes and reading as absent,
// and are never reused); Shard still assumes the dense IDs of a pure
// pipeline snapshot, so shard a store before ingesting into it, not after
// rebasing deletions.
func (st *Store) Rebase() error {
	st.WaitCompaction()
	st.live.mu.Lock()
	defer st.live.mu.Unlock()
	st.initViewLocked()
	// Seal inside the critical section: an add landing between an unlocked
	// flush and this lock would advance nextDoc and be silently absorbed
	// into the new base range as a phantom document with no postings. (A
	// compaction our own seal spawns blocks on live.mu and no-ops after the
	// rebase empties the segment list.)
	if err := st.sealLocked(); err != nil {
		return err
	}
	v := st.live.cur.Load()
	// Nothing to fold only when no segments, no tombstones, no
	// compaction-retired IDs AND no ID mark past the base's high water
	// exist: a retired set with everything else empty (every ingest deleted
	// and compacted away) still must materialize as holes, and a mark
	// carried over by Replicate must move the high water, or persisting the
	// store would forget the IDs were ever used.
	if len(v.blocks) == 1 && len(v.tombs) == 0 && len(st.live.retired) == 0 &&
		st.live.nextDoc <= st.idHighWater() {
		return nil
	}

	// Postings, signatures and metadata: one merge of every block.
	dead := v.tombs
	merged, err := segment.Merge(v.blocks, func(d int64) bool { return dead[d] })
	if err != nil {
		return fmt.Errorf("serve: rebase: %w", err)
	}

	// Fold the live points into the base point set (tombstones dropped),
	// sorted by document like GatherCoords emits them — rebased ingests
	// stay on the Galaxy exactly where their seal placed them.
	points := v.base.points
	if len(dead) > 0 || len(v.pts) > 0 {
		points = make([]project.Point, 0, len(v.base.points)+len(v.pts))
		for _, pt := range v.base.points {
			if !dead[pt.Doc] {
				points = append(points, pt)
			}
		}
		for _, pt := range v.pts {
			if !dead[pt.Doc] {
				points = append(points, pt)
			}
		}
		sort.Slice(points, func(a, b int) bool { return points[a].Doc < points[b].Doc })
	}
	assignDocs, assignClusters := v.base.assignDocs, v.base.assignClusters
	if len(dead) > 0 {
		assignDocs, assignClusters = nil, nil
		for i, d := range v.base.assignDocs {
			if !dead[d] {
				assignDocs = append(assignDocs, d)
				assignClusters = append(assignClusters, v.base.assignClusters[i])
			}
		}
	}

	st.Posts, st.SigDocs, st.SigVecs, st.Meta = merged.Posts, merged.Docs, merged.SigVecs, merged.Meta
	if len(dead) > 0 || len(st.live.retired) > 0 {
		// Deleted IDs — current tombstones and compaction-retired IDs alike
		// — become permanent holes in the rebased range: the high-water mark
		// keeps covering them (IDs are never reused), but they must read as
		// absent, not as live base documents. The three sources are disjoint
		// (retired IDs left the tombstone set, and old holes sit below the
		// previous floor).
		holes := make([]int64, 0, len(st.Holes)+len(dead)+len(st.live.retired))
		holes = append(holes, st.Holes...)
		for d := range dead {
			holes = append(holes, d)
		}
		for d := range st.live.retired {
			holes = append(holes, d)
		}
		slices.Sort(holes)
		st.Holes = holes
	}
	if st.ShardCount > 0 {
		// A shard's TotalDocs is its document count; base membership stays
		// modular, so the global high water moves to cover rebased ingests.
		st.GlobalDocs = st.live.nextDoc
		st.TotalDocs = merged.NumDocs()
	} else {
		// Monolithic stores keep TotalDocs as the dense ID high water
		// (deleted IDs leave holes and are never reused).
		st.TotalDocs = st.live.nextDoc
	}
	// Everything below the high water is now base or hole: retire the whole
	// range, which subsumes the compaction-retired set.
	st.live.idFloor = st.live.nextDoc
	st.live.retired = nil
	st.Points = points
	st.AssignDocs, st.AssignClusters = assignDocs, assignClusters
	st.publishLocked(st.baseOnlyView(v.gen + 1))
	// The base points changed: the persisted tile sidecar no longer
	// describes them.
	st.dropTiles()
	st.live.compactions.Add(1)
	return nil
}

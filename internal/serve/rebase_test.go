package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"inspire/internal/postings"
	"inspire/internal/project"
	"inspire/internal/segment"
)

// oracleRebase is Rebase as it was before it became one segment.Merge of the
// view's blocks: postings, signatures and metadata each folded by its own
// k-way merge, the metadata re-sorted. Kept verbatim as the oracle, except
// that the base's postings and signatures are read from its block, its
// metadata rows through baseView.meta and its membership from the store's
// routing fields (oracleBaseHas).
func oracleRebase(st *Store) error {
	st.WaitCompaction()
	st.live.mu.Lock()
	defer st.live.mu.Unlock()
	st.initViewLocked()
	if err := st.sealLocked(); err != nil {
		return err
	}
	v := st.live.cur.Load()
	if len(v.segs()) == 0 && len(v.tombs) == 0 && len(st.live.retired) == 0 {
		return nil
	}

	dead := v.tombs
	base := v.blocks[0]
	var total int64
	for _, n := range base.Posts.Count {
		total += n
	}
	for _, s := range v.segs() {
		total += s.Postings()
	}
	w := postings.NewWriter(total)
	lists := make([]plist, 0, len(v.blocks))
	for t := int64(0); t < st.VocabSize; t++ {
		lists = lists[:0]
		if base.Posts.Count[t] > 0 {
			d, f := base.Posts.Postings(t)
			lists = append(lists, plist{d, f})
		}
		for _, s := range v.segs() {
			if s.Posts.Count[t] > 0 {
				d, f := s.Posts.Postings(t)
				lists = append(lists, plist{d, f})
			}
		}
		docs, freqs := mergePlists(lists, dead)
		if err := w.Append(docs, freqs); err != nil {
			return fmt.Errorf("serve: rebase: %w", err)
		}
	}
	posts := w.Finish()

	// Merge the signature sets (base set + per-segment slices),
	// ascending by document, dropping tombstones.
	sigDocs := make([]int64, 0, len(base.Docs))
	sigVecs := make([][]float64, 0, len(base.Docs))
	srcDocs := make([][]int64, 0, len(v.blocks))
	srcVecs := make([][][]float64, 0, len(v.blocks))
	srcDocs, srcVecs = append(srcDocs, base.Docs), append(srcVecs, base.SigVecs)
	for _, s := range v.segs() {
		srcDocs, srcVecs = append(srcDocs, s.Docs), append(srcVecs, s.SigVecs)
	}
	pos := make([]int, len(srcDocs))
	for {
		best := -1
		for i := range srcDocs {
			if pos[i] >= len(srcDocs[i]) {
				continue
			}
			if best < 0 || srcDocs[i][pos[i]] < srcDocs[best][pos[best]] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		if d := srcDocs[best][pos[best]]; !dead[d] {
			sigDocs = append(sigDocs, d)
			sigVecs = append(sigVecs, srcVecs[best][pos[best]])
		}
		pos[best]++
	}

	// Fold the live points into the base point set (tombstones dropped),
	// sorted by document like GatherCoords emits them.
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

	// Fold document metadata: surviving base rows (IDs back to strings) plus
	// the segment rows, sorted by document and re-interned into a fresh
	// dictionary — so the rebased dictionary carries no dead facets.
	var mDocs, mTimes []int64
	var mFacets [][]string
	for _, d := range v.blocks[0].Meta.Docs {
		if !dead[d] && oracleBaseHas(st, d) {
			ts, facets := v.blocks[0].Meta.Lookup(d)
			mDocs = append(mDocs, d)
			mTimes = append(mTimes, ts)
			mFacets = append(mFacets, facets)
		}
	}
	for _, s := range v.segs() {
		for i, d := range s.Meta.Docs {
			if dead[d] {
				continue
			}
			ts, facets := s.Meta.Times[i], s.Meta.AppendFacets(nil, i)
			if ts == 0 && len(facets) == 0 {
				continue
			}
			mDocs = append(mDocs, d)
			mTimes = append(mTimes, ts)
			mFacets = append(mFacets, facets)
		}
	}
	if ord := make([]int, len(mDocs)); len(ord) > 0 {
		for i := range ord {
			ord[i] = i
		}
		sort.Slice(ord, func(a, b int) bool { return mDocs[ord[a]] < mDocs[ord[b]] })
		sDocs := make([]int64, len(mDocs))
		sTimes := make([]int64, len(mDocs))
		sFacets := make([][]string, len(mDocs))
		for o, i := range ord {
			sDocs[o], sTimes[o], sFacets[o] = mDocs[i], mTimes[i], mFacets[i]
		}
		mDocs, mTimes, mFacets = sDocs, sTimes, sFacets
	}

	st.Posts = posts
	if len(dead) > 0 || len(st.live.retired) > 0 {
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
		st.GlobalDocs = st.live.nextDoc
		st.TotalDocs = int64(len(sigDocs))
	} else {
		st.TotalDocs = st.live.nextDoc
	}
	st.live.idFloor = st.live.nextDoc
	st.live.retired = nil
	st.Points = points
	st.AssignDocs, st.AssignClusters = assignDocs, assignClusters
	var meta segment.MetaBuilder
	for i, d := range mDocs {
		meta.Add(d, mTimes[i], mFacets[i])
	}
	st.Meta = meta.Meta()
	st.SigDocs, st.SigVecs = sigDocs, sigVecs
	st.publishLocked(st.baseOnlyView(v.gen + 1))
	st.live.tileMu.Lock()
	st.live.tileSidecar, st.live.tileRaw = nil, nil
	st.live.tilePyr, st.live.tileView = nil, nil
	st.live.tileMu.Unlock()
	st.live.compactions.Add(1)
	return nil
}

// oracleBaseHas is the base membership rule the oracle's fold used: in the
// dense (monolithic) or modular (shard) ID range, and not a hole.
func oracleBaseHas(st *Store, doc int64) bool {
	if doc < 0 || slices.Contains(st.Holes, doc) {
		return false
	}
	if st.ShardCount > 0 {
		return doc < st.GlobalDocs && int(doc%int64(st.ShardCount)) == st.ShardIndex
	}
	return doc < st.TotalDocs
}

// plist is one sorted (docs, freqs) posting list feeding a k-way merge.
type plist struct{ docs, freqs []int64 }

// mergePlists k-way merges disjoint doc-sorted posting lists, dropping docs
// in dead (nil = none). Freshly allocated; nil when nothing survives.
func mergePlists(lists []plist, dead map[int64]bool) (docs, freqs []int64) {
	pos := make([]int, len(lists))
	for {
		best := -1
		for i := range lists {
			if pos[i] >= len(lists[i].docs) {
				continue
			}
			if best < 0 || lists[i].docs[pos[i]] < lists[best].docs[pos[best]] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		if d := lists[best].docs[pos[best]]; len(dead) == 0 || !dead[d] {
			docs = append(docs, d)
			freqs = append(freqs, lists[best].freqs[pos[best]])
		}
		pos[best]++
	}
	return docs, freqs
}

// rebaseWorld is one store — monolithic or split into shards — held twice:
// got rebases with Rebase, want with oracleRebase, and a seeded stream of
// writes drives both identically.
type rebaseWorld struct {
	t         *testing.T
	rng       *rand.Rand
	texts     []string
	meta      bool
	got, want []*Store
	next      int64
	live      []int64
}

func newRebaseWorld(t *testing.T, base *Store, shards int, meta bool, seed int64) *rebaseWorld {
	t.Helper()
	w := &rebaseWorld{t: t, rng: rand.New(rand.NewSource(seed)), meta: meta,
		texts: recordTexts(t, ingestSources()), next: base.TotalDocs}
	for _, side := range []*[]*Store{&w.got, &w.want} {
		if shards == 1 {
			*side = []*Store{base.Fork()}
		} else {
			set, err := base.Shard(shards)
			if err != nil {
				t.Fatal(err)
			}
			*side = set
		}
		for _, st := range *side {
			st.SetLivePolicy(LivePolicy{SealDocs: 1 << 20, CompactSegments: 1 << 20, ManualCompaction: true})
		}
	}
	for d := int64(0); d < base.TotalDocs; d++ {
		w.live = append(w.live, d)
	}
	return w
}

// each applies op to the store owning doc (every store for doc < 0) on both
// sides.
func (w *rebaseWorld) each(doc int64, op func(*Store) error) {
	w.t.Helper()
	for _, side := range [][]*Store{w.got, w.want} {
		for i, st := range side {
			if doc >= 0 && ShardOf(doc, len(side)) != i {
				continue
			}
			if err := op(st); err != nil {
				w.t.Fatal(err)
			}
		}
	}
}

// step applies one random write: adds (metadata on most when meta is set,
// a null signature on some), a delete of a base or ingested document, a
// seal or a compaction.
func (w *rebaseWorld) step() {
	w.t.Helper()
	switch op := w.rng.Intn(10); {
	case op < 4:
		for i := 1 + w.rng.Intn(8); i > 0; i-- {
			doc := w.next
			w.next++
			text := w.texts[w.rng.Intn(len(w.texts))]
			if w.rng.Intn(5) == 0 {
				text = "zzqx vvqk" // out of vocabulary: a null signature
			}
			var ts int64
			var facets []string
			if w.meta && w.rng.Intn(4) > 0 {
				ts = 5000 + doc
				facets = []string{fmt.Sprintf("source=s%d", doc%3), fmt.Sprintf("fresh=f%d", doc%5)}
			}
			w.live = append(w.live, doc)
			w.each(doc, func(st *Store) error { return addAt(st, doc, text, ts, facets) })
		}
	case op < 7 && len(w.live) > 8:
		i := w.rng.Intn(len(w.live))
		doc := w.live[i]
		w.live = slices.Delete(w.live, i, i+1)
		w.each(doc, func(st *Store) error { return st.Delete(doc) })
	case op < 8:
		w.each(-1, (*Store).Compact)
	default:
		w.each(-1, (*Store).Flush)
	}
}

// rebaseAndCompare rebases both sides — Rebase against the oracle — and
// requires every store's saved bytes to be equal.
func (w *rebaseWorld) rebaseAndCompare(label string) {
	w.t.Helper()
	for i := range w.got {
		if err := w.got[i].Rebase(); err != nil {
			w.t.Fatal(err)
		}
		if err := oracleRebase(w.want[i]); err != nil {
			w.t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := w.got[i].Save(&got); err != nil {
			w.t.Fatal(err)
		}
		if err := w.want[i].Save(&want); err != nil {
			w.t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			w.t.Fatalf("%s: store %d of %d saves %d bytes after Rebase, %d after the oracle's fold",
				label, i, len(w.got), got.Len(), want.Len())
		}
		if g, o := w.got[i].LiveDocs(), w.want[i].LiveDocs(); g != o {
			w.t.Fatalf("%s: store %d serves %d documents after Rebase, %d after the oracle's fold", label, i, g, o)
		}
	}
}

// TestRebaseMatchesOracle holds Rebase — one segment.Merge over the view's
// blocks — to the fold it replaced, byte for byte through Save, over seeded
// streams of adds, deletes, seals and compactions followed by a rebase, more
// of the same and a second rebase: monolithic and over three shards, with
// and without base and ingest metadata.
func TestRebaseMatchesOracle(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for _, meta := range []bool{false, true} {
			base := batchStore(t, ingestSources(), 2)
			if meta {
				stampMetaT(t, base)
			}
			for seed := int64(1); seed <= 3; seed++ {
				label := fmt.Sprintf("shards %d meta %v seed %d", shards, meta, seed)
				w := newRebaseWorld(t, base, shards, meta, seed)
				for round := 1; round <= 2; round++ {
					for i := 0; i < 25; i++ {
						w.step()
					}
					w.rebaseAndCompare(fmt.Sprintf("%s rebase %d", label, round))
				}
				// The streams must have exercised what the fold handles: holes
				// from deletes, ingested null signatures and, with metadata,
				// ingested metadata rows.
				var holes, nulls, rows int
				for _, st := range w.got {
					holes += len(st.Holes)
					for i, d := range st.SigDocs {
						if d >= base.TotalDocs && st.SigVecs[i] == nil {
							nulls++
						}
					}
					for _, d := range st.Meta.Docs {
						if d >= base.TotalDocs {
							rows++
						}
					}
				}
				if holes == 0 || nulls == 0 || meta != (rows > 0) {
					t.Fatalf("%s: the stream left %d holes, %d ingested null signatures and %d ingested metadata rows", label, holes, nulls, rows)
				}
			}
		}
	}
}

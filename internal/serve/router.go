package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"inspire/internal/core"
	"inspire/internal/query"
	"inspire/internal/scan"
	"inspire/internal/tiles"
)

// Router serves analyst sessions over a document-partitioned shard set — the
// scatter-gather front-end over one Server per shard (each with its own
// posting/similarity caches and coalescing). The router replicates the
// vocabulary and the global document frequencies, prunes fan-out with the
// per-shard DF summaries (a shard whose DF is zero for a query's terms is
// never asked), runs the shard sub-queries in parallel, and k-way merges the
// per-shard answers. Queries whose terms are unknown or absent from every
// shard short-circuit at the router without any fan-out.
//
// Live ingestion routes through the router too: an add is tokenized and
// signature-projected once at the router (the vocabulary and projection are
// replicated), assigned the next global document ID, and shipped to shard
// ID mod S; the router folds the new terms into its replicated DF tables so
// fan-out pruning stays exact for ingested documents. Deletes route to the
// owning shard by the same rule.
type Router struct {
	// sets holds one replica group per logical shard (Config.Replicas
	// servers each; one without replication). Reads pick a live replica
	// per sub-query; writes apply to every live replica in order.
	sets []*ReplicaSet
	cfg  Config

	// Replicated router-side tables, guarded by dfMu: the query vocabulary
	// (vocab resolves terms through shard 0's store, so mapped stores
	// binary-search their dictionary section instead of needing a heap
	// map; immutable), the global DF (element-wise sum of the shard DFs
	// plus everything ingested), each shard's base DF summary, and the
	// per-shard live DF overlay maintained as adds route through. Deleted
	// documents stay counted until an offline rebase — pruning only needs
	// "may hold postings", so the overcount is always safe.
	vocab    *Store
	termList []string
	dfMu     sync.RWMutex
	df       []int64
	shardDF  [][]int64
	liveDF   []map[int64]int64

	totalDocs int64
	nextDoc   atomic.Int64
	k         int
	themes    []core.Theme

	// tileBox is the shared tile-grid frame (every shard addresses the
	// same world rectangle); boxes[i] is shard i's data bounding box,
	// grown as adds route through, so spatial queries and tile fan-outs
	// prune shards that cannot contribute. Guarded by boxMu.
	tileBox tiles.Rect
	boxMu   sync.RWMutex
	boxes   []tiles.Rect
	boxOK   []bool

	// The similarity cache lives at the router: a routed top-K answer is a
	// merge across shards, so caching merged results short-circuits the whole
	// fan-out on a hit.
	smu  sync.Mutex
	sims *lru[simKey, []query.Hit]

	queries       atomic.Uint64
	fanOuts       atomic.Uint64
	shardQueries  atomic.Uint64
	shardsPruned  atomic.Uint64
	shortCircuits atomic.Uint64
	simHits       atomic.Uint64
	simMisses     atomic.Uint64
	simEvictions  atomic.Uint64
	hedges        atomic.Uint64
	hedgeWins     atomic.Uint64
	failovers     atomic.Uint64
	catchUps      atomic.Uint64
	catchUpSegs   atomic.Uint64
	catchUpBytes  atomic.Uint64

	nextSession atomic.Int64
}

// NewRouter builds a scatter-gather router over the shard stores of one
// sharded set (Store.Shard or LoadShards). Each shard gets its own Server
// with the given per-shard cache configuration.
//
// Deprecated: use NewService with Options{Shards: shards, Config: cfg}; this
// wrapper remains for existing callers.
func NewRouter(shards []*Store, cfg Config) (*Router, error) { return newRouter(shards, cfg) }

func newRouter(shards []*Store, cfg Config) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one shard")
	}
	cfg = cfg.withDefaults()
	first := shards[0]
	r := &Router{
		sets:     make([]*ReplicaSet, len(shards)),
		cfg:      cfg,
		vocab:    first,
		termList: first.TermList,
		df:       make([]int64, first.VocabSize),
		shardDF:  make([][]int64, len(shards)),
		liveDF:   make([]map[int64]int64, len(shards)),
		k:        first.K,
		themes:   first.Themes,
		sims:     newLRU[simKey, []query.Hit](cfg.SimCacheEntries),
	}
	// Unify the tile-grid frame before any server is built: tile (z, x, y)
	// must address the same world rectangle on every shard, or the gather
	// merges would sum unrelated rectangles. Shards split from one
	// snapshot already share the frozen box; legacy sets (per-shard
	// derived boxes) get the union, which is exactly the box the
	// unsharded snapshot would derive.
	var box *tiles.Rect
	same := true
	for _, st := range shards {
		switch {
		case st.TileBox == nil:
			same = false
		case box == nil:
			box = st.TileBox
		case *box != *st.TileBox:
			same = false
		}
	}
	if !same || box == nil {
		minX, minY := math.Inf(1), math.Inf(1)
		maxX, maxY := math.Inf(-1), math.Inf(-1)
		have := false
		for _, st := range shards {
			if st.TileBox == nil {
				continue
			}
			minX, maxX = math.Min(minX, st.TileBox.MinX), math.Max(maxX, st.TileBox.MaxX)
			minY, maxY = math.Min(minY, st.TileBox.MinY), math.Max(maxY, st.TileBox.MaxY)
			have = true
		}
		u := tiles.NewBounds(0, 0, 1, 1)
		if have {
			u = tiles.NewBounds(minX, minY, maxX, maxY)
		}
		box = &u
		for _, st := range shards {
			st.TileBox = box
		}
	}
	r.tileBox = *box
	r.boxes = make([]tiles.Rect, len(shards))
	r.boxOK = make([]bool, len(shards))

	nextDoc := int64(0)
	for i, st := range shards {
		if st.VocabSize != first.VocabSize {
			return nil, fmt.Errorf("serve: shard %d vocabulary %d differs from shard 0's %d", i, st.VocabSize, first.VocabSize)
		}
		r.boxes[i], r.boxOK[i] = st.DataBounds()
		srv, err := newServer(st, cfg)
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		set, err := newReplicaSet(srv, cfg.Replicas, cfg)
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		r.sets[i] = set
		r.shardDF[i] = st.DF
		r.liveDF[i] = make(map[int64]int64)
		for t, d := range st.DF {
			r.df[t] += d
		}
		r.totalDocs += st.TotalDocs
		// A shard loaded with live segments (a persisted live set) feeds its
		// segment DF summaries into the router tables, exactly as if the
		// adds had routed through this router.
		v := st.viewNow()
		for _, seg := range v.segs {
			for t, c := range seg.Posts.Count {
				if c > 0 {
					r.liveDF[i][int64(t)] += c
					r.df[t] += c
				}
			}
		}
		// Document IDs are global: the next ID is the highest mark any shard
		// records (base bound, segment maxes, or a persisted high-water mark
		// covering IDs whose data was deleted and compacted away). Counting
		// surviving docs instead would re-assign retired IDs.
		if next := st.NextDocID(); next > nextDoc {
			nextDoc = next
		}
	}
	r.nextDoc.Store(nextDoc)
	return r, nil
}

// termID resolves a query term against the replicated vocabulary, folded
// exactly like the tokenizer (and Store.TermID).
func (r *Router) termID(term string) (int64, bool) {
	return r.vocab.lookupTerm(scan.NormalizeTerm(term))
}

// NumShards returns the partition count.
func (r *Router) NumShards() int { return len(r.sets) }

// Shard returns shard i's replica-0 server, for inspection.
func (r *Router) Shard(i int) *Server { return r.sets[i].reps[0].Server() }

// primaryStore returns shard i's current primary store (the first live
// replica's — the write-order source).
func (r *Router) primaryStore(i int) *Store { return r.sets[i].primary().store() }

// NewQuerier opens a routed session behind the Service surface.
func (r *Router) NewQuerier() Querier { return r.NewSession() }

// NewSession opens a routed analyst session: one sub-session per shard
// replica. Like Session, a RouterSession's methods must be called from one
// goroutine at a time; distinct sessions are fully concurrent (hedged
// sub-queries inside one interaction serialize per replica on the sub's own
// lock).
func (r *Router) NewSession() *RouterSession {
	subs := make([][]*replicaSub, len(r.sets))
	for i, set := range r.sets {
		subs[i] = make([]*replicaSub, len(set.reps))
		for j, rep := range set.reps {
			srv := rep.Server()
			subs[i][j] = &replicaSub{rep: rep, srv: srv, sess: srv.NewSession()}
		}
	}
	return &RouterSession{r: r, ID: r.nextSession.Add(1), subs: subs}
}

// Stats aggregates the shard primaries' cache/traffic/ingest counters and
// adds the router's fan-out and replication blocks. Queries counts routed
// interactions; the shard sub-queries they scattered into are ShardQueries.
// Only the current primary of each set is counted — replicas share the write
// stream, so summing them would multiply the ingest counters.
func (r *Router) Stats() Stats {
	var out Stats
	for _, set := range r.sets {
		st := set.primary().Server().Stats()
		out.PostingHits += st.PostingHits
		out.PostingMisses += st.PostingMisses
		out.PostingEvictions += st.PostingEvictions
		out.Coalesced += st.Coalesced
		out.PartialFetches += st.PartialFetches
		out.BlocksDecoded += st.BlocksDecoded
		out.BlocksSkipped += st.BlocksSkipped
		out.SegmentFetches += st.SegmentFetches
		out.BitmapAnds += st.BitmapAnds
		out.BitmapProbes += st.BitmapProbes
		out.BitmapServes += st.BitmapServes
		out.SimRefreshes += st.SimRefreshes
		out.SimScored += st.SimScored
		out.SimPruned += st.SimPruned
		out.TileHits += st.TileHits
		out.TileMisses += st.TileMisses
		out.TilesPruned += st.TilesPruned
		out.Adds += st.Adds
		out.Deletes += st.Deletes
		out.Seals += st.Seals
		out.Compactions += st.Compactions
		out.ResidentPinnedBytes += st.ResidentPinnedBytes
		out.ResidentMappedBytes += st.ResidentMappedBytes
		out.PinDenials += st.PinDenials
	}
	out.Queries = r.queries.Load()
	out.FanOuts = r.fanOuts.Load()
	out.ShardQueries = r.shardQueries.Load()
	out.ShardsPruned = r.shardsPruned.Load()
	out.ShortCircuits = r.shortCircuits.Load()
	out.SimHits = r.simHits.Load()
	out.SimMisses = r.simMisses.Load()
	out.SimEvictions = r.simEvictions.Load()
	out.Hedges = r.hedges.Load()
	out.HedgeWins = r.hedgeWins.Load()
	out.Failovers = r.failovers.Load()
	out.ReplicaCatchUps = r.catchUps.Load()
	out.CatchUpSegments = r.catchUpSegs.Load()
	out.CatchUpBytes = r.catchUpBytes.Load()
	return out
}

// TopTerms ranks the global (shard-summed plus ingested) document
// frequencies.
func (r *Router) TopTerms(ctx context.Context, n int) []string {
	if ctx.Err() != nil {
		return nil
	}
	r.dfMu.RLock()
	df := append([]int64(nil), r.df...)
	r.dfMu.RUnlock()
	return topTerms(df, r.termList, n)
}

// globalDF reads one term's replicated global DF.
func (r *Router) globalDF(t int64) int64 {
	r.dfMu.RLock()
	defer r.dfMu.RUnlock()
	return r.df[t]
}

// SampleDocs merges the shards' deterministic similarity targets in
// ascending document order.
func (r *Router) SampleDocs(ctx context.Context, n int) []int64 {
	if ctx.Err() != nil {
		return nil
	}
	parts := make([][]int64, len(r.sets))
	for i, set := range r.sets {
		parts[i] = set.primary().Server().SampleDocs(ctx, n)
	}
	out := mergeDocs(parts)
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// TotalDocs returns the document count across all shards.
func (r *Router) TotalDocs() int64 { return r.totalDocs }

// NumThemes returns the k-means cluster count of the producing run.
func (r *Router) NumThemes() int { return r.k }

// Themes returns the discovered themes (replicated to every shard).
func (r *Router) Themes() []core.Theme { return r.themes }

// --- RouterSession --------------------------------------------------------

// RouterSession is one analyst's connection through the router: a sequential
// stream of interactions. It holds one sub-session per shard replica so
// shard-side work is cached and coalesced exactly like directly-served
// sessions.
type RouterSession struct {
	r    *Router
	ID   int64
	subs [][]*replicaSub // [shard][replica]

	// filter is the session's sticky metadata predicate (SetFilter). The
	// shards partition the document space, so per-shard filtering commutes
	// with the disjoint gather merges; scatter closures push the filter onto
	// each sub-session before issuing the sub-query.
	filter Filter

	// Scatter scratch reused across interactions. A routed session is a
	// sequential stream (one goroutine at a time), and every gather merge
	// copies into a fresh output slice — so nothing scratch-backed escapes
	// an interaction.
	scratchShards []int
	scratchIDs    []int64
}

// replicaSub is one session's connection to one replica. Its lock serializes
// the replica's sub-session (a Session is one-goroutine-at-a-time, but a
// hedge can race a sibling attempt on the same interaction, and a hedge
// loser can outlive its interaction); the srv field detects a full-resync
// server swap, reopening the session on the fresh server.
type replicaSub struct {
	rep  *Replica
	mu   sync.Mutex
	srv  *Server
	sess *Session
}

// session returns the sub's current session; callers hold sub.mu.
func (sub *replicaSub) session() *Session {
	if srv := sub.rep.Server(); srv != sub.srv {
		sub.srv, sub.sess = srv, srv.NewSession()
	}
	return sub.sess
}

// SetFilter installs (or, with the zero Filter, clears) the session's sticky
// metadata predicate. Later query interactions return only matching
// documents, with exactly the answers the unfiltered query would return
// minus the non-matching documents — identical to a filtered single-store
// session over the unsharded corpus.
func (rs *RouterSession) SetFilter(f Filter) error {
	nf, err := f.normalized()
	if err != nil {
		return err
	}
	rs.filter = nf
	return nil
}

// applyFilterHits post-filters a merged top-K hit list against the session
// filter at the router, resolving each hit's metadata from its owning
// shard's primary — the per-shard scans stay unfiltered so the merged cache
// entry serves every session, filtered or not. Returns the kept hits (a
// fresh slice; the input is never mutated).
func (rs *RouterSession) applyFilterHits(hits []query.Hit) []query.Hit {
	if rs.filter.Empty() {
		return hits
	}
	r := rs.r
	kept := make([]query.Hit, 0, len(hits))
	for _, h := range hits {
		st := r.primaryStore(ShardOf(h.Doc, len(r.sets)))
		ts, facets := st.viewNow().docMeta(h.Doc)
		if rs.filter.timeOK(ts) && facetSubset(rs.filter.Facets, facets) {
			kept = append(kept, h)
		}
	}
	return kept
}

// attemptOut is one replica attempt's outcome inside a scatter.
type attemptOut[T any] struct {
	val   T
	ok    bool
	hedge bool
}

// scatterQ fans one sub-interaction out to the listed shards and gathers the
// typed replies in ids order. The shard sub-queries run in parallel, one
// goroutine each. Each shard's sub-query runs on a live replica picked by
// power-of-two-choices over in-flight depth, hedges to a second replica past
// the set's hedge delay, and fails over when a replica dies mid-flight. fn
// must issue exactly one interaction on the sub-session it is handed.
//
// A free function, not a method: Go methods cannot take type parameters, and
// the per-shard winner-takes-result channel is what lets hedged attempts
// race without two goroutines ever writing one results slot.
func scatterQ[T any](ctx context.Context, rs *RouterSession, ids []int,
	fn func(ctx context.Context, shard int, sub *Session) T) []T {
	r := rs.r
	r.fanOuts.Add(1)
	r.shardQueries.Add(uint64(len(ids)))
	r.shardsPruned.Add(uint64(len(r.sets) - len(ids)))
	results := make([]T, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i, id int) {
			defer wg.Done()
			results[i] = replicaRead(ctx, rs, id, fn).val
		}(i, id)
	}
	wg.Wait()
	return results
}

// replicaRead runs one shard sub-query against the shard's replica set:
// first attempt on the P2C-picked live replica, a hedged second attempt past
// the hedge delay, failover to untried live replicas when an attempt comes
// back failed, and — when every replica is dead — a forced read of replica 0
// (a stale answer beats none; the primary-ordered write path guarantees a
// live replica is never stale). The winner's reply is the answer; losers
// finish on their own sub locks and are discarded.
func replicaRead[T any](ctx context.Context, rs *RouterSession, shard int,
	fn func(ctx context.Context, shard int, sub *Session) T) attemptOut[T] {
	subs := rs.subs[shard]
	set := rs.r.sets[shard]

	attempt := func(sub *replicaSub, force bool) (out attemptOut[T]) {
		rep := sub.rep
		rep.inflight.Add(1)
		defer rep.inflight.Add(-1)
		sub.mu.Lock()
		defer sub.mu.Unlock()
		if !force && !rep.live() {
			return out
		}
		if d := rep.stallNS.Load(); d > 0 {
			t := time.NewTimer(time.Duration(d))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return out
			}
		}
		out.val = fn(ctx, shard, sub.session())
		// A kill that landed while the attempt ran means the reply may be
		// from a half-dead replica: discard and let the caller fail over.
		out.ok = force || (rep.live() && ctx.Err() == nil)
		return out
	}

	if len(subs) == 1 {
		// Unreplicated: the pre-replication fast path, no channel or timer.
		return attempt(subs[0], true)
	}

	ch := make(chan attemptOut[T], len(subs))
	tried := make([]bool, len(subs))
	pending := 0
	launch := func(i int, hedge bool) bool {
		if i < 0 {
			return false
		}
		tried[i] = true
		pending++
		go func() {
			out := attempt(subs[i], false)
			out.hedge = hedge
			ch <- out
		}()
		return true
	}
	launch(set.pick(tried), false)
	var hedgeC <-chan time.Time
	if set.hedge > 0 {
		t := time.NewTimer(set.hedge)
		defer t.Stop()
		hedgeC = t.C
	}
	for pending > 0 {
		select {
		case out := <-ch:
			pending--
			if out.ok {
				if out.hedge {
					rs.r.hedgeWins.Add(1)
				}
				return out
			}
			if launch(set.pick(tried), false) {
				rs.r.failovers.Add(1)
			}
		case <-hedgeC:
			hedgeC = nil
			if launch(set.pick(tried), true) {
				rs.r.hedges.Add(1)
			}
		case <-ctx.Done():
			return attemptOut[T]{}
		}
	}
	return attempt(subs[0], true)
}

// liveShards returns the shards whose DF summary — base or live overlay —
// admits the term, written over dst[:0].
func (r *Router) liveShards(dst []int, t int64) []int {
	r.dfMu.RLock()
	defer r.dfMu.RUnlock()
	out := dst[:0]
	for i := range r.sets {
		if r.shardDF[i][t] > 0 || r.liveDF[i][t] > 0 {
			out = append(out, i)
		}
	}
	return out
}

// andShards returns the shards whose DF summaries admit every term — a
// document can only satisfy a conjunction on a shard holding postings for
// all of them. Written over dst[:0].
func (r *Router) andShards(dst []int, ids []int64) []int {
	r.dfMu.RLock()
	defer r.dfMu.RUnlock()
	out := dst[:0]
	for i := range r.sets {
		all := true
		for _, t := range ids {
			if r.shardDF[i][t] == 0 && r.liveDF[i][t] == 0 {
				all = false
				break
			}
		}
		if all {
			out = append(out, i)
		}
	}
	return out
}

// orShards returns the shards where at least one term may have postings,
// written over dst[:0].
func (r *Router) orShards(dst []int, ids []int64) []int {
	r.dfMu.RLock()
	defer r.dfMu.RUnlock()
	out := dst[:0]
	for i := range r.sets {
		for _, t := range ids {
			if r.shardDF[i][t] > 0 || r.liveDF[i][t] > 0 {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// epochSum sums the shard primaries' serving epochs; it strictly grows on
// every published change anywhere in the set, so it versions the router's
// merged similarity cache. Primaries, not replica 0: a dead replica's epoch
// is frozen, and a frozen summand would let the cache serve stale merges
// after writes land on the survivors.
func (r *Router) epochSum() uint64 {
	var sum uint64
	for _, set := range r.sets {
		sum += set.primary().store().viewNow().epoch
	}
	return sum
}

// allShards lists every shard, for interactions partitioning cannot prune.
// Written over dst[:0].
func (r *Router) allShards(dst []int) []int {
	out := dst[:0]
	for i := range r.sets {
		out = append(out, i)
	}
	return out
}

// TermDocs returns the posting list of a term across all shards (sorted by
// document ID), or nil when the term is unknown — answered at the router
// with no fan-out, like any term absent from every shard's DF summary.
func (rs *RouterSession) TermDocs(ctx context.Context, term string) []query.Posting {
	if ctx.Err() != nil {
		return nil
	}
	r := rs.r
	r.queries.Add(1)
	t, ok := r.termID(term)
	if !ok || r.globalDF(t) == 0 {
		r.shortCircuits.Add(1)
		return nil
	}
	live := r.liveShards(rs.scratchShards[:0], t)
	rs.scratchShards = live
	parts := scatterQ(ctx, rs, live,
		func(ctx context.Context, shard int, sub *Session) []query.Posting {
			_ = sub.SetFilter(rs.filter)
			return sub.TermDocs(ctx, term)
		})
	return mergePostings(parts)
}

// DF returns a term's global document frequency (0 when absent) — a
// router-local read of the replicated shard-summed DF vector (live ingests
// included), never a fan-out. Like the single-store DF, deleted documents
// stay counted until their postings are actually dropped.
func (rs *RouterSession) DF(ctx context.Context, term string) int64 {
	if ctx.Err() != nil {
		return 0
	}
	r := rs.r
	r.queries.Add(1)
	t, ok := r.termID(term)
	if !ok {
		return 0
	}
	return r.globalDF(t)
}

// And returns the documents containing every term, sorted by document ID.
// The router resolves every term against its replicated vocabulary and DF
// first — an unknown or globally-empty term dooms the conjunction with no
// fan-out at all — then scatters only to shards whose DF summary is non-zero
// for every term: a document can only satisfy the conjunction on a shard
// holding postings for all of them. Each shard runs its own rarest-first
// block-skipping intersection.
func (rs *RouterSession) And(ctx context.Context, terms ...string) []int64 {
	if ctx.Err() != nil || len(terms) == 0 {
		return nil
	}
	r := rs.r
	r.queries.Add(1)
	ids := rs.scratchIDs[:0]
	for _, term := range terms {
		t, ok := r.termID(term)
		if !ok || r.globalDF(t) == 0 {
			r.shortCircuits.Add(1)
			rs.scratchIDs = ids[:0]
			return nil
		}
		ids = append(ids, t)
	}
	rs.scratchIDs = ids
	live := r.andShards(rs.scratchShards[:0], ids)
	rs.scratchShards = live
	if len(live) == 0 {
		r.shortCircuits.Add(1)
		return nil
	}
	parts := scatterQ(ctx, rs, live,
		func(ctx context.Context, shard int, sub *Session) []int64 {
			_ = sub.SetFilter(rs.filter)
			return sub.And(ctx, terms...)
		})
	out := mergeDocs(parts)
	if len(out) == 0 {
		return nil
	}
	return out
}

// Or returns the documents containing any of the terms, sorted. Shards where
// no query term has postings are pruned; if that is every shard, the router
// answers empty with no fan-out.
func (rs *RouterSession) Or(ctx context.Context, terms ...string) []int64 {
	if ctx.Err() != nil {
		return nil
	}
	r := rs.r
	r.queries.Add(1)
	ids := rs.scratchIDs[:0]
	for _, term := range terms {
		if t, ok := r.termID(term); ok && r.globalDF(t) > 0 {
			ids = append(ids, t)
		}
	}
	rs.scratchIDs = ids
	live := r.orShards(rs.scratchShards[:0], ids)
	rs.scratchShards = live
	if len(live) == 0 {
		r.shortCircuits.Add(1)
		return []int64{} // query.Engine.Or returns an empty, non-nil union
	}
	parts := scatterQ(ctx, rs, live,
		func(ctx context.Context, shard int, sub *Session) []int64 {
			_ = sub.SetFilter(rs.filter)
			return sub.Or(ctx, terms...)
		})
	out := mergeDocs(parts)
	if out == nil {
		out = []int64{}
	}
	return out
}

// Similar returns the k documents most similar to the target document's
// knowledge signature across all shards, consulting the router's merged
// result cache. On a miss the target vector is fetched from its owning shard
// (modulo routing locates it without a lookup round), every shard scores its
// own signature slice against it in parallel, and the per-shard top-K lists
// k-way merge into the global top-K — identical to the single-store answer.
func (rs *RouterSession) Similar(ctx context.Context, doc int64, k int) ([]query.Hit, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("serve: similar: k must be positive")
	}
	r := rs.r
	r.queries.Add(1)
	// The merged-answer cache versions itself on the sum of the shard
	// epochs: any seal, delete or signature swap anywhere in the set moves
	// the sum, so stale merges age out like single-store entries.
	key := simKey{epoch: r.epochSum(), doc: doc, k: k}
	r.smu.Lock()
	hits, ok := r.sims.get(key)
	r.smu.Unlock()
	if ok {
		r.simHits.Add(1)
		return rs.applyFilterHits(hits), nil
	}
	r.simMisses.Add(1)

	owner := 0
	if doc >= 0 {
		owner = ShardOf(doc, len(r.sets))
	}
	// The target signature comes from the owner's primary — a dead replica's
	// frozen slice could miss a signature swap the survivors published.
	target, found := r.sets[owner].primary().Server().signature(doc)
	if !found || target == nil {
		return nil, fmt.Errorf("serve: document %d not found or has a null signature", doc)
	}
	all := r.allShards(rs.scratchShards[:0])
	rs.scratchShards = all
	parts := scatterQ(ctx, rs, all,
		func(ctx context.Context, shard int, sub *Session) []query.Hit {
			// The shard scans stay unfiltered (the merged answer is cached for
			// every session); clear any filter an earlier routed query pushed.
			_ = sub.SetFilter(Filter{})
			return sub.similarTo(target, doc, k)
		})
	hits = mergeHits(parts, k)

	// The shards resolved their views after the key's sum was read, so under
	// concurrent ingest the merged answer can reflect newer epochs than the
	// key claims. Cache only when the sum is unchanged — every published
	// change strictly grows it, so equality means no shard moved.
	if r.epochSum() == key.epoch {
		r.smu.Lock()
		if _, evicted := r.sims.add(key, hits); evicted {
			r.simEvictions.Add(1)
		}
		r.smu.Unlock()
	}
	// The cache holds the unfiltered merge; the session's filter applies to
	// a copy after the add, exactly like the single-store session.
	return rs.applyFilterHits(hits), nil
}

// ThemeDocs returns the document IDs assigned to a k-means cluster, sorted —
// every shard holds its own documents' assignments, so the drill-down fans
// out everywhere and merges.
func (rs *RouterSession) ThemeDocs(ctx context.Context, cluster int) []int64 {
	if ctx.Err() != nil {
		return nil
	}
	r := rs.r
	r.queries.Add(1)
	all := r.allShards(rs.scratchShards[:0])
	rs.scratchShards = all
	parts := scatterQ(ctx, rs, all,
		func(ctx context.Context, shard int, sub *Session) []int64 {
			_ = sub.SetFilter(rs.filter)
			return sub.ThemeDocs(ctx, cluster)
		})
	return mergeDocs(parts)
}

// Add ingests one document through the router: tokenized and
// signature-projected once at the router against the replicated vocabulary
// and projection, assigned the next global document ID, and routed to shard
// ID mod S. The router folds the document's terms into its replicated DF
// tables so later pruning sees them.
func (rs *RouterSession) Add(ctx context.Context, text string) (int64, error) {
	return rs.AddDoc(ctx, text, 0, nil)
}

// AddDoc ingests one document with its metadata (Unix-seconds timestamp,
// "key=value" facets) through the routed write path; the metadata lands on
// the owning shard alongside the postings.
func (rs *RouterSession) AddDoc(ctx context.Context, text string, ts int64, facets []string) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	nf, err := normalizeFacets(facets)
	if err != nil {
		return 0, err
	}
	r := rs.r
	r.queries.Add(1)
	st := r.vocab
	counts, sig := st.prepareDoc(text)
	doc := r.nextDoc.Add(1) - 1
	shard := ShardOf(doc, len(r.sets))
	// Fold the document's terms into the replicated DF tables before the
	// shard append: AddCounts may seal and publish the batch, and a query
	// pruned by a still-zero summary in that window would miss documents
	// already visible on the shard. Folding first only ever over-admits a
	// fan-out, which is safe (deletes leave the tables overcounted too).
	r.dfMu.Lock()
	for t := range counts {
		r.liveDF[shard][t]++
		r.df[t]++
	}
	r.dfMu.Unlock()
	// Grow the shard's data bounding box to cover where the document will
	// land on the plane (its seal places it there), so spatial pruning
	// stays conservative for ingested documents. Growing before the append
	// only ever over-admits a fan-out, which is safe.
	if pl := st.Planar; pl != nil {
		px, py := pl.Project(sig)
		r.expandBox(shard, px, py)
	}
	err = r.sets[shard].apply(func(s *Store) error {
		return s.AddCountsMeta(doc, counts, sig, ts, nf)
	})
	if err != nil {
		r.dfMu.Lock()
		for t := range counts {
			r.liveDF[shard][t]--
			r.df[t]--
		}
		r.dfMu.Unlock()
		return 0, err
	}
	return doc, nil
}

// Delete tombstones a document on its owning shard (ID mod S). The
// replicated DF tables are left alone — deleted documents stay counted until
// an offline rebase, which only ever over-admits a shard to a fan-out.
func (rs *RouterSession) Delete(ctx context.Context, doc int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r := rs.r
	if doc < 0 {
		return fmt.Errorf("serve: delete: unknown document %d", doc)
	}
	r.queries.Add(1)
	return r.sets[ShardOf(doc, len(r.sets))].apply(func(s *Store) error {
		return s.Delete(doc)
	})
}

// FlushLive makes pending adds visible on every shard, sealing every live
// replica's delta through the set's ordered write path.
func (r *Router) FlushLive(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, set := range r.sets {
		if err := set.apply((*Store).Flush); err != nil {
			return fmt.Errorf("serve: flush shard %d: %w", i, err)
		}
	}
	return nil
}

// CompactLive merges sealed segments on every shard (every live replica —
// compaction is answer-invariant, so replicas may also compact on their own
// schedules).
func (r *Router) CompactLive(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, set := range r.sets {
		if err := set.apply((*Store).Compact); err != nil {
			return fmt.Errorf("serve: compact shard %d: %w", i, err)
		}
	}
	return nil
}

// SaveLive persists the whole live set: pending adds flushed, compaction
// drained, then every shard primary's base store, sealed segments and
// tombstones written behind an extended (INSPSHARDS2) manifest at path.
func (r *Router) SaveLive(ctx context.Context, path string) error {
	if err := r.FlushLive(ctx); err != nil {
		return err
	}
	stores := make([]*Store, len(r.sets))
	for i := range r.sets {
		st := r.primaryStore(i)
		st.WaitCompaction()
		stores[i] = st
	}
	return SaveLiveSet(path, stores)
}

// Near returns the documents whose ThemeView projection falls within radius
// of (x, y), sorted, gathered from the shards whose data bounding box
// intersects the query box — a shard none of whose points can fall inside
// it is never asked.
func (rs *RouterSession) Near(ctx context.Context, x, y, radius float64) []int64 {
	if ctx.Err() != nil {
		return nil
	}
	r := rs.r
	r.queries.Add(1)
	rad := math.Abs(radius)
	live := r.tileShards(r.cfg.tileConfig().MaxZoom,
		tiles.Rect{MinX: x - rad, MinY: y - rad, MaxX: x + rad, MaxY: y + rad})
	if len(live) == 0 {
		r.shortCircuits.Add(1)
		return nil
	}
	parts := scatterQ(ctx, rs, live,
		func(ctx context.Context, shard int, sub *Session) []int64 {
			_ = sub.SetFilter(rs.filter)
			return sub.Near(ctx, x, y, radius)
		})
	return mergeDocs(parts)
}

// --- gather merges --------------------------------------------------------

// mergeSorted k-way merges per-shard lists that are each sorted under less,
// emitting at most limit items (limit < 0 = all). A linear selection scan
// per item is right for the handful of shards a router fronts. nil when
// nothing merges.
func mergeSorted[T any](parts [][]T, less func(a, b T) bool, limit int) []T {
	var total int
	for _, p := range parts {
		total += len(p)
	}
	if limit >= 0 && total > limit {
		total = limit
	}
	if total == 0 {
		return nil
	}
	out := make([]T, 0, total)
	// The cursor vector lives on the stack for any realistic shard count, so
	// a gather merge costs exactly one allocation: the output it returns.
	var posBuf [16]int
	pos := posBuf[:]
	if len(parts) > len(posBuf) {
		pos = make([]int, len(parts))
	}
	for len(out) < total {
		best := -1
		for i, p := range parts {
			if pos[i] >= len(p) {
				continue
			}
			if best < 0 || less(p[pos[i]], parts[best][pos[best]]) {
				best = i
			}
		}
		out = append(out, parts[best][pos[best]])
		pos[best]++
	}
	return out
}

// mergeByDoc is mergeSorted for lists that ascend by an int64 document key:
// each part's head key is cached in a stack array, so choosing the next item
// compares integers instead of calling a less closure per part, and doc runs
// once per item emitted. Equal keys keep part order. nil when nothing
// merges.
func mergeByDoc[T any](parts [][]T, doc func(T) int64) []T {
	var total int
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	out := make([]T, 0, total)
	// The live (non-exhausted) parts and their head keys stay on the stack
	// for any realistic shard count: one allocation, the output.
	var restBuf [16][]T
	var headBuf [16]int64
	rest, heads := restBuf[:0], headBuf[:0]
	if len(parts) > len(restBuf) {
		rest, heads = make([][]T, 0, len(parts)), make([]int64, 0, len(parts))
	}
	for _, p := range parts {
		if len(p) > 0 {
			rest, heads = append(rest, p), append(heads, doc(p[0]))
		}
	}
	for len(rest) > 1 {
		best := 0
		for i := 1; i < len(heads); i++ {
			if heads[i] < heads[best] {
				best = i
			}
		}
		p := rest[best]
		out = append(out, p[0])
		if len(p) > 1 {
			rest[best], heads[best] = p[1:], doc(p[1])
			continue
		}
		rest = append(rest[:best], rest[best+1:]...)
		heads = append(heads[:best], heads[best+1:]...)
	}
	if len(rest) == 1 {
		out = append(out, rest[0]...)
	}
	return out
}

// mergeDocs k-way merges ascending document lists (pairwise disjoint when
// they come from shards, which partition the document space).
func mergeDocs(parts [][]int64) []int64 {
	return mergeByDoc(parts, func(d int64) int64 { return d })
}

// mergePostings k-way merges doc-sorted, disjoint posting lists.
func mergePostings(parts [][]query.Posting) []query.Posting {
	return mergeByDoc(parts, func(p query.Posting) int64 { return p.Doc })
}

// mergeHits k-way merges per-shard top-K hit lists (each in query.HitLess
// order, as every shard emits them) and keeps the global top k.
func mergeHits(parts [][]query.Hit, k int) []query.Hit {
	return mergeSorted(parts, query.HitLess, k)
}

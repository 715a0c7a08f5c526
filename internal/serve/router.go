package serve

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"inspire/internal/core"
	"inspire/internal/postings"
	"inspire/internal/query"
	"inspire/internal/scan"
	"inspire/internal/tiles"
)

// Router serves analyst sessions over a document-partitioned shard set — the
// scatter-gather front-end over one Server per shard (each with its own
// posting/similarity caches and coalescing). The router resolves terms
// against the replicated vocabulary, prunes fan-out with each shard's
// current DF summaries (a shard whose DF is zero for a query's terms is
// never asked), runs the shard sub-queries in parallel, and k-way merges the
// per-shard answers. Queries whose terms are unknown or absent from every
// shard short-circuit at the router without any fan-out.
//
// Live ingestion routes through the router too: an add is tokenized and
// signature-projected once at the router (the vocabulary and projection are
// replicated), assigned the next global document ID, and shipped to shard
// ID mod S. Deletes route to the owning shard by the same rule. The router
// keeps no DF of its own: a shard's seal publishes a document and its DF in
// the same view, so pruning reads each shard primary's view.
type Router struct {
	// sets holds one replica group per logical shard (Config.Replicas
	// servers each; one without replication). Reads pick a live replica
	// per sub-query; writes apply to every live replica in order.
	sets []*ReplicaSet
	cfg  Config

	// The replicated query vocabulary: vocab resolves terms through shard
	// 0's store, so mapped stores binary-search their dictionary section
	// instead of needing a heap map. Immutable.
	vocab    *Store
	termList []string

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
		r.totalDocs += st.TotalDocs
		// Document IDs are global: the next ID is the highest mark any shard
		// records (a rebased shard's covers IDs whose data was deleted).
		// Counting surviving docs instead would re-assign retired IDs.
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
	rs := &RouterSession{r: r, ID: r.nextSession.Add(1), subs: subs}
	rs.ex = rs
	return rs
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

// TopTerms ranks the global document frequencies: every shard primary's
// view, base and sealed segments, summed.
func (r *Router) TopTerms(ctx context.Context, n int) []string {
	if ctx.Err() != nil {
		return nil
	}
	df := make([]int64, len(r.termList))
	for i := range r.sets {
		for _, b := range r.primaryStore(i).viewNow().blocks {
			for t, c := range b.Posts.Count {
				df[t] += c
			}
		}
	}
	return topTerms(df, r.termList, n)
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
	out := mergeDocs(nil, parts)
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
// stream of Queries answered by Exec, with one sub-session per shard replica
// so shard-side work is cached and coalesced like a direct session's.
type RouterSession struct {
	querier
	r    *Router
	ID   int64
	subs [][]*replicaSub // [shard][replica]

	// ans holds the buffers the last merged answer was written into,
	// borrowed for one request (see answer).
	ans lender

	// Per-interaction scratch (a session is one goroutine at a time): sub is
	// the shard query of the scatter in flight, key the similarity cache key
	// from plan to merge, parts, errs and loans the scatter's per-shard
	// outcomes (loans holds the buffers each part is written in),
	// scratchDocs and scratchPosts the gathered answers a merge reads,
	// scratchBits and scratchRanks the word array dense merges union through
	// and its per-word ranks (every merged answer is written into ans; no
	// scratch escapes).
	scratchShards []int
	scratchIDs    []int64
	scratchDocs   [][]int64
	scratchPosts  [][]query.Posting
	scratchBits   postings.Bits
	scratchRanks  []int
	parts         []Result
	errs          []error
	loans         []*answer
	reads         []*shardRead
	wg            sync.WaitGroup
	sub           Query
	key           simKey
}

// shardRead is one scatter slot a goroutine of its own reads: run is bound
// once per session, so starting the goroutine allocates nothing.
type shardRead struct {
	ctx   context.Context
	i, id int
	run   func()
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

// Release puts back the buffers the last merged answer was borrowed from.
func (rs *RouterSession) Release() { rs.ans.release() }

// Exec answers one query over the shard set in one pipeline driven by the
// op's entry in routes: resolve and prune (or answer at the router with no
// fan-out), scatter the shard half, merge the parts. The filter travels in
// the query; the shards partition the documents, so per-shard filtering
// commutes with the merges. A routed answer is complete or an error: a part
// lost to the context fails the query with the context's error. The merge
// reads the parts straight out of the shard sessions' borrowed buffers and
// hands those back as soon as it is done; the answer's Postings and Docs are
// valid until the next Exec or Release.
func (rs *RouterSession) Exec(ctx context.Context, q Query) (Result, error) {
	rs.ans.release()
	r := rs.r
	if skip, err := q.prepare(ctx, r.cfg.tileConfig()); skip || err != nil {
		return Result{}, err
	}
	rt := routes[q.Op]
	if rt.plan == nil {
		return Result{}, Errorf(ErrInvalid, "serve: op %d is a shard half, not a routed query", q.Op)
	}
	// Refused before they count: a routed add's facets (validated once, here)
	// and a delete of a negative document, which has no owner.
	var err error
	if q.Op == OpAdd {
		q.Facets, err = normalizeFacets(q.Facets)
	} else if q.Op == OpDelete && q.Doc < 0 {
		err = Errorf(ErrInvalid, "serve: delete: unknown document %d", q.Doc)
	}
	if err != nil {
		return Result{}, err
	}
	r.queries.Add(1)
	rs.sub = q
	shards, res, err := rt.plan(rs, q)
	if err != nil || shards == nil {
		return res, err
	}
	parts, err := rs.scatter(ctx, shards)
	if err != nil {
		return Result{}, err
	}
	res = rt.merge(rs, q, parts)
	rs.releaseParts()
	return res, nil
}

// route is how the router answers one Op: plan returns the shards to send
// rs.sub (q, unless plan rewrites it) or, with nil shards, the answer itself;
// merge folds the parts, in shard order, once every part arrived.
type route struct {
	plan  func(rs *RouterSession, q Query) (shards []int, res Result, err error)
	merge func(rs *RouterSession, q Query, parts []Result) Result
}

// routes is the router's per-op table; the shard halves have no entry.
var routes = [numOps]route{
	OpTerm:      {planAnd, mergePostingParts}, // a term query is a conjunction of one
	OpDF:        {planDF, nil},
	OpAnd:       {planAnd, mergeDocParts},
	OpOr:        {planOr, mergeUnionParts},
	OpSimilar:   {planSimilar, mergeSimilar},
	OpTheme:     {planEverywhere, mergeDocParts},
	OpNear:      {planNear, mergeDocParts},
	OpTile:      {planTile, mergeTile},
	OpTileRange: {planTileRange, mergeTileRange},
	OpAdd:       {planAdd, nil},
	OpDelete:    {planDelete, nil},
}

// shortCircuit answers at the router with no fan-out, counting it.
func (rs *RouterSession) shortCircuit(res Result) ([]int, Result, error) {
	rs.r.shortCircuits.Add(1)
	return nil, res, nil
}

// planDF sums the shard primaries' view DFs at the router: sealed ingests
// and, like the single-store DF, deleted documents until compaction or a
// rebase drops them.
func planDF(rs *RouterSession, q Query) ([]int, Result, error) {
	r := rs.r
	var res Result
	if t, ok := r.termID(q.Terms[0]); ok {
		for i := range r.sets {
			res.DF += r.primaryStore(i).viewNow().df(t)
		}
	}
	return nil, res, nil
}

// planAnd dooms a conjunction with an unknown term at the router, and
// otherwise asks only the shards whose DF summaries admit every term (none
// when a term is globally empty).
func planAnd(rs *RouterSession, q Query) ([]int, Result, error) {
	r := rs.r
	ids := rs.scratchIDs[:0]
	for _, term := range q.Terms {
		t, ok := r.termID(term)
		if !ok {
			rs.scratchIDs = ids[:0]
			return rs.shortCircuit(Result{})
		}
		ids = append(ids, t)
	}
	rs.scratchIDs = ids
	rs.scratchShards = r.termShards(rs.scratchShards, ids, true)
	if len(rs.scratchShards) == 0 {
		return rs.shortCircuit(Result{})
	}
	return rs.scratchShards, Result{}, nil
}

// planOr prunes the shards where no query term has postings; if that is
// every shard, the union is empty with no fan-out.
func planOr(rs *RouterSession, q Query) ([]int, Result, error) {
	r := rs.r
	ids := rs.scratchIDs[:0]
	for _, term := range q.Terms {
		if t, ok := r.termID(term); ok {
			ids = append(ids, t)
		}
	}
	rs.scratchIDs = ids
	rs.scratchShards = r.termShards(rs.scratchShards, ids, false)
	if len(rs.scratchShards) == 0 {
		return rs.shortCircuit(Result{Docs: []int64{}}) // query.Engine.Or returns an empty, non-nil union
	}
	return rs.scratchShards, Result{}, nil
}

// planSimilar consults the router's merged result cache. On a miss every
// shard scores its own signatures against the target's vector, fetched from
// its owner (ID mod S), unfiltered: the merge is cached for every session.
func planSimilar(rs *RouterSession, q Query) ([]int, Result, error) {
	r := rs.r
	// The merged-answer cache versions itself on the sum of the shard
	// epochs: any seal, delete or rebase anywhere in the set moves
	// the sum, so stale merges age out like single-store entries.
	rs.key = simKey{epoch: r.epochSum(), doc: q.Doc, k: q.K}
	r.smu.Lock()
	hits, ok := r.sims.get(rs.key)
	r.smu.Unlock()
	if ok {
		r.simHits.Add(1)
		return nil, Result{Hits: r.filterHits(hits, q.Filter)}, nil
	}
	r.simMisses.Add(1)
	owner := 0
	if q.Doc >= 0 {
		owner = ShardOf(q.Doc, len(r.sets))
	}
	// The target signature comes from the owner's primary — a dead replica's
	// frozen slice could miss a seal the survivors published.
	target, found := r.sets[owner].primary().store().viewNow().sigVec(q.Doc)
	if !found || target == nil {
		return nil, Result{}, errNoSignature(q.Doc)
	}
	rs.sub = Query{Op: opSimilarTo, Doc: q.Doc, K: q.K, target: target}
	rs.scratchShards = r.allShards(rs.scratchShards)
	return rs.scratchShards, Result{}, nil
}

func mergeSimilar(rs *RouterSession, q Query, parts []Result) Result {
	r := rs.r
	hits := mergeHits(gather(nil, parts, func(p *Result) []query.Hit { return p.Hits }), q.K)
	// The shards resolved their views after the key's sum was read, so under
	// concurrent ingest the merged answer can reflect newer epochs than the
	// key claims. Cache only when the sum is unchanged — every published
	// change strictly grows it, so equality means no shard moved.
	if r.epochSum() == rs.key.epoch {
		r.smu.Lock()
		if _, evicted := r.sims.add(rs.key, hits); evicted {
			r.simEvictions.Add(1)
		}
		r.smu.Unlock()
	}
	// The cache holds the unfiltered merge; the filter applies to a copy.
	return Result{Hits: r.filterHits(hits, q.Filter)}
}

// filterHits post-filters a merged top-K hit list against f at the router,
// resolving each hit's metadata from its owning shard's primary.
func (r *Router) filterHits(hits []query.Hit, f Filter) []query.Hit {
	if f.Empty() {
		return hits
	}
	return keepHits(hits, func(doc int64) bool {
		return r.primaryStore(ShardOf(doc, len(r.sets))).viewNow().matches(doc, f)
	})
}

// planEverywhere asks every shard: each holds its own documents' theme
// assignments, so a theme drill-down cannot be pruned.
func planEverywhere(rs *RouterSession, _ Query) ([]int, Result, error) {
	rs.scratchShards = rs.r.allShards(rs.scratchShards)
	return rs.scratchShards, Result{}, nil
}

// planNear asks the shards whose data bounding box intersects the query box
// — a shard none of whose points can fall inside it is never asked.
func planNear(rs *RouterSession, q Query) ([]int, Result, error) {
	r := rs.r
	rad := math.Abs(q.R)
	rs.scratchShards = r.rectShards(rs.scratchShards, r.cfg.tileConfig().MaxZoom,
		tiles.Rect{MinX: q.X - rad, MinY: q.Y - rad, MaxX: q.X + rad, MaxY: q.Y + rad})
	if len(rs.scratchShards) == 0 {
		return rs.shortCircuit(Result{})
	}
	return rs.scratchShards, Result{}, nil
}

// gather collects one field of every part, in shard order, over dst[:0]
// for a merge.
func gather[T any](dst []T, parts []Result, field func(*Result) T) []T {
	dst = room(dst, len(parts))
	for i := range parts {
		dst = append(dst, field(&parts[i]))
	}
	return dst
}

func mergePostingParts(rs *RouterSession, _ Query, parts []Result) Result {
	rs.scratchPosts = gather(rs.scratchPosts, parts, func(p *Result) []query.Posting { return p.Postings })
	a := rs.ans.borrow()
	a.posts = unionPostings(a.posts, &rs.scratchBits, &rs.scratchRanks, rs.scratchPosts)
	clear(rs.scratchPosts)
	return Result{Postings: nilIfEmpty(a.posts)}
}

func mergeDocParts(rs *RouterSession, _ Query, parts []Result) Result {
	rs.scratchDocs = gather(rs.scratchDocs, parts, func(p *Result) []int64 { return p.Docs })
	a := rs.ans.borrow()
	a.docs = unionSorted(a.docs, &rs.scratchBits, rs.scratchDocs)
	clear(rs.scratchDocs)
	return Result{Docs: nilIfEmpty(a.docs)}
}

func mergeUnionParts(rs *RouterSession, q Query, parts []Result) Result {
	res := mergeDocParts(rs, q, parts)
	if res.Docs == nil {
		res.Docs = []int64{}
	}
	return res
}

// planAdd ingests one document through the router: tokenized and
// signature-projected once at the router against the replicated vocabulary
// and projection, assigned the next global document ID, and routed with its
// metadata to shard ID mod S.
func planAdd(rs *RouterSession, q Query) ([]int, Result, error) {
	r := rs.r
	st := r.vocab
	counts, sig := st.prepareDoc(q.Text)
	doc := r.nextDoc.Add(1) - 1
	shard := ShardOf(doc, len(r.sets))
	// Grow the shard's data bounding box to cover where the document will
	// land on the plane (its seal places it there), so spatial pruning
	// stays conservative for ingested documents. Growing before the append
	// only ever over-admits a fan-out, which is safe.
	if pl := st.Planar; pl != nil {
		px, py := pl.Project(sig)
		r.expandBox(shard, px, py)
	}
	err := r.sets[shard].apply(func(s *Store) error {
		return s.AddCountsMeta(doc, counts, sig, q.TS, q.Facets)
	})
	if err != nil {
		return nil, Result{}, err
	}
	return nil, Result{Doc: doc}, nil
}

// planDelete tombstones a document on its owning shard (ID mod S). Its DF
// stays counted until compaction or a rebase drops its postings, which only
// ever over-admits the shard to a fan-out.
func planDelete(rs *RouterSession, q Query) ([]int, Result, error) {
	r := rs.r
	err := r.sets[ShardOf(q.Doc, len(r.sets))].apply(func(s *Store) error {
		return s.Delete(q.Doc)
	})
	return nil, Result{}, err
}

// attemptOut is one replica attempt's outcome inside a scatter. loan is the
// answer buffers res is written in, taken from the replica's session: a
// later attempt on that session — a hedge loser of an earlier interaction
// can start after this one finished — borrows its own instead of writing over
// them.
type attemptOut struct {
	res   Result
	err   error
	ok    bool
	hedge bool
	loan  *answer
}

// scatter runs rs.sub on the listed shards in parallel — the last on the
// calling goroutine, each other on its own — and gathers the parts in ids
// order into session scratch. The first part that failed — one the
// context's end kept from arriving is the context's error — fails the
// scatter. The parts are valid until releaseParts.
func (rs *RouterSession) scatter(ctx context.Context, ids []int) ([]Result, error) {
	r := rs.r
	r.fanOuts.Add(1)
	r.shardQueries.Add(uint64(len(ids)))
	r.shardsPruned.Add(uint64(len(r.sets) - len(ids)))
	n := len(ids)
	rs.parts = room(rs.parts, n)[:n]
	rs.errs = room(rs.errs, n)[:n]
	rs.loans = room(rs.loans, n)[:n]
	for len(rs.reads) < n-1 {
		sr := new(shardRead)
		sr.run = func() {
			defer rs.wg.Done()
			rs.readPart(sr.ctx, sr.i, sr.id)
		}
		rs.reads = append(rs.reads, sr)
	}
	for i, sr := range rs.reads[:n-1] {
		sr.ctx, sr.i, sr.id = ctx, i, ids[i]
		rs.wg.Add(1)
		go sr.run()
	}
	rs.readPart(ctx, n-1, ids[n-1])
	rs.wg.Wait()
	for _, sr := range rs.reads[:n-1] {
		sr.ctx = nil // the request's, not the session's
	}
	for _, err := range rs.errs {
		if err != nil {
			rs.releaseParts()
			return nil, err
		}
	}
	return rs.parts, nil
}

// readPart reads shard id's part into slot i of the scatter.
func (rs *RouterSession) readPart(ctx context.Context, i, id int) {
	out := rs.replicaRead(ctx, id)
	rs.parts[i], rs.errs[i], rs.loans[i] = out.res, out.err, out.loan
}

// releaseParts puts the buffers the parts were written in back in the pool,
// once the merge has copied them out, and drops the scatter's references.
func (rs *RouterSession) releaseParts() {
	for _, a := range rs.loans {
		putAnswer(a)
	}
	clear(rs.loans)
	clear(rs.parts)
	clear(rs.errs)
}

// attempt runs q on one replica under its sub lock. An attempt that is not
// forced comes back not ok when the replica is not live, or died or the
// context ended while it ran: the caller fails over.
func attempt(ctx context.Context, sub *replicaSub, q *Query, force bool) (out attemptOut) {
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
			out.err = ctx.Err()
			return out
		}
	}
	sess := sub.session()
	out.res, out.err = sess.Exec(ctx, *q)
	out.loan = sess.ans.take()
	// A kill that landed while the attempt ran means the reply may be from a
	// half-dead replica: discard and let the caller fail over.
	out.ok = force || (rep.live() && ctx.Err() == nil)
	return out
}

// replicaRead runs rs.sub on one shard's replica set: first attempt on the
// P2C-picked live replica, a hedged second attempt past the hedge delay,
// failover to untried live replicas when an attempt fails, and — when every
// replica is dead — a forced read of replica 0 (a stale answer beats none;
// the primary-ordered write path keeps a live replica current). The winner's
// reply is the answer; losers finish on their own sub locks, discarded, and
// their answer buffers are left to the collector.
func (rs *RouterSession) replicaRead(ctx context.Context, shard int) attemptOut {
	subs := rs.subs[shard]
	if len(subs) == 1 {
		// Unreplicated: the pre-replication fast path, no channel or timer.
		return attempt(ctx, subs[0], &rs.sub, true)
	}
	set := rs.r.sets[shard]
	// A loser can outlive the interaction: it must not share the terms the
	// session's next interaction writes over.
	q := rs.sub
	q.Terms = slices.Clone(q.Terms)
	ch := make(chan attemptOut, len(subs))
	tried := make([]bool, len(subs))
	pending := 0
	launch := func(i int, hedge bool) bool {
		if i < 0 {
			return false
		}
		tried[i] = true
		pending++
		go func() {
			out := attempt(ctx, subs[i], &q, false)
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
			return attemptOut{err: ctx.Err()}
		}
	}
	return attempt(ctx, subs[0], &q, true)
}

// termShards returns the shards whose primary's view DF admits every term
// (all) or at least one of them, written over dst[:0].
func (r *Router) termShards(dst []int, ids []int64, all bool) []int {
	out := dst[:0]
	for i := range r.sets {
		v := r.primaryStore(i).viewNow()
		n := 0
		for _, t := range ids {
			if v.df(t) > 0 {
				n++
			}
		}
		if n > 0 && (!all || n == len(ids)) {
			out = append(out, i)
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

// FlushLive makes pending adds visible on every shard, sealing every live
// replica's delta through the set's ordered write path.
func (r *Router) FlushLive(ctx context.Context) error {
	return r.applyAll(ctx, "flush", (*Store).Flush)
}

// CompactLive merges sealed segments on every shard (every live replica —
// compaction is answer-invariant, so replicas may also compact on their own
// schedules).
func (r *Router) CompactLive(ctx context.Context) error {
	return r.applyAll(ctx, "compact", (*Store).Compact)
}

// applyAll applies one maintenance write to every shard's replica set.
func (r *Router) applyAll(ctx context.Context, what string, fn func(*Store) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, set := range r.sets {
		if err := set.apply(fn); err != nil {
			return fmt.Errorf("serve: %s shard %d: %w", what, i, err)
		}
	}
	return nil
}

// SaveLive persists the whole live set the way Server.SaveLive persists one
// store: every shard is rebased in place (pending adds sealed, segments and
// tombstones folded into its base, the ID high water kept in GlobalDocs and
// the deleted IDs in Holes), then the primaries are written as a frozen set
// (SaveSet). Replicas rebase too; a dead one fully resyncs on revival.
func (r *Router) SaveLive(ctx context.Context, path string) error {
	if err := r.applyAll(ctx, "rebase", (*Store).Rebase); err != nil {
		return err
	}
	stores := make([]*Store, len(r.sets))
	for i := range r.sets {
		stores[i] = r.primaryStore(i)
	}
	return SaveSet(path, stores)
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

// mergeByDoc is mergeSorted for lists that ascend by an int64 document key,
// written over dst[:0]: each part's head key is cached in a stack array, so
// choosing the next item compares integers instead of calling a less
// closure per part, and doc runs once per item emitted. Equal keys keep part
// order.
func mergeByDoc[T any](dst []T, parts [][]T, doc func(T) int64) []T {
	var total int
	for _, p := range parts {
		total += len(p)
	}
	out := room(dst, total)
	// The live (non-exhausted) parts and their head keys stay on the stack
	// for any realistic shard count: at most one allocation, the output.
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
// they come from shards, which partition the document space) over dst[:0].
func mergeDocs(dst []int64, parts [][]int64) []int64 {
	return mergeByDoc(dst, parts, func(d int64) int64 { return d })
}

// mergePostings k-way merges doc-sorted, disjoint posting lists over dst[:0].
func mergePostings(dst []query.Posting, parts [][]query.Posting) []query.Posting {
	return mergeByDoc(dst, parts, func(p query.Posting) int64 { return p.Doc })
}

// unionPostings merges the shards' doc-sorted, pairwise-disjoint posting
// lists over dst[:0]. A dense answer goes through the word array b:
// every document's bit is set, ranks takes each word's count of documents
// below it, and each posting is stored straight at its rank — its word's
// rank plus the set bits under it in the word — so no step compares one
// part with another. A sparse answer, or parts holding a document twice
// (fewer bits than postings), take mergePostings.
func unionPostings(dst []query.Posting, b *postings.Bits, ranks *[]int, parts [][]query.Posting) []query.Posting {
	var n int64
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, p := range parts {
		if len(p) > 0 {
			n += int64(len(p))
			lo, hi = min(lo, p[0].Doc), max(hi, p[len(p)-1].Doc)
		}
	}
	if !postings.Dense(n, lo, hi) {
		return mergePostings(dst, parts)
	}
	b.Reset(lo, hi+1)
	words, base := b.Words, b.Base
	for _, p := range parts {
		for _, q := range p {
			off := q.Doc - base
			words[off>>6] |= 1 << uint(off&63)
		}
	}
	r := slices.Grow((*ranks)[:0], len(words))[:len(words)]
	*ranks = r
	c := 0
	for i, w := range words {
		r[i] = c
		c += bits.OnesCount64(w)
	}
	if int64(c) != n {
		return mergePostings(dst, parts)
	}
	out := room(dst, int(n))[:n]
	for _, p := range parts {
		for _, q := range p {
			off := q.Doc - base
			i := off >> 6
			out[r[i]+bits.OnesCount64(words[i]&(1<<uint(off&63)-1))] = q
		}
	}
	return out
}

// mergeHits k-way merges per-shard top-K hit lists (each in query.HitLess
// order, as every shard emits them) and keeps the global top k.
func mergeHits(parts [][]query.Hit, k int) []query.Hit {
	return mergeSorted(parts, query.HitLess, k)
}

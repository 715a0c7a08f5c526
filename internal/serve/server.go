package serve

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"inspire/internal/core"
	"inspire/internal/postings"
	"inspire/internal/query"
	"inspire/internal/segment"
	"inspire/internal/storefile"
	"inspire/internal/tiles"
)

// Config tunes the server. The zero value selects documented defaults.
type Config struct {
	// PostingCacheEntries bounds the LRU posting-list cache. Default 4096.
	PostingCacheEntries int
	// SimCacheEntries bounds the top-K similarity result cache. Default 512.
	SimCacheEntries int

	// TileMaxZoom is the deepest zoom level of the Galaxy tile pyramid
	// (levels 0..TileMaxZoom). Default 6.
	TileMaxZoom int
	// TileGrid is the per-tile density raster dimension; must be a power
	// of two. Default 8.
	TileGrid int
	// TileThemes is the number of top themes reported per tile. Default 4.
	TileThemes int
	// TileExemplars is the number of exemplar documents kept per tile.
	// Default 4.
	TileExemplars int
	// TileCacheEntries bounds the epoch-keyed tile result LRU. Default
	// 1024.
	TileCacheEntries int

	// MapBudgetBytes caps the heap bytes a mapped (INSPSTORE4) store may
	// pin for decoded posting lists; past it the cache stops admitting and
	// queries decode from the mapped pages per request. Default 512 MiB;
	// negative means unlimited. Heap-resident stores ignore it.
	MapBudgetBytes int64
	// NoMmap makes LoadServiceFile materialize INSPSTORE4 files to heap
	// instead of mapping them — the cmd/inspired -no-mmap escape hatch.
	NoMmap bool

	// Replicas is the per-shard replica count a Router maintains. Each
	// replica serves reads independently; writes apply to every live
	// replica in primary order. Default 1 (no replication).
	Replicas int
	// HedgeAfter is how long a routed read waits on its first replica
	// before hedging the sub-query to a second one (tail-latency cover
	// for a slow-but-alive replica). Zero selects the 1ms default;
	// negative disables hedging. Ignored without replication.
	HedgeAfter time.Duration
}

func (cfg Config) withDefaults() Config {
	if cfg.PostingCacheEntries <= 0 {
		cfg.PostingCacheEntries = 4096
	}
	if cfg.SimCacheEntries <= 0 {
		cfg.SimCacheEntries = 512
	}
	if cfg.TileThemes <= 0 {
		cfg.TileThemes = 4
	}
	if cfg.TileCacheEntries <= 0 {
		cfg.TileCacheEntries = 1024
	}
	if cfg.MapBudgetBytes == 0 {
		cfg.MapBudgetBytes = 512 << 20
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = time.Millisecond
	}
	return cfg
}

// Options configures NewService, the single construction entry point for the
// serving tier. Exactly one of Store (single-store Server) or Shards (sharded
// scatter-gather Router) must be set; Config tunes caches, tiles, replication
// and hedging for whichever is built.
type Options struct {
	// Store serves a single store behind a Server.
	Store *Store
	// Shards serves a sharded store set behind a Router. Mutually
	// exclusive with Store.
	Shards []*Store
	// Config tunes the serving tier; the zero value selects documented
	// defaults. Config.Replicas > 1 makes the Router replicate each shard.
	Config Config
}

// NewService builds the serving tier from Options: a Server over
// Options.Store, or a Router over Options.Shards (replicated per
// Config.Replicas). This replaces the positional NewServer/NewRouter
// constructors, which remain as deprecated wrappers.
func NewService(opts Options) (Service, error) {
	switch {
	case opts.Store != nil && len(opts.Shards) > 0:
		return nil, fmt.Errorf("serve: Options.Store and Options.Shards are mutually exclusive")
	case opts.Store != nil:
		if opts.Config.Replicas > 1 {
			// Replication lives in the Router's replica sets; a single
			// store replicates behind a one-shard router.
			return newRouter([]*Store{opts.Store}, opts.Config)
		}
		return newServer(opts.Store, opts.Config)
	case len(opts.Shards) > 0:
		return newRouter(opts.Shards, opts.Config)
	default:
		return nil, fmt.Errorf("serve: Options needs a Store or Shards")
	}
}

// Stats is a snapshot of the server-wide counters. The fan-out block is
// populated only by a Router over a sharded store set; a single-store Server
// leaves it zero. The ingest block counts live-ingestion activity on the
// underlying store(s).
type Stats struct {
	Queries uint64 // interactions served across all sessions

	PostingHits      uint64 // posting fetches answered from the LRU cache
	PostingMisses    uint64 // posting fetches that decoded from the store
	PostingEvictions uint64 // LRU entries displaced
	Coalesced        uint64 // fetches that joined an in-flight get for the same term

	PartialFetches uint64 // And intersections served straight off compressed blocks
	BlocksDecoded  uint64 // posting blocks decoded during partial fetches
	BlocksSkipped  uint64 // posting blocks the skip directory ruled out untouched
	SegmentFetches uint64 // posting reads answered from sealed delta segments

	// Bitmap-container accounts. Dense∧dense conjunctions run word-wise over
	// the container itself (in place on a mapped store) — no posting decode,
	// no LRU entry, no pin. Probes are dense∧sparse accumulator checks, one
	// bit test per candidate doc; serves count full enumerations (Or,
	// TermDocs, cache fills) answered by popcount walks instead of varint
	// decode.
	BitmapAnds   uint64 // dense∧dense AND kernels executed
	BitmapProbes uint64 // accumulator docs bit-probed against a bitmap term
	BitmapServes uint64 // full bitmap enumerations (unions, seeds, cache fills)

	SimHits      uint64 // similarity queries answered from the result cache
	SimMisses    uint64 // similarity queries that scanned the signatures
	SimRefreshes uint64 // misses patched forward from an older epoch's answer
	SimEvictions uint64
	SimScored    uint64 // scan candidates scored in full (a dot product each)
	SimPruned    uint64 // scan candidates a Sketch bound rejected unscored

	FilterBuilds uint64 // (epoch, filter) document sets materialized
	FilterHits   uint64 // filtered interactions served from a cached set

	TileHits    uint64 // tile queries answered from the epoch-keyed tile LRU
	TileMisses  uint64 // tile queries that read the maintained pyramid
	TilesPruned uint64 // quadtree subtrees ruled out by spatial walks untouched

	FanOuts       uint64 // router scatter rounds issued
	ShardQueries  uint64 // sub-queries executed on shard servers
	ShardsPruned  uint64 // shard sub-queries skipped by zero-DF pruning
	ShortCircuits uint64 // router queries answered with no fan-out at all

	// Replication accounts, populated only by a Router with Replicas > 1.
	Hedges          uint64 // hedged sub-queries launched for tail-latency cover
	HedgeWins       uint64 // hedges that answered before the first attempt
	Failovers       uint64 // read attempts retried on another replica after a failure
	ReplicaCatchUps uint64 // replica catch-up rounds completed (revive or resync)
	CatchUpSegments uint64 // sealed segments shipped to lagging replicas
	CatchUpBytes    uint64 // posting payload bytes shipped during catch-up

	Adds        uint64 // documents ingested through the live path
	Deletes     uint64 // documents tombstoned
	Seals       uint64 // deltas sealed into segments
	Compactions uint64 // segment merges (and rebases) completed

	// Resident-set accounting of mapped (INSPSTORE4) stores; all zero for
	// heap-resident stores. Pinned bytes are heap the serving layer holds
	// (decoded posting lists in the cache, load-time copies) against the
	// MapBudgetBytes budget; mapped bytes stay evictable in the file
	// mapping. PinDenials counts cache admissions the budget refused.
	ResidentPinnedBytes int64
	ResidentMappedBytes int64
	PinDenials          uint64
}

// PostingHitRate returns hits/(hits+misses), counting coalesced joins as
// hits: they were answered without a new transfer.
func (s Stats) PostingHitRate() float64 {
	total := s.PostingHits + s.Coalesced + s.PostingMisses
	if total == 0 {
		return 0
	}
	return float64(s.PostingHits+s.Coalesced) / float64(total)
}

// SimHitRate returns the similarity-cache hit rate.
func (s Stats) SimHitRate() float64 {
	if s.SimHits+s.SimMisses == 0 {
		return 0
	}
	return float64(s.SimHits) / float64(s.SimHits+s.SimMisses)
}

// postingVal is one cached base posting list (views into the store,
// immutable).
type postingVal struct {
	docs, freqs []int64
}

// pinBytes is the heap the cached entry holds resident: the decoded doc and
// freq slices. What the posting cache pins against a mapped store's budget.
func (v postingVal) pinBytes() int64 {
	return int64(8*len(v.docs) + 8*len(v.freqs))
}

// postKey keys the posting cache: the base generation plus the term. Epoch
// swaps (seals, deletes, signature swaps, compactions) leave the base alone,
// so cached decoded lists survive them; only a base rewrite (Rebase) bumps
// the generation and retires the old entries.
type postKey struct {
	gen uint64
	t   int64
}

// flight is one in-progress posting fetch; concurrent requests for the same
// term coalesce onto it and share its single decode.
type flight struct {
	done chan struct{}
	val  postingVal
}

// simKey keys the similarity caches. The epoch makes every published change
// (ingest seal, delete, signature swap) a natural invalidation: old-epoch
// entries simply age out of the LRU.
type simKey struct {
	epoch uint64
	doc   int64
	k     int
}

// filterKey keys the materialized filter-set cache: the view epoch plus the
// canonical filter serialization. Epoch keying invalidates on every published
// change, exactly like the similarity caches.
type filterKey struct {
	epoch uint64
	key   string
}

// filterCacheEntries bounds the filter-set LRU. Analyst sessions reuse a
// handful of active filters; each set is one bitmap or ID list per epoch.
const filterCacheEntries = 64

// Querier is the session surface shared by single-store Sessions and sharded
// RouterSessions: one analyst's sequential interaction stream, including the
// live-ingestion verbs. A Querier's methods must be called from one
// goroutine at a time; distinct Queriers are fully concurrent.
//
// Every interaction takes a context as its first parameter: cancellation
// (client disconnect, admission deadline, a hedged request losing its race)
// stops the interaction early — error-returning ops surface ctx.Err(),
// slice-returning ops return nil.
type Querier interface {
	TermDocs(ctx context.Context, term string) []query.Posting
	DF(ctx context.Context, term string) int64
	And(ctx context.Context, terms ...string) []int64
	Or(ctx context.Context, terms ...string) []int64
	Similar(ctx context.Context, doc int64, k int) ([]query.Hit, error)
	ThemeDocs(ctx context.Context, cluster int) []int64
	Near(ctx context.Context, x, y, radius float64) []int64
	Tile(ctx context.Context, z, x, y int) (*TileResult, error)
	TileRange(ctx context.Context, z int, r tiles.Rect) ([]*TileResult, error)
	Add(ctx context.Context, text string) (int64, error)
	AddDoc(ctx context.Context, text string, ts int64, facets []string) (int64, error)
	Delete(ctx context.Context, doc int64) error
	// SetFilter restricts every subsequent query on this querier to documents
	// matching f (see Filter); the zero Filter clears it. A filtered query
	// returns exactly the unfiltered answer with non-matching documents
	// removed. DF is a descriptor read and stays unfiltered.
	SetFilter(f Filter) error
}

// Service is what serves analyst sessions: a single-store Server or a
// sharded Router. Workload replay and the daemon front-end run against this
// surface, so a sharded set serves transparently behind the session API.
// TopTerms and SampleDocs scan the corpus and take a context; NewQuerier,
// Stats, NumThemes and Themes are pure accessors and stay context-free.
type Service interface {
	NewQuerier() Querier
	Stats() Stats
	TopTerms(ctx context.Context, n int) []string
	SampleDocs(ctx context.Context, n int) []int64
	NumThemes() int
	Themes() []core.Theme
}

// Liver is the live-maintenance surface of a Service: making pending adds
// visible, compacting segments, and persisting the live state. The daemon
// exposes these as operator commands.
type Liver interface {
	FlushLive(ctx context.Context) error
	CompactLive(ctx context.Context) error
	SaveLive(ctx context.Context, path string) error
}

// Server answers concurrent sessions against one Store. All methods are safe
// for concurrent use. Sessions resolve the store's current epoch view once
// per interaction, so ingestion, deletes, compaction and signature swaps
// published through the store become visible between interactions — never in
// the middle of one.
type Server struct {
	store *Store
	cfg   Config

	pmu      sync.Mutex
	postings *lru[postKey, postingVal]
	flights  map[postKey]*flight

	smu  sync.Mutex
	sims *lru[simKey, []query.Hit]

	fmu     sync.Mutex
	filters *lru[filterKey, *filterSet]

	tmu   sync.Mutex
	tiles *lru[tileKey, *tiles.Tile]

	queries          atomic.Uint64
	postingHits      atomic.Uint64
	postingMisses    atomic.Uint64
	postingEvictions atomic.Uint64
	coalesced        atomic.Uint64
	partialFetches   atomic.Uint64
	blocksDecoded    atomic.Uint64
	blocksSkipped    atomic.Uint64
	segmentFetches   atomic.Uint64
	bitmapAnds       atomic.Uint64
	bitmapProbes     atomic.Uint64
	bitmapServes     atomic.Uint64
	simHits          atomic.Uint64
	simMisses        atomic.Uint64
	simRefreshes     atomic.Uint64
	simEvictions     atomic.Uint64
	simScored        atomic.Uint64
	simPruned        atomic.Uint64
	filterBuilds     atomic.Uint64
	filterHits       atomic.Uint64
	tileHits         atomic.Uint64
	tileMisses       atomic.Uint64
	tilesPruned      atomic.Uint64

	nextSession atomic.Int64
}

// NewServer builds a server over a store.
//
// Deprecated: use NewService with Options{Store: st, Config: cfg}; this
// wrapper remains for existing callers.
func NewServer(st *Store, cfg Config) (*Server, error) { return newServer(st, cfg) }

func newServer(st *Store, cfg Config) (*Server, error) {
	if st == nil {
		return nil, fmt.Errorf("serve: nil store")
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := cfg.tileConfig().Validate(); err != nil {
		return nil, err
	}
	if st.res != nil {
		st.res.SetBudget(cfg.MapBudgetBytes)
	}
	return &Server{
		store:    st,
		cfg:      cfg,
		postings: newLRU[postKey, postingVal](cfg.PostingCacheEntries),
		flights:  make(map[postKey]*flight),
		sims:     newLRU[simKey, []query.Hit](cfg.SimCacheEntries),
		filters:  newLRU[filterKey, *filterSet](filterCacheEntries),
		tiles:    newLRU[tileKey, *tiles.Tile](cfg.TileCacheEntries),
	}, nil
}

// Store returns the underlying store.
func (s *Server) Store() *Store { return s.store }

// NewQuerier opens a session; it is NewSession behind the Service surface.
func (s *Server) NewQuerier() Querier { return s.NewSession() }

// TopTerms returns the store's query vocabulary head, for workload defaults.
func (s *Server) TopTerms(ctx context.Context, n int) []string {
	if ctx.Err() != nil {
		return nil
	}
	return s.store.TopTerms(n)
}

// SampleDocs returns deterministic similarity targets from the store.
func (s *Server) SampleDocs(ctx context.Context, n int) []int64 {
	if ctx.Err() != nil {
		return nil
	}
	return s.store.SampleDocs(n)
}

// NumThemes returns the store's k-means cluster count.
func (s *Server) NumThemes() int { return s.store.K }

// Themes returns the store's discovered themes.
func (s *Server) Themes() []core.Theme { return s.store.Themes }

// FlushLive makes every pending add visible (Store.Flush).
func (s *Server) FlushLive(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.store.Flush()
}

// CompactLive merges the store's sealed segments now (Store.Compact).
func (s *Server) CompactLive(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.store.Compact()
}

// SaveLive persists the store with its live state folded in: pending adds
// are flushed, compaction drained, the segments and tombstones rebased into
// the base, and the result written as a single INSPSTORE4 file — tile
// pyramid embedded — that the next process serves straight from an mmap.
func (s *Server) SaveLive(ctx context.Context, path string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.store.Rebase(); err != nil {
		return err
	}
	return s.store.SaveFile(path)
}

// signature returns the signature vector of doc in the store's current view.
func (s *Server) signature(doc int64) ([]float64, bool) {
	return s.store.viewNow().sigVec(doc)
}

// Stats snapshots the server counters plus the store's ingest counters.
func (s *Server) Stats() Stats {
	live := &s.store.live
	var rs storefile.ResidentStats
	if s.store.res != nil {
		rs = s.store.res.Stats()
	}
	return Stats{
		Queries:          s.queries.Load(),
		PostingHits:      s.postingHits.Load(),
		PostingMisses:    s.postingMisses.Load(),
		PostingEvictions: s.postingEvictions.Load(),
		Coalesced:        s.coalesced.Load(),
		PartialFetches:   s.partialFetches.Load(),
		BlocksDecoded:    s.blocksDecoded.Load(),
		BlocksSkipped:    s.blocksSkipped.Load(),
		SegmentFetches:   s.segmentFetches.Load(),
		BitmapAnds:       s.bitmapAnds.Load(),
		BitmapProbes:     s.bitmapProbes.Load(),
		BitmapServes:     s.bitmapServes.Load(),
		SimHits:          s.simHits.Load(),
		SimMisses:        s.simMisses.Load(),
		SimRefreshes:     s.simRefreshes.Load(),
		SimEvictions:     s.simEvictions.Load(),
		SimScored:        s.simScored.Load(),
		SimPruned:        s.simPruned.Load(),
		FilterBuilds:     s.filterBuilds.Load(),
		FilterHits:       s.filterHits.Load(),
		TileHits:         s.tileHits.Load(),
		TileMisses:       s.tileMisses.Load(),
		TilesPruned:      s.tilesPruned.Load(),
		Adds:             live.adds.Load(),
		Deletes:          live.deletes.Load(),
		Seals:            live.seals.Load(),
		Compactions:      live.compactions.Load(),

		ResidentPinnedBytes: rs.PinnedBytes,
		ResidentMappedBytes: rs.MappedBytes,
		PinDenials:          rs.PinDenials,
	}
}

// NewSession opens an analyst session. Sessions are cheap. A session's
// methods must be called from one goroutine at a time; different sessions
// are fully concurrent.
func (s *Server) NewSession() *Session {
	return &Session{s: s, ID: s.nextSession.Add(1)}
}

// --- posting fetch path ---------------------------------------------------

// getPostings returns term t's base postings under the view's generation,
// consulting the LRU cache and coalescing concurrent misses for the same
// term into one decode.
func (s *Server) getPostings(v *view, t int64) postingVal {
	key := postKey{gen: v.gen, t: t}
	s.pmu.Lock()
	if val, ok := s.postings.get(key); ok {
		s.pmu.Unlock()
		s.postingHits.Add(1)
		return val
	}
	if f, ok := s.flights[key]; ok {
		s.pmu.Unlock()
		s.coalesced.Add(1)
		<-f.done
		return f.val
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.pmu.Unlock()

	s.postingMisses.Add(1)
	docs, freqs := v.base.posts.Postings(t)
	f.val = postingVal{docs: docs, freqs: freqs}
	if v.base.posts.IsBitmap(t) {
		// A bitmap term materializes by popcount enumeration, not varint
		// decode. The And path never gets here for bitmap terms; Or/TermDocs
		// do, and the list is cached like any other.
		s.bitmapServes.Add(1)
	}

	s.pmu.Lock()
	// A mapped store pins decoded lists against its resident budget; once
	// spent, the list is returned uncached and later queries decode from
	// the mapped pages again — memory bounded, mapping evictable.
	res := s.store.res
	if res == nil || res.TryPin(f.val.pinBytes()) {
		if old, evicted := s.postings.add(key, f.val); evicted {
			s.postingEvictions.Add(1)
			if res != nil {
				res.Unpin(old.pinBytes())
			}
		}
	}
	delete(s.flights, key)
	s.pmu.Unlock()
	close(f.done)
	return f.val
}

// cachedPostings peeks the LRU without fetching on a miss. The And path uses
// it so cache hits keep their decoded fast path while misses intersect
// straight off the compressed blocks instead of decoding whole lists.
func (s *Server) cachedPostings(v *view, t int64) (postingVal, bool) {
	s.pmu.Lock()
	val, ok := s.postings.get(postKey{gen: v.gen, t: t})
	s.pmu.Unlock()
	if ok {
		s.postingHits.Add(1)
	}
	return val, ok
}

// filterSetFor resolves the materialized document set of (v's epoch, f),
// building and caching it on a miss.
func (s *Server) filterSetFor(v *view, f Filter) *filterSet {
	key := filterKey{epoch: v.epoch, key: f.cacheKey()}
	s.fmu.Lock()
	fs, ok := s.filters.get(key)
	s.fmu.Unlock()
	if ok {
		s.filterHits.Add(1)
		return fs
	}
	fs = buildFilterSet(v, f)
	s.filterBuilds.Add(1)
	s.fmu.Lock()
	s.filters.add(key, fs)
	s.fmu.Unlock()
	return fs
}

// segPostings reads term t's postings from one segment, counting the fetch.
func (s *Server) segPostings(seg *segment.Segment, t int64) (docs, freqs []int64) {
	s.segmentFetches.Add(1)
	return seg.Posts.Postings(t)
}

// --- Session --------------------------------------------------------------

// Session is one analyst's connection: a sequential stream of interactions.
// Concurrent sessions share the server's caches and coalesce their index
// traffic. Each interaction resolves the store's current epoch view once and
// answers entirely from it.
type Session struct {
	s  *Server
	ID int64

	// filter restricts every query on this session (SetFilter); always held
	// in normalized form. The zero Filter means unfiltered.
	filter Filter

	// Query scratch reused across interactions. A session is a sequential
	// stream — one goroutine at a time (the HTTP layer serializes named
	// sessions with a mutex) — so the buffers are never contended, and
	// nothing scratch-backed escapes: And always returns a freshly merged
	// slice (mergeDocs copies even a single part).
	scratchCands []andCand
	scratchA     []int64
	scratchB     []int64
	scratchParts [][]int64
}

// andCand is one conjunction term's descriptor during And's planning pass.
type andCand struct{ id, baseDF, liveDF int64 }

// SetFilter restricts every subsequent query on this session to documents
// matching f; the zero Filter clears it (see Querier.SetFilter).
func (ss *Session) SetFilter(f Filter) error {
	nf, err := f.normalized()
	if err != nil {
		return err
	}
	ss.filter = nf
	return nil
}

// filterFor resolves the session's filter set against the view; nil when the
// session is unfiltered.
func (ss *Session) filterFor(v *view) *filterSet {
	if ss.filter.Empty() {
		return nil
	}
	return ss.s.filterSetFor(v, ss.filter)
}

// applyFilterHits post-filters a top-k hit list (a cached answer or a fresh
// copy — never mutated) against the session filter, returning the kept hits.
func (ss *Session) applyFilterHits(v *view, hits []query.Hit) []query.Hit {
	fs := ss.filterFor(v)
	if fs == nil {
		return hits
	}
	kept := make([]query.Hit, 0, len(hits))
	for _, h := range hits {
		if fs.contains(h.Doc) {
			kept = append(kept, h)
		}
	}
	return kept
}

// filterTombs drops tombstoned docs in place; nil when nothing survives.
func filterTombs(docs []int64, tombs map[int64]bool) []int64 {
	if len(tombs) == 0 || len(docs) == 0 {
		return docs
	}
	out := docs[:0]
	for _, d := range docs {
		if !tombs[d] {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// TermDocs returns the posting list of a term (sorted by document ID), or
// nil when the term is unknown or fully deleted — base and ingested-segment
// postings merged, tombstones filtered.
func (ss *Session) TermDocs(ctx context.Context, term string) []query.Posting {
	if ctx.Err() != nil {
		return nil
	}
	ss.s.queries.Add(1)
	v := ss.s.store.viewNow()
	t, ok := ss.s.store.TermID(term)
	if !ok || v.df(t) == 0 {
		return nil
	}
	lists := make([]plist, 0, 1+len(v.segs))
	if v.base.df[t] > 0 {
		val := ss.s.getPostings(v, t)
		lists = append(lists, plist{val.docs, val.freqs})
	}
	for _, seg := range v.segs {
		if seg.Posts.Count[t] == 0 {
			continue
		}
		d, f := ss.s.segPostings(seg, t)
		lists = append(lists, plist{d, f})
	}
	var docs, freqs []int64
	if len(lists) == 1 && len(v.tombs) == 0 {
		docs, freqs = lists[0].docs, lists[0].freqs
	} else {
		docs, freqs = mergePlists(lists, v.tombs)
	}
	// The session filter applies while building the reply postings: docs may
	// be a shared store slice, so it is never filtered in place.
	fs := ss.filterFor(v)
	if len(docs) == 0 {
		return nil
	}
	out := make([]query.Posting, 0, len(docs))
	for i := range docs {
		if fs != nil && !fs.contains(docs[i]) {
			continue
		}
		out = append(out, query.Posting{Doc: docs[i], Freq: freqs[i]})
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// DF returns a term's document frequency (0 when absent): the base DF plus
// every sealed segment's summary. Tombstoned documents stay counted until
// compaction or Rebase drops their postings — the standard LSM overcount.
func (ss *Session) DF(ctx context.Context, term string) int64 {
	if ctx.Err() != nil {
		return 0
	}
	ss.s.queries.Add(1)
	t, ok := ss.s.store.TermID(term)
	if !ok {
		return 0
	}
	return ss.s.store.viewNow().df(t)
}

// And returns the documents containing every term, sorted by document ID.
//
// The conjunction is doomed the moment any term is unknown or empty in the
// whole view, so the vocabulary and DF descriptors are consulted for every
// term before a single posting list moves. Every document lives either in
// the base or in exactly one sealed segment, so the conjunction decomposes:
// the base part intersects rarest-first with the block-skipping machinery
// (see below), each segment whose DF summary admits every term intersects
// its own small lists, and the disjoint results merge, tombstones filtered.
//
// Base part: the rarest list is fetched decoded (through the LRU), and each
// larger list is then intersected in place — from the decoded cache on a
// hit; block-skippingly against the compressed store when the candidate set
// is sparse relative to the list (never decoding the blocks the skip
// directory rules out); through a full cached-and-coalesced fetch when it is
// dense and would decode most blocks anyway. The loop exits before touching
// the remaining (larger) lists once the intersection empties.
func (ss *Session) And(ctx context.Context, terms ...string) []int64 {
	if len(terms) == 0 || ctx.Err() != nil {
		return nil
	}
	ss.s.queries.Add(1)
	st := ss.s.store
	v := st.viewNow()
	cands := ss.scratchCands[:0]
	for _, term := range terms {
		t, found := st.TermID(term)
		var live int64
		if found {
			live = v.df(t)
		}
		if !found || live == 0 {
			ss.scratchCands = cands[:0]
			return nil
		}
		cands = append(cands, andCand{id: t, baseDF: v.base.df[t], liveDF: live})
	}
	ss.scratchCands = cands
	// The session filter resolves after the doomed-query exits: a conjunction
	// with an unknown term never pays the filter-set build.
	fs := ss.filterFor(v)
	// Rarest-first must follow the base lists the base pass actually fetches:
	// ordering by live DF would seed the accumulator with a huge base list
	// whenever a term's postings concentrate in ingested segments (live DF
	// small overall but base DF large is impossible; the inverse — base-rare,
	// segment-heavy — is exactly a trending ingested term). Live DF already
	// served its purpose in the doomed-query exit above. Insertion sort: a
	// conjunction has a handful of terms, and unlike sort.Slice there is no
	// closure to allocate.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			a, b := cands[j], cands[j-1]
			if a.baseDF > b.baseDF || (a.baseDF == b.baseDF && a.liveDF >= b.liveDF) {
				break
			}
			cands[j], cands[j-1] = b, a
		}
	}

	// Base intersection: only possible when every term has base postings.
	// The accumulator ping-pongs between two session scratch buffers, so a
	// warm And allocates nothing until the final merge.
	bufA, bufB := ss.scratchA, ss.scratchB
	var acc []int64
	baseLive := true
	for _, cd := range cands {
		if cd.baseDF == 0 {
			baseLive = false
			break
		}
	}
	if baseLive {
		ps := v.base.posts
		i0 := 1
		switch {
		case ps.IsBitmap(cands[0].id) && len(cands) > 1 && ps.IsBitmap(cands[1].id):
			// Dense∧dense: one word-wise AND straight over the containers —
			// on a mapped store these are the file's own pages, so nothing is
			// decoded, copied or cached.
			bufA, _ = ps.AndBitmapsInto(bufA[:0], cands[0].id, cands[1].id)
			acc = bufA
			ss.s.bitmapAnds.Add(1)
			i0 = 2
		case ps.IsBitmap(cands[0].id) && fs != nil && fs.bits != nil:
			// Dense term under a dense filter: seed the accumulator with one
			// word-wise AND of the container against the filter's bitmap —
			// sound for a conjunction (the final post-filter is idempotent),
			// and every later operand intersects a pre-thinned set.
			bufA, _ = ps.AndBitsInto(bufA[:0], cands[0].id, fs.bits)
			acc = bufA
			ss.s.bitmapAnds.Add(1)
		case ps.IsBitmap(cands[0].id):
			// Dense seed: enumerate the bitmap into session scratch instead
			// of decoding a list through the LRU.
			bufA = ps.BitmapDocsInto(bufA[:0], cands[0].id)
			acc = bufA
			ss.s.bitmapServes.Add(1)
		default:
			val := ss.s.getPostings(v, cands[0].id)
			bufA = append(bufA[:0], val.docs...)
			acc = bufA
		}
		for _, cd := range cands[i0:] {
			if len(acc) == 0 {
				break
			}
			if ps.IsBitmap(cd.id) {
				// Dense operand against any accumulator: per-doc bit probes
				// beat every decoded-list merge and touch neither the varint
				// decoder nor the posting LRU.
				var ist postings.IntersectStats
				bufB, ist = ps.IntersectInto(bufB[:0], acc, cd.id)
				acc = bufB
				ss.s.bitmapProbes.Add(uint64(ist.BitProbes))
				bufA, bufB = bufB, bufA
				continue
			}
			if val, ok := ss.s.cachedPostings(v, cd.id); ok {
				bufB = query.IntersectSortedInto(bufB[:0], acc, val.docs)
				acc = bufB
				bufA, bufB = bufB, bufA
				continue
			}
			// A sparse candidate set admits few blocks, so intersecting off
			// the compressed store wins; a dense one would decode most blocks
			// anyway, and the full fetch keeps the LRU warm and the decode
			// coalesced for the next session asking about the same term.
			if int64(len(acc)) < cd.baseDF/4 {
				res, ist := ps.IntersectInto(bufB[:0], acc, cd.id)
				ss.s.partialFetches.Add(1)
				ss.s.blocksDecoded.Add(uint64(ist.BlocksDecoded))
				ss.s.blocksSkipped.Add(uint64(ist.BlocksSkipped))
				bufB = res
				acc = res
				bufA, bufB = bufB, bufA
				continue
			}
			val := ss.s.getPostings(v, cd.id)
			bufB = query.IntersectSortedInto(bufB[:0], acc, val.docs)
			acc = bufB
			bufA, bufB = bufB, bufA
		}
	}
	ss.scratchA, ss.scratchB = bufA, bufB

	// Segment intersections: a segment can only contribute documents if its
	// DF summary admits every term.
	parts := ss.scratchParts[:0]
	if len(acc) > 0 {
		parts = append(parts, acc)
	}
	for _, seg := range v.segs {
		admit := true
		for _, cd := range cands {
			if seg.Posts.Count[cd.id] == 0 {
				admit = false
				break
			}
		}
		if !admit {
			continue
		}
		var segAcc []int64
		for i, cd := range cands {
			d, _ := ss.s.segPostings(seg, cd.id)
			if i == 0 {
				segAcc = d
				continue
			}
			segAcc = query.IntersectSorted(segAcc, d)
			if len(segAcc) == 0 {
				break
			}
		}
		if len(segAcc) > 0 {
			parts = append(parts, segAcc)
		}
	}
	out := filterTombs(mergeDocs(parts), v.tombs)
	if fs != nil {
		// The filter applies to the final merged conjunction (idempotent over
		// the pre-filtered dense seed).
		out = fs.filterDocs(out)
	}
	ss.scratchParts = parts
	if len(out) == 0 {
		return nil
	}
	return out
}

// Or returns the documents containing any of the terms, sorted. Unknown and
// empty terms contribute nothing. The union is a k-way merge over the
// already-sorted posting lists (base and segment), deduplicating as it
// streams — no scratch map, no re-sort.
func (ss *Session) Or(ctx context.Context, terms ...string) []int64 {
	if ctx.Err() != nil {
		return nil
	}
	ss.s.queries.Add(1)
	st := ss.s.store
	v := st.viewNow()
	lists := make([][]int64, 0, len(terms))
	for _, term := range terms {
		t, found := st.TermID(term)
		if !found {
			continue
		}
		if v.base.df[t] > 0 {
			lists = append(lists, ss.s.getPostings(v, t).docs)
		}
		for _, seg := range v.segs {
			if seg.Posts.Count[t] == 0 {
				continue
			}
			d, _ := ss.s.segPostings(seg, t)
			lists = append(lists, d)
		}
	}
	out := filterTombs(unionSorted(lists), v.tombs)
	if fs := ss.filterFor(v); fs != nil {
		out = fs.filterDocs(out)
	}
	if out == nil {
		out = []int64{} // query.Engine.Or returns an empty, non-nil union
	}
	return out
}

// unionSorted k-way merges ascending document lists into their deduplicated
// union (the shared mergeDocs selection merge, then an in-place dedup pass
// — distinct query terms share documents, so the merged stream repeats
// them). nil when empty.
func unionSorted(lists [][]int64) []int64 {
	merged := mergeDocs(lists)
	if merged == nil {
		return nil
	}
	out := merged[:0]
	for _, d := range merged {
		if n := len(out); n == 0 || out[n-1] != d {
			out = append(out, d)
		}
	}
	return out
}

// Similar returns the k documents most similar to the target document's
// knowledge signature (cosine similarity, the target excluded), consulting
// the top-K result cache. Identical queries return identical results whether
// served cold or cached; the cache key carries the view epoch, so every
// published change (ingest seal, delete, signature swap) invalidates stale
// answers without any sweep.
func (ss *Session) Similar(ctx context.Context, doc int64, k int) ([]query.Hit, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("serve: similar: k must be positive")
	}
	ss.s.queries.Add(1)
	v := ss.s.store.viewNow()
	key := simKey{epoch: v.epoch, doc: doc, k: k}
	ss.s.smu.Lock()
	hits, ok := ss.s.sims.get(key)
	ss.s.smu.Unlock()
	if ok {
		ss.s.simHits.Add(1)
		return ss.applyFilterHits(v, hits), nil
	}
	ss.s.simMisses.Add(1)

	target, found := v.sigVec(doc)
	if !found || target == nil {
		return nil, fmt.Errorf("serve: document %d not found or has a null signature", doc)
	}
	hits, refreshed := ss.s.refreshSimilar(v, target, doc, k)
	if !refreshed {
		hits = ss.s.scanSimilar(v, target, doc, k)
	}

	ss.s.smu.Lock()
	if _, evicted := ss.s.sims.add(key, hits); evicted {
		ss.s.simEvictions.Add(1)
	}
	ss.s.smu.Unlock()
	// The cache stores the unfiltered answer — a later session with a
	// different (or no) filter must see the same hits — so the session's
	// filter applies to a copy, after the add.
	return ss.applyFilterHits(v, hits), nil
}

// refreshSimilar patches a cached top-K forward along the view lineage
// instead of rescanning every signature: walking back from v, a cached
// answer at an ancestor epoch stays a valid candidate set across seal deltas
// (new documents can only displace, never promote) and compactions (identity
// on visible documents), so only the segments appended since the ancestor
// need scoring. A tombstone delta is safe exactly when it did not hit the
// cached hits (removing a non-member cannot change the top K); otherwise —
// or when the chain was cut by a signature swap or rebase — the caller falls
// back to the full scan.
func (s *Server) refreshSimilar(v *view, target []float64, exclude int64, k int) ([]query.Hit, bool) {
	var segs []*segment.Segment
	var tombs []int64
	for a := v; a.parent != nil; a = a.parent {
		switch a.kind {
		case viewSeal:
			segs = append(segs, a.newSegs...)
		case viewTomb:
			tombs = append(tombs, a.tomb)
		case viewCompact:
		default:
			return nil, false
		}
		s.smu.Lock()
		hits, ok := s.sims.get(simKey{epoch: a.parent.epoch, doc: exclude, k: k})
		s.smu.Unlock()
		if !ok {
			continue
		}
		// Tombstones filed along the walked lineage must filter the appended
		// segments too, not just v.tombs: a compaction drops a tombstone from
		// the published set together with the doc's postings, but a lineage
		// segment sealed before the delete still carries the doc's signature.
		dead := v.tombs
		if len(tombs) > 0 {
			dead = make(map[int64]bool, len(v.tombs)+len(tombs))
			maps.Copy(dead, v.tombs)
			for _, d := range tombs {
				dead[d] = true
			}
		}
		candidates := len(hits)
		for _, h := range hits {
			if dead[h.Doc] {
				return nil, false // a cached hit died: full rescan
			}
		}
		for _, seg := range segs {
			candidates += len(seg.Docs)
		}
		top := query.NewTopK(target, exclude, k, candidates)
		for _, h := range hits {
			top.Offer(h)
		}
		for _, seg := range segs {
			top.Scan(seg.Docs, seg.SigVecs, seg.SigNorms(), seg.SigSketch(), dead)
		}
		s.simRefreshes.Add(1)
		s.countScan(&top)
		return top.Hits(), true
	}
	return nil, false
}

// scanSimilar scores the view's signatures — base set and ingested segments,
// tombstones excluded — against a target vector, excluding one document, and
// returns the top k hits (query.HitLess order).
func (s *Server) scanSimilar(v *view, target []float64, exclude int64, k int) []query.Hit {
	candidates := v.sigs.Len()
	for _, seg := range v.segs {
		candidates += len(seg.Docs)
	}
	top := query.NewTopK(target, exclude, k, candidates)
	top.Scan(v.sigs.Docs, v.sigs.Vecs, v.sigs.Norms(), v.sigs.Sketch(), v.tombs)
	for _, seg := range v.segs {
		top.Scan(seg.Docs, seg.SigVecs, seg.SigNorms(), seg.SigSketch(), v.tombs)
	}
	s.countScan(&top)
	return top.Hits()
}

// countScan files a scan's candidates as scored in full or rejected by a bound.
func (s *Server) countScan(top *query.TopK) {
	full, pruned := top.Counts()
	s.simScored.Add(uint64(full))
	s.simPruned.Add(uint64(pruned))
}

// similarTo is the shard-local half of a routed similarity query: it scores
// this server's view against an externally supplied target vector. It
// bypasses the per-server result cache — the router caches the merged
// answer, and the sim counters with it.
func (ss *Session) similarTo(target []float64, exclude int64, k int) []query.Hit {
	ss.s.queries.Add(1)
	return ss.s.scanSimilar(ss.s.store.viewNow(), target, exclude, k)
}

// ThemeDocs returns the document IDs assigned to a k-means cluster, sorted.
// Documents ingested after the snapshot carry no cluster assignment until an
// offline re-clustering; deleted documents are filtered. The walk is over the
// base's derived cluster index, so it costs the cluster's size.
func (ss *Session) ThemeDocs(ctx context.Context, cluster int) []int64 {
	if ctx.Err() != nil {
		return nil
	}
	ss.s.queries.Add(1)
	v := ss.s.store.viewNow()
	fs := ss.filterFor(v)
	docs := v.base.clusterDocs(int64(cluster))
	var out []int64
	for i, d := range docs {
		if !v.tombs[d] && (fs == nil || fs.contains(d)) {
			if out == nil {
				// The rest of the list bounds the answer: one allocation, not
				// a dozen growth steps (and nil stays nil when nothing passes).
				out = make([]int64, 0, len(docs)-i)
			}
			out = append(out, d)
		}
	}
	return out
}

// Near returns the documents whose ThemeView projection falls within radius
// of (x, y), sorted — the analyst's terrain drill-down. Documents ingested
// on a store with the frozen Planar model are on the plane from the epoch
// their delta seals; deleted ones are filtered.
//
// The query descends the tile pyramid: quadtree subtrees outside the query
// box are pruned untouched (counted in Stats.TilesPruned), so the work is
// the candidates the walk admits, not the whole point set.
func (ss *Session) Near(ctx context.Context, x, y, radius float64) []int64 {
	if ctx.Err() != nil {
		return nil
	}
	ss.s.queries.Add(1)
	st := ss.s.store
	v := st.viewNow()
	r2 := radius * radius
	fs := ss.filterFor(v)
	// The squared-distance test makes the radius sign-insensitive; the
	// query box must agree. The pyramid's bin windows clamp the box with
	// the member binning arithmetic, so out-of-bounds points (late ingests
	// binned into edge tiles) stay findable.
	rad := math.Abs(radius)
	rect := tiles.Rect{MinX: x - rad, MinY: y - rad, MaxX: x + rad, MaxY: y + rad}
	// The entries are tested where they lie, under the pyramid's lock: the
	// test costs less than copying a 64-byte pointerful entry out would.
	var out []int64
	var pruned int
	st.withPyramid(v, ss.s.cfg.tileConfig(), func(p *tiles.Pyramid) {
		_, pruned = p.Search(rect, func(leaf []tiles.Entry) {
			for i := range leaf {
				e := &leaf[i]
				dx, dy := e.X-x, e.Y-y
				if dx*dx+dy*dy <= r2 && !v.tombs[e.Doc] &&
					(fs == nil || fs.contains(e.Doc)) {
					out = append(out, e.Doc)
				}
			}
		})
	})
	ss.s.tilesPruned.Add(uint64(pruned))
	slices.Sort(out)
	return out
}

// Add ingests one document through the live path. The document becomes
// visible to queries when its delta seals.
func (ss *Session) Add(ctx context.Context, text string) (int64, error) {
	return ss.AddDoc(ctx, text, 0, nil)
}

// AddDoc ingests one document with its metadata — a Unix-seconds timestamp
// (0 = untimestamped) and "key=value" facet labels — through the same live
// path as Add. The metadata becomes filterable the moment the document
// becomes visible.
func (ss *Session) AddDoc(ctx context.Context, text string, ts int64, facets []string) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	ss.s.queries.Add(1)
	doc, err := ss.s.store.AddMeta(text, ts, facets)
	if err != nil {
		return 0, err
	}
	return doc, nil
}

// Delete tombstones a document; the change is visible to the very next
// interaction on any session.
func (ss *Session) Delete(ctx context.Context, doc int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ss.s.queries.Add(1)
	return ss.s.store.Delete(doc)
}

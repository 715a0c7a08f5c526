// Package inspire is a from-scratch Go reproduction of the parallel text
// processing engine of
//
//	M. Krishnan, S. Bohn, W. Cowley, V. Crow, J. Nieplocha,
//	"Scalable Visual Analytics of Massive Textual Datasets", IPDPS 2007.
//
// The engine turns raw document collections into the 2-D "ThemeView"
// coordinates used by visual-analytics tools: scanning and forward indexing
// with a global distributed vocabulary hashmap, parallel inverted file
// indexing (FAST-INV) with dynamic load balancing over a Global Arrays
// atomic task queue, Bookstein serial-clustering topicality, an association
// matrix of conditional term probabilities, L1-normalized knowledge
// signatures, distributed k-means, and PCA projection.
//
// Beyond the batch pipeline, the engine opens the paper's stated frontier —
// interactive analysis at scale: internal/query answers term, boolean,
// similarity and drill-down queries over the distributed products, and
// internal/serve turns a finished run into a long-lived serving store that
// answers many concurrent analyst sessions (block-compressed posting lists
// with skip-directory intersection via internal/postings — dense terms adapt
// into packed bitmap containers whose word-wise AND/OR kernels intersect
// without decoding a posting, in place on mapped stores — LRU posting and
// similarity caches, coalesced posting fetches) through the cmd/inspired
// daemon: index once, serve many. The store also partitions into document
// shards served by a scatter-gather router (inspired -shards N): per-shard DF
// summaries prune fan-out, doomed queries short-circuit at the router, and
// per-shard answers k-way merge, all behind the unchanged session API.
//
// Serving is no longer frozen at snapshot time: the store ingests live. New
// documents are added through the session API (inspired's add/delete
// commands), tokenized with the producing run's normalization and projected
// into signature space with its frozen association matrix; they buffer in a
// mutable delta, seal into block-compressed segments (internal/segment), and
// become visible through atomically swapped epoch views that readers never
// block on, while a background compactor k-way-merges small segments and
// deletes tombstone immediately. Live sharded sets persist behind an
// extended manifest; a single live store rebases back into an ordinary
// store file.
//
// The corpus is faceted: documents carry an optional unix-seconds timestamp
// and "key=value" facet labels (inspired -meta at serve time, ts=/facet= on
// add), persisted as INSPSTORE4 sections, and every query layer accepts a
// time-and-facet filter (after=/before=/facet= parameters per HTTP request,
// the stdin protocol's sticky "filter" command) whose answer is exactly the
// unfiltered answer minus the non-matching documents — dense filters
// materialize into the same bitmap containers the boolean kernels intersect,
// identically across monolithic, sharded, mapped and heap stores.
//
// The ThemeView projection itself serves at scale through the Galaxy tile
// pyramid (internal/tiles): a quadtree of multi-resolution aggregates —
// density grids, top-theme histograms with representative labels, exemplar
// documents — so a client renders any viewport from a handful of fixed-size
// tiles (inspired's /v1/tiles/{z}/{x}/{y} endpoint) instead of pulling
// corpus-proportional point sets. Pyramids persist as a section of the
// store file, are maintained incrementally under live ingestion along the
// same epoch lineage as the similarity refresh, and merge bit-identically
// across shards; spatial Near queries descend the same quadtree instead of
// scanning every point.
//
// The daemon's HTTP (/v1, always the envelope) and stdin surfaces live in
// internal/httpd, mountable in-process. Serving performance is measured, not
// modeled, by the one benchmark under benchmark/ (contract in
// BENCHMARK.json): it drives the daemon binary out of process with seeded
// workloads and reports end-to-end and per-layer metrics by name. The
// virtual-time machine model (internal/simtime) times the batch pipeline
// only, as the paper's Figures 5-9 do.
//
// The library lives under internal/; the executables under cmd/ (inspire,
// inspired, corpusgen, benchfig) and the runnable scenarios under
// examples/ are the public surface. bench_test.go in this
// directory regenerates every figure of the paper's evaluation as Go
// benchmarks; see DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package inspire

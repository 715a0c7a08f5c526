// Command inspired is the serving daemon: index once, serve many — and since
// the live-ingestion refactor, keep ingesting. It loads a finished pipeline
// run — either by running the pipeline over a corpus directory or by loading
// a store persisted with -save-store — and answers concurrent analyst
// sessions over JSON: term lookups, boolean queries, similarity search,
// theme drill-down, ThemeView region queries and Galaxy tiles. Sessions can
// also add and delete documents while queries keep serving: adds are
// tokenized with the producing run's normalization, signature-projected with
// its frozen association matrix, and become visible when their delta seals
// (every 256 adds by default, or on flush); a background compactor folds
// sealed segments together.
//
// Usage:
//
//	inspired -in ./corpus-dir -format pubmed -p 8 -http :8417
//	inspired -in ./corpus-dir -save-store run.store -stdin
//	inspired -store run.store -http :8417
//	inspired -in ./corpus-dir -shards 4 -save-store run.shards
//	inspired -store run.shards -http :8417
//	echo "term apple" | inspired -store run.store -stdin
//
// -store accepts the one store format, INSPSTORE4 (the page-aligned
// zero-copy layout -save-store writes, served straight from a shared memory
// mapping, tile pyramid embedded), and the INSPSHARDS1 manifests written by
// -shards N -save-store, which serve their whole partitioned set behind a
// scatter-gather router. Store files are memory-mapped. A store file is a
// derived artefact: one in a retired format is refused by name, and
// re-indexing is the migration — of the signatures too, which the store
// persists beside the ThemeView points and themes derived from them.
// -shards N also re-partitions a freshly indexed run or a loaded single
// store at serve time; either way the session API is identical to
// single-store serving.
//
// -replicas N serves every shard through N replicas: reads balance by
// power-of-two-choices over in-flight depth with hedged retries for the
// tail, writes apply primary-first and fan out, and a crashed replica
// catches back up over shipped segments on revival. The admission flags
// bound what the front door accepts: -max-inflight sheds excess concurrent
// requests with 429 + Retry-After, -session-rate and -global-rate cap the
// per-session and daemon-wide request rates.
//
// Documents carry optional metadata — a unix-seconds ingest timestamp and
// "key=value" facet labels — installed at serve time with -meta (a TSV of
// doc<TAB>ts[<TAB>facet,facet,...] lines, persisted by -save-store and
// partitioned by -shards) or attached per document on /v1/add with ts= and
// repeated facet= parameters. Every query endpoint then accepts after=,
// before= and repeated facet= filter parameters (the stdin protocol's
// "filter" command is the sticky equivalent); filtered answers are exactly
// the unfiltered answers minus the non-matching documents.
//
// The HTTP surface (term/boolean/similar/theme/near/tile queries, live
// add/delete/flush/compact/save, /themes, /stats) lives in internal/httpd —
// see that package's documentation for the endpoint list. Every route is
// under /v1 and every response, refusals of a wrong method or an unknown
// path included, is the {"ok","data","error":{code,message}} envelope with
// stable error codes and real HTTP statuses. The same handler is what the
// repository benchmark's traced runs (benchmark/layers) mount in-process.
//
// /save takes a plain file name, written inside the directory configured
// with -save-dir; without -save-dir the endpoint is disabled — a network
// client never names an arbitrary server-side path.
//
// Pass session=NAME on query endpoints to reuse one session (its rate bucket
// and query scratch) across requests; anonymous requests each get a fresh
// session. The stdin protocol mirrors the endpoints: "add some document text",
// "delete 3", "flush", "compact", "save run.live" (stdin save takes a full
// path — it is the operator's own terminal, not the network surface).
//
// A save folds the live state into the base first, so it writes exactly what
// -save-store writes: a single store becomes one INSPSTORE4 file, a sharded
// set INSPSTORE4 shard files behind an INSPSHARDS1 manifest. Either loads
// back with -store.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, served only on -pprof-addr
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"inspire/internal/cluster"
	"inspire/internal/core"
	"inspire/internal/corpus"
	"inspire/internal/httpd"
	"inspire/internal/serve"
)

func main() {
	in := flag.String("in", "", "corpus directory to index (required unless -store)")
	format := flag.String("format", "pubmed", "source format: pubmed or trec")
	p := flag.Int("p", 4, "number of SPMD processes for the indexing run")
	storePath := flag.String("store", "", "serve a store persisted with -save-store instead of indexing")
	saveStore := flag.String("save-store", "", "persist the serving store to this file after indexing")
	metaPath := flag.String("meta", "", "install document metadata before serving from a TSV of doc<TAB>unix-ts[<TAB>facet,facet,...] lines (facets are key=value)")
	shards := flag.Int("shards", 1, "partition the serving store into N document shards behind a scatter-gather router")
	replicas := flag.Int("replicas", 1, "serve N replicas per shard with failover, P2C load balancing and hedged reads")
	httpAddr := flag.String("http", ":8417", "HTTP listen address (empty to disable)")
	stdin := flag.Bool("stdin", false, "serve the line protocol on stdin instead of HTTP")
	postCache := flag.Int("post-cache", 4096, "posting-list LRU cache entries (per shard when sharded)")
	simCache := flag.Int("sim-cache", 512, "similarity result cache entries (at the router when sharded)")
	saveDir := flag.String("save-dir", "", "directory HTTP /save writes into (empty disables the endpoint)")
	maxInflight := flag.Int("max-inflight", 0, "admission control: shed requests with 429 past this many in flight (0 disables)")
	sessionRate := flag.Float64("session-rate", 0, "per-session token-bucket rate limit in requests/s (0 disables)")
	globalRate := flag.Float64("global-rate", 0, "global token-bucket rate limit in requests/s (0 disables)")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof profiling endpoints (empty disables; keep off the public address)")
	flag.Parse()
	if err := checkFlags(*shards, *replicas, *storePath, *in); err != nil {
		fmt.Fprintf(os.Stderr, "inspired: %v\n", err)
		os.Exit(2)
	}

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "inspired: %v\n", err)
		os.Exit(1)
	}
	if *saveDir != "" {
		if err := os.MkdirAll(*saveDir, 0o755); err != nil {
			fail(err)
		}
	}
	cfg := serve.Config{
		PostingCacheEntries: *postCache,
		SimCacheEntries:     *simCache,
		Replicas:            *replicas,
	}

	var svc serve.Service
	if isMan, _ := serveManifest(*storePath); isMan {
		// A persisted shard set serves as-is: its partitioning is fixed at
		// save time.
		if *saveStore != "" || *shards > 1 || *metaPath != "" {
			fail(fmt.Errorf("-save-store, -meta and -shards do not apply to a shard manifest; re-index or load the single store to repartition"))
		}
		man, shardStores, err := serve.LoadShards(*storePath)
		if err != nil {
			fail(err)
		}
		r, err := serve.NewService(serve.Options{Shards: shardStores, Config: cfg})
		if err != nil {
			fail(err)
		}
		fmt.Printf("loaded shard manifest %s (%d shards)\n", *storePath, man.NumShards)
		fmt.Printf("serving %d documents, %d terms, %d themes across %d shards x %d replicas\n",
			man.TotalDocs, man.VocabSize, r.NumThemes(), man.NumShards, *replicas)
		svc = r
	} else {
		var steps hostSteps
		st, err := loadOrIndex(*storePath, *in, *format, *p, &steps)
		if err != nil {
			fail(err)
		}
		if *metaPath != "" {
			var n int
			err := steps.time("meta", func() (err error) {
				n, err = applyMetaFile(st, *metaPath)
				return err
			})
			if err != nil {
				fail(err)
			}
			fmt.Printf("installed metadata for %d of the %d documents listed in %s\n", len(st.Meta.Docs), n, *metaPath)
		}
		// Partitioned once: the set -save-store persists is the set served.
		var shardStores []*serve.Store
		if *shards > 1 {
			err := steps.time("shard", func() (err error) {
				shardStores, err = st.Shard(*shards)
				return err
			})
			if err != nil {
				fail(err)
			}
		}
		if *saveStore != "" {
			if *shards > 1 {
				if err := steps.time("save", func() error { return serve.SaveSet(*saveStore, shardStores) }); err != nil {
					fail(err)
				}
				fmt.Printf("persisted %d-shard serving set behind manifest %s\n", *shards, *saveStore)
			} else {
				if err := steps.time("save", func() error { return st.SaveFile(*saveStore) }); err != nil {
					fail(err)
				}
				fmt.Printf("persisted serving store to %s (INSPSTORE4)\n", *saveStore)
			}
		}
		if *in != "" {
			fmt.Printf("host seconds outside the components:%s\n", steps.line.String())
		}
		if *shards > 1 {
			r, err := serve.NewService(serve.Options{Shards: shardStores, Config: cfg})
			if err != nil {
				fail(err)
			}
			fmt.Printf("serving %d documents, %d terms, %d themes across %d shards x %d replicas\n",
				st.TotalDocs, st.VocabSize, st.K, *shards, *replicas)
			svc = r
		} else {
			srv, err := serve.NewService(serve.Options{Store: st, Config: cfg})
			if err != nil {
				fail(err)
			}
			fmt.Printf("serving %d documents, %d terms, %d themes\n",
				st.TotalDocs, st.VocabSize, st.K)
			svc = srv
		}
	}

	d := httpd.New(svc, *saveDir)
	if *maxInflight > 0 || *sessionRate > 0 || *globalRate > 0 {
		d.SetLimits(httpd.Limits{
			MaxInFlight: *maxInflight,
			SessionRate: *sessionRate,
			GlobalRate:  *globalRate,
		})
	}
	if *pprofAddr != "" {
		// The pprof mux is the process-global DefaultServeMux, deliberately
		// kept off the query listener (which serves d.Mux()): profiles leak
		// internals, so they bind to their own — typically loopback — address.
		go func(addr string) {
			fmt.Printf("pprof listening on %s\n", addr)
			if err := http.ListenAndServe(addr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "inspired: pprof listener: %v\n", err)
			}
		}(*pprofAddr)
	}
	if *stdin {
		d.ServeLines(os.Stdin, os.Stdout)
		return
	}
	if *httpAddr == "" {
		fmt.Fprintln(os.Stderr, "inspired: nothing to do (no -http address and no -stdin)")
		os.Exit(2)
	}
	fmt.Printf("listening on %s\n", *httpAddr)
	if err := http.ListenAndServe(*httpAddr, d.Mux()); err != nil {
		fmt.Fprintf(os.Stderr, "inspired: %v\n", err)
		os.Exit(1)
	}
}

// applyMetaFile installs document metadata from a TSV file: one line per
// document, doc<TAB>unix-ts[<TAB>facet,facet,...], facets "key=value".
// Blank lines and #-comments are skipped. The whole file installs as the
// store's base metadata (replacing any persisted metadata), so it must be
// applied before any live ingestion.
func applyMetaFile(st *serve.Store, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var docs, times []int64
	var facets [][]string
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, "\t")
		if len(parts) < 2 {
			return 0, fmt.Errorf("%s:%d: want doc<TAB>ts[<TAB>facets], got %q", path, line, text)
		}
		doc, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s:%d: document ID: %w", path, line, err)
		}
		ts, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s:%d: timestamp: %w", path, line, err)
		}
		var fs []string
		if len(parts) > 2 && strings.TrimSpace(parts[2]) != "" {
			fs = strings.Split(strings.TrimSpace(parts[2]), ",")
		}
		docs = append(docs, doc)
		times = append(times, ts)
		facets = append(facets, fs)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if err := st.SetBaseMeta(docs, times, facets); err != nil {
		return 0, err
	}
	return len(docs), nil
}

// serveManifest reports whether a non-empty -store path names a shard
// manifest.
func serveManifest(storePath string) (bool, error) {
	if storePath == "" {
		return false, nil
	}
	return serve.IsShardManifestFile(storePath)
}

// checkFlags refuses flag combinations that would otherwise be served as
// something else: a shard or replica count below 1 (silently one store, one
// replica) and -store with -in (the corpus silently ignored).
func checkFlags(shards, replicas int, storePath, in string) error {
	switch {
	case shards < 1:
		return fmt.Errorf("-shards %d: want at least 1", shards)
	case replicas < 1:
		return fmt.Errorf("-replicas %d: want at least 1", replicas)
	case storePath != "" && in != "":
		return fmt.Errorf("-store and -in are exclusive: serve the persisted store or index the corpus")
	}
	return nil
}

// hostSteps records the host seconds of the indexing process's steps outside
// the pipeline's six components, in the order they ran, so that with the
// per-component line they account for the process's wall time.
type hostSteps struct{ line strings.Builder }

// add records secs under name.
func (h *hostSteps) add(name string, secs float64) {
	fmt.Fprintf(&h.line, " %s %.2f", name, secs)
}

// time runs fn and records its host seconds under name.
func (h *hostSteps) time(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	h.add(name, time.Since(start).Seconds())
	return err
}

// loadOrIndex resolves the serving store: a persisted file, or one indexing
// run over the corpus directory. An indexing run records in steps the corpus
// read, core.Run's own time outside its six components ("pipeline": set-up
// and the signature gather), and rank 0's serve.Snapshot.
func loadOrIndex(storePath, in, format string, p int, steps *hostSteps) (*serve.Store, error) {
	if storePath != "" {
		st, err := serve.LoadStoreFile(storePath)
		if err != nil {
			return nil, err
		}
		fmt.Printf("loaded store %s (%s)\n", storePath, st.DescribeFormat())
		return st, nil
	}
	if in == "" {
		return nil, fmt.Errorf("either -in or -store is required")
	}
	var f corpus.Format
	switch format {
	case "pubmed":
		f = corpus.FormatPubMed
	case "trec":
		f = corpus.FormatTREC
	default:
		return nil, fmt.Errorf("unknown format %q", format)
	}
	var sources []*corpus.Source
	err := steps.time("read", func() (err error) {
		sources, err = loadSources(in, f)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("no source files in %s", in)
	}
	var st *serve.Store
	w, err := cluster.NewWorld(p, nil)
	if err != nil {
		return nil, err
	}
	err = w.Run(func(c *cluster.Comm) error {
		start := time.Now()
		res, err := core.Run(c, sources, core.Config{CollectSignatures: true})
		if err != nil {
			return err
		}
		pipeline := time.Since(start).Seconds()
		start = time.Now()
		got, err := serve.Snapshot(c, res)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			st = got
			fmt.Printf("host seconds per component (rank 0):%s\n", res.HostBreakdown())
			for _, name := range core.Components {
				pipeline -= res.HostSeconds[name]
			}
			steps.add("pipeline", pipeline)
			steps.add("snapshot", time.Since(start).Seconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// loadSources reads every regular file of the directory as a source, in name
// order.
func loadSources(dir string, f corpus.Format) ([]*corpus.Source, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	var sources []*corpus.Source
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		sources = append(sources, &corpus.Source{Name: e.Name(), Format: f, Data: data})
	}
	return sources, nil
}

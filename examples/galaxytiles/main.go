// Galaxy tile scenario — the multi-resolution face of the serving stack. A
// client rendering millions of projected documents cannot pull every point;
// it asks for tiles: fixed-size density grids with theme histograms and
// exemplar documents, at whatever zoom the viewport needs (Cartolabe and
// Textiverse serve their document maps exactly this way).
//
// One pipeline run builds the base snapshot, which serves behind a 2-shard
// scatter-gather router. While ingest sessions stream the rest of the corpus
// through the live path — each document landing on the ThemeView plane via
// the frozen projection model the moment its delta seals — an analyst
// session walks the Galaxy: starting from the whole corpus at zoom 0 it
// descends into the densest tile at every level until a single theme's
// neighbourhood fills the viewport. Every tile answer merges per-shard
// density grids, theme histograms and exemplars k-way, bit-identical to what
// a monolithic server would render.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"

	"inspire/internal/cluster"
	"inspire/internal/core"
	"inspire/internal/corpus"
	"inspire/internal/serve"
	"inspire/internal/simtime"
	"inspire/internal/tiles"
)

var shades = []byte(" .:-=+*#%@")

// renderDensity draws one tile's density grid as an ASCII patch.
func renderDensity(t *serve.TileResult) string {
	if t.Docs == 0 {
		return "  (empty)\n"
	}
	var maxD uint32
	for _, d := range t.Density {
		if d > maxD {
			maxD = d
		}
	}
	var sb strings.Builder
	for gy := t.Grid - 1; gy >= 0; gy-- {
		sb.WriteString("  ")
		for gx := 0; gx < t.Grid; gx++ {
			idx := 0
			if maxD > 0 {
				idx = int(t.Density[gy*t.Grid+gx]) * (len(shades) - 1) / int(maxD)
			}
			sb.WriteByte(shades[idx])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func describe(t *serve.TileResult) string {
	parts := make([]string, 0, len(t.Themes))
	for _, th := range t.Themes {
		parts = append(parts, fmt.Sprintf("theme %d (%s): %d docs", th.Cluster, th.Label, th.Docs))
	}
	if len(parts) == 0 {
		parts = append(parts, "no clustered themes (freshly ingested documents)")
	}
	return strings.Join(parts, "; ")
}

func main() {
	sources := corpus.Generate(corpus.GenSpec{
		Format:      corpus.FormatPubMed,
		TargetBytes: 512 << 10,
		Sources:     8,
		Seed:        41,
		Topics:      6,
		VocabSize:   4000,
	})

	// Index three quarters of the corpus; the rest arrives live.
	sort.Slice(sources, func(i, j int) bool { return sources[i].Name < sources[j].Name })
	baseSources := sources[:3*len(sources)/4]
	var st *serve.Store
	w, err := cluster.NewWorld(4, simtime.PNNLCluster2007())
	if err != nil {
		log.Fatal(err)
	}
	err = w.Run(func(c *cluster.Comm) error {
		res, err := core.Run(c, baseSources, core.Config{CollectSignatures: true})
		if err != nil {
			return err
		}
		got, err := serve.Snapshot(c, res)
		if c.Rank() == 0 {
			st = got
		}
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("base snapshot: %d documents, %d terms, %d themes\n", st.TotalDocs, st.VocabSize, st.K)

	var lateTexts []string
	for _, src := range sources[3*len(sources)/4:] {
		recs, err := corpus.Parse(src)
		if err != nil {
			log.Fatal(err)
		}
		for i := range recs {
			lateTexts = append(lateTexts, recs[i].Text())
		}
	}

	// Serve the snapshot as a 2-shard scatter-gather set.
	shards, err := st.Shard(2)
	if err != nil {
		log.Fatal(err)
	}
	for _, sh := range shards {
		sh.SetLivePolicy(serve.LivePolicy{SealDocs: 24, CompactSegments: 3})
	}
	router, err := serve.NewRouter(shards, serve.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving across %d shards; %d documents arriving live\n\n", router.NumShards(), len(lateTexts))

	// Ingest sessions stream the late documents while the analyst walks.
	var wg sync.WaitGroup
	const writers = 4
	for wid := 0; wid < writers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			sess := router.NewSession()
			for i := wid; i < len(lateTexts); i += writers {
				if _, err := sess.Add(context.Background(), lateTexts[i]); err != nil {
					log.Fatal(err)
				}
			}
		}(wid)
	}

	// The analyst's walk: whole corpus -> densest tile at every zoom.
	walk := func(label string) {
		sess := router.NewSession()
		box := *shards[0].TileBox
		cur := tiles.Rect(box)
		fmt.Printf("--- %s ---\n", label)
		for z := 0; ; z++ {
			ts, err := sess.TileRange(context.Background(), z, cur)
			if err != nil {
				break // past the deepest zoom
			}
			if len(ts) == 0 {
				break
			}
			best := ts[0]
			for _, t := range ts[1:] {
				if t.Docs > best.Docs {
					best = t
				}
			}
			fmt.Printf("zoom %d: %d tiles in view; focus (%d,%d) holds %d docs\n",
				z, len(ts), best.X, best.Y, best.Docs)
			fmt.Printf("  %s\n  exemplars %v\n%s", describe(best), best.Exemplars, renderDensity(best))
			r := tiles.TileRectIn(box, z, best.X, best.Y)
			w, h := r.MaxX-r.MinX, r.MaxY-r.MinY
			cur = tiles.Rect{MinX: r.MinX - w/2, MinY: r.MinY - h/2, MaxX: r.MaxX + w/2, MaxY: r.MaxY + h/2}
		}
	}

	walk("walking the Galaxy while documents stream in")
	wg.Wait()
	if err := router.FlushLive(context.Background()); err != nil {
		log.Fatal(err)
	}
	if err := router.CompactLive(context.Background()); err != nil {
		log.Fatal(err)
	}
	walk("after ingest settled (flushed + compacted)")

	stats := router.Stats()
	fmt.Printf("tile traffic: %d LRU hits, %d pyramid reads, %d subtrees pruned by spatial walks\n",
		stats.TileHits, stats.TileMisses, stats.TilesPruned)
	fmt.Printf("live ingest: %d adds, %d seals, %d compactions; %d docs now visible\n",
		stats.Adds, stats.Seals, stats.Compactions, router.TotalDocs()+int64(len(lateTexts)))
}

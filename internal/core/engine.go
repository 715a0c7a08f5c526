// Package core orchestrates the full IN-SPIRE text-engine pipeline of the
// paper (Figure 4): Scan & Map with the global vocabulary hashmap, parallel
// inverted file indexing with dynamic load balancing, global term
// statistics, topicality and global topic selection, the association matrix,
// knowledge-signature generation, distributed k-means clustering, and PCA
// projection to the 2-D ThemeView coordinates, with per-component timing in
// virtual (modeled-machine) seconds.
package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"inspire/internal/armci"
	"inspire/internal/assoc"
	"inspire/internal/cluster"
	"inspire/internal/corpus"
	"inspire/internal/dhash"
	"inspire/internal/invert"
	"inspire/internal/kmeans"
	"inspire/internal/project"
	"inspire/internal/scan"
	"inspire/internal/signature"
	"inspire/internal/simtime"
	"inspire/internal/stats"
	"inspire/internal/topic"
)

// Component names, matching the x-axis labels of the paper's Figures 6b/7b.
const (
	CompScan     = "scan"
	CompIndex    = "index"
	CompTopic    = "topic"
	CompAM       = "AM"
	CompDocVec   = "DocVec"
	CompClusProj = "ClusProj"
)

// Components lists the pipeline components in execution order.
var Components = []string{CompScan, CompIndex, CompTopic, CompAM, CompDocVec, CompClusProj}

// Config tunes the engine. The zero value selects documented defaults.
type Config struct {
	// Tokenizer configures term extraction.
	Tokenizer scan.TokenizerConfig
	// TopN is the number of major terms. Zero selects
	// min(1000, max(32, vocabulary/20)).
	TopN int
	// TopicFrac sets M = TopicFrac*TopN (the paper's "typically 10% of the
	// top N"). Default 0.10.
	TopicFrac float64
	// AdaptiveDim enables the §4.2 remedy: while the null-signature rate
	// exceeds NullThreshold, grow M by 1.5x (up to TopN) and regenerate
	// the association matrix and signatures.
	AdaptiveDim bool
	// NullThreshold is the tolerated global null-signature rate. Default
	// 0.02.
	NullThreshold float64
	// MaxDimGrowth bounds adaptive retries. Default 4.
	MaxDimGrowth int
	// Strategy selects the indexing load-distribution scheme. Default
	// DynamicGA (the paper's).
	Strategy invert.Strategy
	// ChunkTokens is the fixed chunk size for inversion loads. Zero
	// selects totalTokens/(64*P) clamped to [256, 4096]: chunks stay
	// fixed-size within a run (Kruskal-Weiss) but adapt to the corpus so
	// every process sees enough loads for the queue to balance.
	ChunkTokens int64
	// KMeans configures clustering.
	KMeans kmeans.Config
	// GridW, GridH size the ThemeView terrain. Defaults 64x24.
	GridW, GridH int
	// MemoryOverheadFactor estimates the per-rank working set as
	// localBytes*factor for the memory-pressure model. Default 2.5
	// (raw text + forward index + postings).
	MemoryOverheadFactor float64
	// CollectSignatures gathers every rank's knowledge signatures at rank
	// 0 after DocVec (pipeline step 7: "persist the knowledge signatures
	// ... a valuable intermediate product"), populating SigDocIDs/SigVecs
	// for persistence with signature.Save.
	CollectSignatures bool
}

func (cfg Config) withDefaults() Config {
	if cfg.TopicFrac <= 0 || cfg.TopicFrac > 1 {
		cfg.TopicFrac = 0.10
	}
	if cfg.NullThreshold <= 0 {
		cfg.NullThreshold = 0.02
	}
	if cfg.MaxDimGrowth <= 0 {
		cfg.MaxDimGrowth = 4
	}
	if cfg.GridW <= 0 {
		cfg.GridW = 64
	}
	if cfg.GridH <= 0 {
		cfg.GridH = 24
	}
	if cfg.MemoryOverheadFactor <= 0 {
		cfg.MemoryOverheadFactor = 2.5
	}
	return cfg
}

// Theme describes one thematic grouping for reporting.
type Theme struct {
	Cluster int
	Size    int64
	X, Y    float64
	Terms   []string
}

// Result is the per-rank outcome of a pipeline run. Gathered products
// (Coords, Terrain, Themes) are populated on rank 0 only.
type Result struct {
	// Summary statistics (identical on every rank).
	TotalDocs   int64
	VocabSize   int64
	TotalTokens int64
	TopN, TopM  int
	NullRate    float64
	DimRetries  int
	KMeansIters int
	KMeansK     int
	Objective   float64
	// MemPressure is the memory-pressure compute multiplier applied to the
	// scan and indexing stages (1 = no pressure), maximum across ranks.
	MemPressure float64

	// Pipeline products local to this rank.
	Forward    *scan.Forward
	Index      *invert.Index
	Stats      *stats.TermStats
	Topics     *topic.Result
	AM         *assoc.Matrix
	Signatures *signature.Signatures
	Clusters   *kmeans.Result
	Projection *project.Projection

	// Rank-0 gathered products.
	Coords  []project.Point
	Terrain *project.Terrain
	Themes  []Theme
	// SigDocIDs/SigVecs hold the gathered signatures (rank 0, only when
	// Config.CollectSignatures is set), aligned and sorted by document ID.
	SigDocIDs []int64
	SigVecs   [][]float64

	// Vocab allows term lookup after the run.
	Vocab *dhash.Map

	// HostSeconds is the host wall-clock time this rank spent in each
	// component, the wait at the stage barrier included: every rank reads
	// about the slowest rank's time and the components sum to the run.
	HostSeconds map[string]float64
}

// HostBreakdown renders HostSeconds in pipeline order for the CLIs.
func (r *Result) HostBreakdown() string {
	var sb strings.Builder
	for _, name := range Components {
		fmt.Fprintf(&sb, " %s %.2f", name, r.HostSeconds[name])
	}
	return sb.String()
}

// Run executes the full pipeline over the given corpus on the calling
// rank's communicator. All ranks must pass identical sources and config; the
// engine partitions sources internally (paper §3.2 static byte-balanced
// distribution).
func Run(c *cluster.Comm, sources []*corpus.Source, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	model := c.Model()
	res := &Result{HostSeconds: make(map[string]float64)}

	timed := func(name string, fn func() error) error {
		hostStart := time.Now()
		start := c.Clock().Now()
		if err := fn(); err != nil {
			return fmt.Errorf("core: %s: %w", name, err)
		}
		// Record the rank's own span before the stage barrier so the
		// per-rank durations expose load imbalance (Figure 9); the
		// barrier then aligns all ranks for the next component.
		c.Timeline().Record(name, start, c.Clock().Now())
		c.Barrier()
		res.HostSeconds[name] += time.Since(hostStart).Seconds()
		return nil
	}

	// ------------------------------------------------ Scan & Map --------
	parts := corpus.Partition(sources, c.Size())
	mine := parts[c.Rank()]
	rpc := armci.New(c)
	vocab := dhash.New(c, rpc)
	res.Vocab = vocab

	var pressure float64 = 1
	err := timed(CompScan, func() error {
		fwd, err := scan.Scan(c, vocab, mine, cfg.Tokenizer)
		if err != nil {
			return err
		}
		res.VocabSize = vocab.Finalize()
		fwd.RemapDense(c, vocab)
		fwd.AssignGlobalDocIDs(c)
		res.Forward = fwd
		res.TotalDocs = fwd.TotalDocs
		res.TotalTokens = c.AllreduceSumInt(int64(len(fwd.Tokens)))
		// Memory-pressure penalty (paper §4.2: oversized problems per
		// processor thrash; the 16.44 GB / 4-processor PubMed case).
		ws := model.DataScale * float64(fwd.RawBytes) * cfg.MemoryOverheadFactor
		pressure = model.MemoryPressure(ws)
		res.MemPressure = c.AllreduceMaxFloat64([]float64{pressure})[0]
		if pressure > 1 {
			c.Clock().Advance((pressure - 1) * model.ScanCost(float64(fwd.RawBytes)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// ------------------------------------------------ Indexing ----------
	chunk := cfg.ChunkTokens
	if chunk <= 0 {
		chunk = res.TotalTokens / int64(64*c.Size())
		if chunk < 256 {
			chunk = 256
		}
		if chunk > 4096 {
			chunk = 4096
		}
	}
	err = timed(CompIndex, func() error {
		// Stage start for the deterministic schedule model, captured
		// before any inversion work.
		stageStart := c.AllreduceMaxFloat64([]float64{c.Clock().Now()})[0]
		gf := invert.PublishForward(c, res.Forward)
		ix := invert.Invert(c, gf, res.VocabSize, vocab.DenseRange, invert.Options{
			Strategy:    cfg.Strategy,
			ChunkTokens: chunk,
			RPC:         rpc,
		})
		res.Index = ix
		// Global term statistics (the paper folds them into indexing).
		res.Stats = stats.Build(c, ix, res.TotalDocs, int64(len(res.Forward.Tokens)))
		// Replace the racy execution clock with the deterministic
		// schedule model for this stage (see DESIGN.md §6): virtual
		// stage time = schedule makespan per rank, scaled by memory
		// pressure. Applied last so the per-rank spread survives to the
		// timeline record (collectives would re-align the clocks).
		setIndexClocks(c, ix, cfg.Strategy, pressure, stageStart)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// ------------------------------------------------ Topicality --------
	topN := cfg.TopN
	if topN <= 0 {
		topN = int(res.VocabSize / 20)
		if topN < 32 {
			topN = 32
		}
		if topN > 1000 {
			topN = 1000
		}
	}
	if int64(topN) > res.VocabSize {
		topN = int(res.VocabSize)
	}
	topM := int(float64(topN) * cfg.TopicFrac)
	if topM < 2 {
		topM = 2
	}
	err = timed(CompTopic, func() error {
		res.Topics = topic.Select(c, res.Stats, topN, topM, vocab.Term)
		res.TopN = res.Topics.N()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// ---------------------------- Association matrix + signatures -------
	// Adaptive dimensionality (§4.2): while too many signatures are null,
	// grow the signature space — first the number of topics M within the
	// current majors, then the majors breadth N itself (re-running topic
	// selection) — and regenerate; "as we scale we need to adapt the
	// dimensionality to dynamically fit the vocabulary diversity".
	m := res.Topics.M()
	for try := 0; ; try++ {
		err = timed(CompAM, func() error {
			res.AM = assoc.Build(c, res.Forward, res.Topics, res.Stats)
			return nil
		})
		if err != nil {
			return nil, err
		}
		err = timed(CompDocVec, func() error {
			res.Signatures = signature.Generate(c, res.Forward, res.AM)
			res.NullRate = res.Signatures.NullRate(c)
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.TopM = m
		if !cfg.AdaptiveDim || res.NullRate <= cfg.NullThreshold || try >= cfg.MaxDimGrowth {
			break
		}
		grownM := m * 3 / 2
		if grownM <= m {
			grownM = m + 1
		}
		if grownM <= res.Topics.N() {
			// Room within the current majors: widen the topic prefix.
			m = grownM
			res.Topics = retopic(res.Topics, m)
		} else if int64(topN) < res.VocabSize {
			// Majors exhausted: broaden the discriminating vocabulary and
			// re-select (charged to the topic component, as the paper notes
			// increased dimensionality "incurs the overhead of more
			// computation").
			topN = topN * 3 / 2
			if int64(topN) > res.VocabSize {
				topN = int(res.VocabSize)
			}
			m = grownM
			if m > topN {
				m = topN
			}
			err = timed(CompTopic, func() error {
				res.Topics = topic.Select(c, res.Stats, topN, m, vocab.Term)
				res.TopN = res.Topics.N()
				return nil
			})
			if err != nil {
				return nil, err
			}
			m = res.Topics.M()
		} else {
			break // the whole vocabulary is already in play
		}
		res.DimRetries = try + 1
	}

	// ------------------------- Persist signatures (step 7) --------------
	if cfg.CollectSignatures {
		GatherSignatures(c, res)
	}

	// ------------------------------------------------ ClusProj ----------
	err = timed(CompClusProj, func() error {
		km := kmeans.Run(c, res.Signatures.Vecs, res.Forward.GlobalDocIDs, res.TotalDocs, cfg.KMeans)
		res.Clusters = km
		res.KMeansIters = km.Iters
		res.KMeansK = km.K
		res.Objective = km.Objective
		if km.K == 0 {
			return fmt.Errorf("no non-null signatures to cluster (null rate %.2f)", res.NullRate)
		}
		proj, err := project.Project(c, res.Signatures.Vecs, res.Forward.GlobalDocIDs, km.Centroids, km.Sizes)
		if err != nil {
			return err
		}
		res.Projection = proj
		res.Coords = project.GatherCoords(c, proj, 0)
		if c.Rank() == 0 {
			res.Terrain = project.BuildTerrain(res.Coords, cfg.GridW, cfg.GridH, 0)
			res.Themes = themes(res, 6)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// GatherSignatures collectively gathers all ranks' signatures at rank 0,
// flattened as (docID, kind, vec...) frames, sorted by document ID, into
// SigDocIDs/SigVecs. Run calls it when Config.CollectSignatures is set; the
// serving layer calls it when snapshotting a run whose signatures were not
// collected during the pipeline.
func GatherSignatures(c *cluster.Comm, res *Result) {
	m := res.Signatures.M
	frame := 2 + m
	flat := make([]float64, 0, frame*len(res.Signatures.Vecs))
	for i, v := range res.Signatures.Vecs {
		flat = append(flat, float64(res.Forward.GlobalDocIDs[i]))
		if v == nil {
			flat = append(flat, 0)
			flat = append(flat, make([]float64, m)...)
		} else {
			flat = append(flat, 1)
			flat = append(flat, v...)
		}
	}
	parts := c.GatherFloat64s(0, flat)
	if parts == nil {
		return
	}
	type rec struct {
		id  int64
		vec []float64
	}
	var recs []rec
	for _, part := range parts {
		for i := 0; i+frame <= len(part); i += frame {
			r := rec{id: int64(part[i])}
			if part[i+1] == 1 {
				r.vec = append([]float64(nil), part[i+2:i+frame]...)
			}
			recs = append(recs, r)
		}
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].id < recs[b].id })
	res.SigDocIDs = make([]int64, len(recs))
	res.SigVecs = make([][]float64, len(recs))
	for i, r := range recs {
		res.SigDocIDs[i] = r.id
		res.SigVecs[i] = r.vec
	}
}

// retopic shrinks/grows the topic prefix of an existing selection without
// re-scoring (the majors list is already topicality-ordered).
func retopic(t *topic.Result, m int) *topic.Result {
	if m > len(t.Majors) {
		m = len(t.Majors)
	}
	nt := &topic.Result{
		Majors:   t.Majors,
		Scores:   t.Scores,
		MajorIdx: t.MajorIdx,
		Topics:   t.Majors[:m],
		TopicIdx: make(map[int64]int, m),
	}
	for j, id := range nt.Topics {
		nt.TopicIdx[id] = j
	}
	return nt
}

// setIndexClocks replaces the post-inversion clocks with the deterministic
// schedule model: the stage starts at the collective maximum entry time
// (captured before inversion ran), and each rank finishes after its
// scheduled share of the load costs.
func setIndexClocks(c *cluster.Comm, ix *invert.Index, strat invert.Strategy, pressure, start float64) {
	model := c.Model()
	costs, owners := invert.LoadCosts(model, ix.Loads)
	var perRank []float64
	switch strat {
	case invert.Static:
		_, perRank = simtime.StaticSchedule(costs, owners, c.Size())
	case invert.MasterWorker:
		// One synthetic load models DataScale real fixed-size chunks, so
		// the dispatcher serves DataScale times as many requests as the
		// synthetic load count; its per-request costs scale accordingly.
		rpc := model.RPCRoundTrip(8, 8) * model.DataScale
		service := model.RPCCost * model.DataScale
		makespan := simtime.MasterWorkerSchedule(costs, c.Size(), rpc, service)
		perRank = make([]float64, c.Size())
		for r := range perRank {
			perRank[r] = makespan
		}
	default:
		_, perRank = simtime.ListSchedule(costs, c.Size())
	}
	c.Clock().Set(start + pressure*perRank[c.Rank()])
}

// themes labels each cluster with the strongest topic terms of its centroid.
func themes(res *Result, termsPer int) []Theme {
	if res.Clusters == nil || res.Projection == nil {
		return nil
	}
	out := make([]Theme, 0, res.Clusters.K)
	for k := 0; k < res.Clusters.K; k++ {
		th := Theme{
			Cluster: k,
			Size:    res.Clusters.Sizes[k],
			X:       res.Projection.Centers2D[k][0],
			Y:       res.Projection.Centers2D[k][1],
		}
		ctr := res.Clusters.Centroids[k]
		type dim struct {
			j int
			w float64
		}
		dims := make([]dim, len(ctr))
		for j, w := range ctr {
			dims[j] = dim{j, w}
		}
		// Partial selection of the strongest dimensions.
		for i := 0; i < termsPer && i < len(dims); i++ {
			best := i
			for j := i + 1; j < len(dims); j++ {
				if dims[j].w > dims[best].w {
					best = j
				}
			}
			dims[i], dims[best] = dims[best], dims[i]
			if dims[i].w <= 0 {
				break
			}
			th.Terms = append(th.Terms, res.Vocab.Term(res.Topics.Topics[dims[i].j]))
		}
		out = append(out, th)
	}
	return out
}

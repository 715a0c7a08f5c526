package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// WorkloadConfig describes a replayable mixed analyst workload: N concurrent
// sessions each issuing a deterministic stream of interactions. Term choice
// is skewed toward the head of the query vocabulary (analysts revisit the
// same themes), which is what gives caches and coalescing their traction.
type WorkloadConfig struct {
	// Sessions is the number of concurrent sessions. Default 8.
	Sessions int
	// OpsPerSession is the interaction count per session. Default 50.
	OpsPerSession int
	// Seed fixes the workload; each session derives its own stream from it.
	Seed int64
	// Terms is the query vocabulary. Empty selects the service's 48 top-DF
	// terms.
	Terms []string
	// Docs are similarity-search targets. Empty selects 16 sampled
	// documents with non-null signatures.
	Docs []int64
	// SimK is the similarity top-K. Default 5.
	SimK int
}

func (cfg WorkloadConfig) withDefaults(svc Service) WorkloadConfig {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 8
	}
	if cfg.OpsPerSession <= 0 {
		cfg.OpsPerSession = 50
	}
	if cfg.SimK <= 0 {
		cfg.SimK = 5
	}
	if len(cfg.Terms) == 0 {
		cfg.Terms = svc.TopTerms(context.Background(), 48)
	}
	if len(cfg.Docs) == 0 {
		cfg.Docs = svc.SampleDocs(context.Background(), 16)
	}
	return cfg
}

// WorkloadReport aggregates one replay.
type WorkloadReport struct {
	Sessions int
	Ops      int64

	WallSeconds float64
	QPS         float64 // sustained host queries/sec across all sessions

	// VirtualQPS is the modeled sustained throughput: total interactions
	// over the mean session's virtual seconds — sessions run concurrently in
	// virtual time, each as its own sequential stream, so with balanced
	// streams the service completes Sessions interactions per mean
	// interaction latency. (The busiest session is not used: which session
	// draws the cold similarity scans is interleaving luck, and one 5-second
	// outlier would swamp the steady-state number.)
	VirtualQPS float64

	MeanVirtualMS float64 // mean per-interaction virtual latency
	P50VirtualMS  float64 // median per-interaction virtual latency
	P95VirtualMS  float64 // body-tail per-interaction virtual latency
	P99VirtualMS  float64 // tail per-interaction virtual latency
	MaxVirtualMS  float64 // worst single interaction (a cold similarity scan)

	OpCounts map[string]int64
	Stats    Stats // service counters accumulated during the replay
}

// String renders the report as the serving scoreboard.
func (r *WorkloadReport) String() string {
	s := fmt.Sprintf(
		"%d sessions, %d interactions in %.2fs host time (%.0f queries/sec)\n"+
			"modeled throughput %.0f queries/sec; per-interaction virtual latency: mean %.3f ms, p50 %.3f ms, p99 %.3f ms, max %.3f ms\n"+
			"posting cache: %.1f%% hit rate (%d hits + %d coalesced / %d misses, %d evictions, %d remote gets)\n"+
			"block skipping: %d partial fetches (%d blocks decoded, %d ruled out)\n"+
			"similarity cache: %.1f%% hit rate (%d hits / %d misses)",
		r.Sessions, r.Ops, r.WallSeconds, r.QPS,
		r.VirtualQPS, r.MeanVirtualMS, r.P50VirtualMS, r.P99VirtualMS, r.MaxVirtualMS,
		100*r.Stats.PostingHitRate(), r.Stats.PostingHits, r.Stats.Coalesced,
		r.Stats.PostingMisses, r.Stats.PostingEvictions, r.Stats.RemoteGets,
		r.Stats.PartialFetches, r.Stats.BlocksDecoded, r.Stats.BlocksSkipped,
		100*r.Stats.SimHitRate(), r.Stats.SimHits, r.Stats.SimMisses)
	if r.Stats.TileHits+r.Stats.TileMisses+r.Stats.TilesPruned > 0 {
		s += fmt.Sprintf("\ntiles: %d served from the LRU, %d pyramid reads, %d subtrees pruned by spatial walks (%.1f ms maintenance)",
			r.Stats.TileHits, r.Stats.TileMisses, r.Stats.TilesPruned, r.Stats.TileMaintVirtMS)
	}
	if r.Stats.FanOuts > 0 || r.Stats.ShortCircuits > 0 {
		s += fmt.Sprintf("\nscatter-gather: %d fan-outs into %d shard queries (%d pruned by DF summaries, %d short-circuited at the router)",
			r.Stats.FanOuts, r.Stats.ShardQueries, r.Stats.ShardsPruned, r.Stats.ShortCircuits)
	}
	if r.Stats.Adds > 0 || r.Stats.Deletes > 0 {
		s += fmt.Sprintf("\nlive ingest: %d adds, %d deletes, %d seals, %d compactions, %d segment fetches, %d sim refreshes",
			r.Stats.Adds, r.Stats.Deletes, r.Stats.Seals, r.Stats.Compactions,
			r.Stats.SegmentFetches, r.Stats.SimRefreshes)
	}
	return s
}

// pickSkewed picks an index in [0, n) biased toward 0 — a Zipf-like analyst
// revisiting head terms.
func pickSkewed(rng *rand.Rand, n int) int {
	i := int(float64(n) * math.Pow(rng.Float64(), 2.5))
	if i >= n {
		i = n - 1
	}
	return i
}

// Replay runs the workload against a Service — a single-store Server or a
// sharded Router, behind the same session API — and aggregates the outcome.
// The interaction streams are deterministic in cfg.Seed; only host timing and
// the interleaving-dependent cache/coalescing counters vary between runs.
func Replay(svc Service, cfg WorkloadConfig) (*WorkloadReport, error) {
	cfg = cfg.withDefaults(svc)
	if len(cfg.Terms) == 0 {
		return nil, fmt.Errorf("serve: workload has no query terms")
	}
	if len(cfg.Docs) == 0 {
		return nil, fmt.Errorf("serve: workload has no similarity targets")
	}
	before := svc.Stats()
	themes := svc.NumThemes()

	var (
		mu       sync.Mutex
		opCounts = make(map[string]int64)
		firstErr error
		virtSum  float64
		virtMax  float64
		totalOps int64
		allLats  []float64 // every interaction's virtual ms
	)
	start := time.Now()
	var wg sync.WaitGroup
	for sid := 0; sid < cfg.Sessions; sid++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed<<16 + int64(sid)))
			ctx := context.Background()
			sess := svc.NewQuerier()
			local := make(map[string]int64)
			lats := make([]float64, 0, cfg.OpsPerSession)
			term := func() string { return cfg.Terms[pickSkewed(rng, len(cfg.Terms))] }
			for op := 0; op < cfg.OpsPerSession; op++ {
				switch p := rng.Float64(); {
				case p < 0.40:
					sess.TermDocs(ctx, term())
					local["term"]++
				case p < 0.55:
					sess.And(ctx, term(), term())
					local["and"]++
				case p < 0.70:
					sess.Or(ctx, term(), term())
					local["or"]++
				case p < 0.85:
					doc := cfg.Docs[pickSkewed(rng, len(cfg.Docs))]
					if _, err := sess.Similar(ctx, doc, cfg.SimK); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
					local["similar"]++
				case p < 0.93:
					sess.ThemeDocs(ctx, rng.Intn(max(1, themes)))
					local["theme"]++
				default:
					sess.Near(ctx, rng.Float64()-0.5, rng.Float64()-0.5, 0.2)
					local["near"]++
				}
				lats = append(lats, sess.Stats().LastMS)
			}
			st := sess.Stats()
			mu.Lock()
			for k, v := range local {
				opCounts[k] += v
			}
			virtSum += st.VirtualSeconds
			if st.MaxMS/1000 > virtMax {
				virtMax = st.MaxMS / 1000
			}
			totalOps += st.Ops
			allLats = append(allLats, lats...)
			mu.Unlock()
		}(sid)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	if firstErr != nil {
		return nil, firstErr
	}

	after := svc.Stats()
	rep := &WorkloadReport{
		Sessions:    cfg.Sessions,
		Ops:         totalOps,
		WallSeconds: wall,
		OpCounts:    opCounts,
		Stats:       diffStats(before, after),
	}
	if wall > 0 {
		rep.QPS = float64(totalOps) / wall
	}
	if virtSum > 0 {
		rep.VirtualQPS = float64(totalOps) / (virtSum / float64(cfg.Sessions))
	}
	if totalOps > 0 {
		rep.MeanVirtualMS = virtSum / float64(totalOps) * 1000
	}
	sort.Float64s(allLats)
	rep.P50VirtualMS = percentile(allLats, 0.50)
	rep.P95VirtualMS = percentile(allLats, 0.95)
	rep.P99VirtualMS = percentile(allLats, 0.99)
	rep.MaxVirtualMS = virtMax * 1000
	return rep, nil
}

// percentile reads the p-quantile (nearest-rank) of an ascending-sorted
// slice; 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// diffStats subtracts counter snapshots so repeated replays on one service
// report only their own traffic.
func diffStats(before, after Stats) Stats {
	return Stats{
		Queries:          after.Queries - before.Queries,
		PostingHits:      after.PostingHits - before.PostingHits,
		PostingMisses:    after.PostingMisses - before.PostingMisses,
		PostingEvictions: after.PostingEvictions - before.PostingEvictions,
		Coalesced:        after.Coalesced - before.Coalesced,
		RemoteGets:       after.RemoteGets - before.RemoteGets,
		PartialFetches:   after.PartialFetches - before.PartialFetches,
		BlocksDecoded:    after.BlocksDecoded - before.BlocksDecoded,
		BlocksSkipped:    after.BlocksSkipped - before.BlocksSkipped,
		SegmentFetches:   after.SegmentFetches - before.SegmentFetches,
		SimHits:          after.SimHits - before.SimHits,
		SimMisses:        after.SimMisses - before.SimMisses,
		SimRefreshes:     after.SimRefreshes - before.SimRefreshes,
		SimEvictions:     after.SimEvictions - before.SimEvictions,
		SimScored:        after.SimScored - before.SimScored,
		SimPruned:        after.SimPruned - before.SimPruned,
		TileHits:         after.TileHits - before.TileHits,
		TileMisses:       after.TileMisses - before.TileMisses,
		TilesPruned:      after.TilesPruned - before.TilesPruned,
		CompactVirtMS:    after.CompactVirtMS - before.CompactVirtMS,
		TileMaintVirtMS:  after.TileMaintVirtMS - before.TileMaintVirtMS,
		FanOuts:          after.FanOuts - before.FanOuts,
		ShardQueries:     after.ShardQueries - before.ShardQueries,
		ShardsPruned:     after.ShardsPruned - before.ShardsPruned,
		ShortCircuits:    after.ShortCircuits - before.ShortCircuits,
		Adds:             after.Adds - before.Adds,
		Deletes:          after.Deletes - before.Deletes,
		Seals:            after.Seals - before.Seals,
		Compactions:      after.Compactions - before.Compactions,
		Hedges:           after.Hedges - before.Hedges,
		HedgeWins:        after.HedgeWins - before.HedgeWins,
		Failovers:        after.Failovers - before.Failovers,
		ReplicaCatchUps:  after.ReplicaCatchUps - before.ReplicaCatchUps,
		CatchUpSegments:  after.CatchUpSegments - before.CatchUpSegments,
		CatchUpBytes:     after.CatchUpBytes - before.CatchUpBytes,
	}
}

// OpMix renders the op counts deterministically, e.g. "and=12 near=3 term=25".
func (r *WorkloadReport) OpMix() string {
	names := make([]string, 0, len(r.OpCounts))
	for k := range r.OpCounts {
		names = append(names, k)
	}
	sort.Strings(names)
	out := ""
	for i, k := range names {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", k, r.OpCounts[k])
	}
	return out
}

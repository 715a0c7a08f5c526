package main

import (
	"context"
	"fmt"
	"time"

	"inspire/benchmark/e2e"
	"inspire/internal/query"
	"inspire/internal/serve"
)

// replayBudget bounds the direct replay of the plan, per phase.
const replayBudget = 2 * time.Second

// kernelTerms and kernelDocs bound how many drawn terms and documents the
// kernel timings visit.
const (
	kernelTerms = 256
	kernelDocs  = 5
)

// exec runs one planned read on a Querier the way the daemon's handler
// does: install the filter, then call the op.
func exec(ctx context.Context, q serve.Querier, r *e2e.Request, th *e2e.Themes) error {
	f := serve.Filter{After: r.After, Before: r.Before}
	if r.Facet != "" {
		f.Facets = []string{r.Facet}
	}
	if err := q.SetFilter(f); err != nil {
		return err
	}
	var err error
	switch r.Op {
	case e2e.OpTerm:
		q.TermDocs(ctx, r.Terms[0])
	case e2e.OpDF:
		q.DF(ctx, r.Terms[0])
	case e2e.OpAnd:
		q.And(ctx, r.Terms...)
	case e2e.OpOr:
		q.Or(ctx, r.Terms...)
	case e2e.OpSimilar:
		_, err = q.Similar(ctx, r.Doc, r.K)
	case e2e.OpTheme:
		q.ThemeDocs(ctx, r.Cluster(th))
	case e2e.OpNear:
		x, y, radius := r.Circle(th)
		q.Near(ctx, x, y, radius)
	case e2e.OpTile:
		_, err = q.Tile(ctx, r.Z, r.X, r.Y)
	}
	return err
}

// reads interleaves the read requests of the workload's streams for one
// phase of the plan.
func reads(env *e2e.PlanEnv, wl *e2e.Workload, seed int64, phase string) func() e2e.Request {
	var gens []*e2e.Gen
	for si := range wl.Streams {
		gens = append(gens, e2e.NewGen(env, wl, si, seed, phase, 0))
	}
	i := 0
	return func() e2e.Request {
		for {
			r := gens[i%len(gens)].Next()
			i++
			if !r.Op.IsWrite() {
				return r
			}
		}
	}
}

// replay calls the plan's reads directly on the serving tier, below the
// HTTP surface, on two fresh services given the same warm-up: on one
// through the front Querier (the router, when sharded), on the other on
// each shard's own Querier. serve.shard.us is the slowest shard's time,
// serve.router.us what the router call takes beyond it: plan, prune,
// scatter, merge, and, with more shards than cores, waiting for a core.
func replay(env *e2e.PlanEnv, wl *e2e.Workload, seed int64, warm time.Duration, load func() (serve.Service, error), m e2e.Metrics) error {
	ctx := context.Background()
	front, err := load()
	if err != nil {
		return err
	}
	var xs, ys []float64
	for _, t := range front.Themes() {
		xs, ys = append(xs, t.X), append(ys, t.Y)
	}
	th := e2e.NewThemes(xs, ys)
	frontQ := front.NewQuerier()

	var shardQ []serve.Querier
	if router, ok := front.(*serve.Router); ok {
		direct, err := load()
		if err != nil {
			return err
		}
		dr := direct.(*serve.Router)
		for i := 0; i < router.NumShards(); i++ {
			shardQ = append(shardQ, dr.Shard(i).NewQuerier())
		}
	}
	n := int64(len(shardQ))

	var routerNS, shardNS [e2e.NumOps][]int64
	for _, phase := range []string{"warmup", "timed"} {
		next := reads(env, wl, seed, phase)
		budget := replayBudget
		if phase == "warmup" {
			budget = min(warm, replayBudget)
		}
		for start := time.Now(); time.Since(start) < budget; {
			r := next()
			t := time.Now()
			if err := exec(ctx, frontQ, &r, th); err != nil {
				return fmt.Errorf("replay %s: %w", r.Op, err)
			}
			whole := time.Since(t)
			slowest := whole // a single store is its own only shard
			if n > 0 {
				slowest = 0
				for i, q := range shardQ {
					rs := r
					if r.Op == e2e.OpSimilar {
						// A shard scores only targets it holds; the scan costs
						// the same for any of them.
						rs.Doc = min(r.Doc-r.Doc%n+int64(i), env.Truth.Docs-n+int64(i))
					}
					t = time.Now()
					if err := exec(ctx, q, &rs, th); err != nil {
						return fmt.Errorf("replay %s on shard %d: %w", r.Op, i, err)
					}
					slowest = max(slowest, time.Since(t))
				}
			}
			if phase == "timed" {
				routerNS[r.Op] = append(routerNS[r.Op], int64(whole-slowest))
				shardNS[r.Op] = append(shardNS[r.Op], int64(slowest))
			}
		}
	}
	for _, op := range tracedOps {
		m.Set("serve.router.us."+op.String(), "us", float64(median(routerNS[op]))/1e3)
		m.Set("serve.shard.us."+op.String(), "us", float64(median(shardNS[op]))/1e3)
	}
	return nil
}

// sink keeps the kernel loops' results alive.
var sink float64

// kernels times the innermost layers on what the plan draws: decoding one
// term's postings, intersecting a pair, and scoring one document's
// signature against every other.
func kernels(env *e2e.PlanEnv, wl *e2e.Workload, seed int64, st *serve.Store, m e2e.Metrics) {
	var terms []int64
	var docs []int64
	seenTerm, seenDoc := map[int64]bool{}, map[int64]bool{}
	next := reads(env, wl, seed, "timed")
	for i := 0; i < 8*kernelTerms && (len(terms) < kernelTerms || len(docs) < kernelDocs); i++ {
		r := next()
		for _, term := range r.Terms {
			if t, ok := st.TermID(term); ok && !seenTerm[t] && len(terms) < kernelTerms {
				seenTerm[t] = true
				terms = append(terms, t)
			}
		}
		if r.Op == e2e.OpSimilar && !seenDoc[r.Doc] && len(docs) < kernelDocs {
			seenDoc[r.Doc] = true
			docs = append(docs, r.Doc)
		}
	}

	var decodeNS, andNS, scanNS []int64
	if posts := st.Posts; posts != nil {
		var dst []int64
		for i, a := range terms {
			t := time.Now()
			da, _ := posts.Postings(a)
			decodeNS = append(decodeNS, int64(time.Since(t)))
			if i == 0 {
				continue
			}
			b := terms[i-1]
			if posts.IsBitmap(a) && posts.IsBitmap(b) {
				t = time.Now()
				dst, _ = posts.AndBitmapsInto(dst, a, b)
			} else {
				if posts.Count[b] < posts.Count[a] {
					da, _ = posts.Postings(b)
					b = a
				}
				t = time.Now()
				dst, _ = posts.IntersectInto(dst, da, b)
			}
			andNS = append(andNS, int64(time.Since(t)))
			sink += float64(len(dst))
		}
	}
	set := st.Signatures()
	for _, doc := range docs {
		target, ok := set.Vec(doc)
		if !ok || target == nil {
			continue
		}
		t := time.Now()
		for _, v := range set.Vecs {
			if v != nil {
				sink += query.Cosine(target, v)
			}
		}
		scanNS = append(scanNS, int64(time.Since(t)))
	}
	m.Set("postings.decode_us", "us", float64(median(decodeNS))/1e3)
	m.Set("postings.and_us", "us", float64(median(andNS))/1e3)
	m.Set("query.cosine_scan_ms", "ms", float64(median(scanNS))/1e6)
}

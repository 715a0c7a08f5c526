// Package kmeans implements the distributed k-means clustering of the
// paper's ClusProj component, following the Dhillon-Modha decomposition the
// paper cites: centroids are replicated, every process assigns its local
// document signatures and accumulates partial centroid sums, and one
// Allreduce per iteration combines the partials. Clustering produces the
// anchoring vectors (centroids) in M-space that represent the major thematic
// groupings and later drive the PCA projection.
package kmeans

import (
	"math"

	"inspire/internal/cluster"
)

// Config tunes the clustering.
type Config struct {
	// K is the number of clusters. Zero selects max(2, round(sqrt(D/2)))
	// capped at 16 — enough anchoring vectors for the projection sample
	// while keeping the thematic groupings readable.
	K int
	// MaxIter bounds Lloyd iterations. Default 30.
	MaxIter int
	// Tol stops iteration when total squared centroid movement falls
	// below it. Default 1e-6.
	Tol float64
}

func (cfg Config) withDefaults(totalDocs int64) Config {
	if cfg.K <= 0 {
		k := int(math.Round(math.Sqrt(float64(totalDocs) / 2)))
		if k < 2 {
			k = 2
		}
		if k > 16 {
			k = 16
		}
		cfg.K = k
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 30
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-6
	}
	return cfg
}

// Result is the clustering outcome.
type Result struct {
	// K and M are the cluster count and vector dimensionality.
	K, M int
	// Centroids holds the K centroid vectors (identical on every rank).
	Centroids [][]float64
	// Assign[r] is local record r's cluster, or -1 for null signatures.
	Assign []int
	// Sizes[k] is the global member count of cluster k.
	Sizes []int64
	// Iters is the number of Lloyd iterations executed.
	Iters int
	// Objective is the final global sum of squared distances.
	Objective float64
}

// Run collectively clusters the local signature vectors (nil entries are
// null signatures and stay unassigned). docIDs supplies the global document
// IDs used for deterministic tie-breaking, so results are reproducible and
// nearly P-invariant (up to floating-point reduction order).
func Run(c *cluster.Comm, vecs [][]float64, docIDs []int64, totalDocs int64, cfg Config) *Result {
	cfg = cfg.withDefaults(totalDocs)
	m := dim(vecs)
	for _, v := range vecs {
		if v != nil && len(v) != m {
			panic("kmeans: inconsistent vector dimensionality")
		}
	}
	// Agree on M globally: a rank whose records are all null signatures
	// sees m == 0 locally.
	mAll := c.AllreduceMaxFloat64([]float64{float64(m)})
	m = int(mAll[0])
	if m == 0 {
		return &Result{K: 0, M: 0, Assign: fillAssign(len(vecs), -1)}
	}

	res := &Result{M: m, Assign: fillAssign(len(vecs), -1)}
	centroids := seed(c, vecs, docIDs, cfg.K, m)
	res.K = len(centroids)
	k := res.K

	sums := make([]float64, k*m)
	counts := make([]int64, k)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		res.Iters = iter + 1
		for i := range sums {
			sums[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		var objective float64
		var flops float64
		for r, v := range vecs {
			if v == nil {
				continue
			}
			best, bestD := nearest(centroids, v)
			res.Assign[r] = best
			objective += bestD
			addInto(sums[best*m:(best+1)*m], v)
			counts[best]++
			flops += float64(3 * m * k)
		}
		c.Clock().Advance(c.Model().FlopCost(flops))
		// Merge partial sums, counts and objective (Dhillon-Modha step).
		sums = c.AllreduceSumFloat64(sums)
		counts = c.AllreduceSumInt64(counts)
		obj := c.AllreduceSum(objective)
		res.Objective = obj

		// Recompute centroids; empty clusters respawn at the globally
		// farthest point from its previous centroid's nearest neighbour.
		var movement float64
		for j := 0; j < k; j++ {
			if counts[j] == 0 {
				continue
			}
			inv := 1 / float64(counts[j])
			for d := 0; d < m; d++ {
				nc := sums[j*m+d] * inv
				diff := nc - centroids[j][d]
				movement += diff * diff
				centroids[j][d] = nc
			}
		}
		c.Clock().Advance(c.Model().FlopCost(float64(3 * k * m)))
		res.Sizes = counts
		if movement < cfg.Tol {
			break
		}
	}
	res.Centroids = centroids
	// Sizes reflect the final assignment pass.
	finalCounts := make([]int64, k)
	for r, v := range vecs {
		if v == nil {
			continue
		}
		best, _ := nearest(centroids, v)
		res.Assign[r] = best
		finalCounts[best]++
	}
	res.Sizes = c.AllreduceSumInt64(finalCounts)
	return res
}

// seed performs deterministic farthest-point initialization: the first
// centroid is the signature of the globally smallest document ID; each next
// centroid is the signature farthest from its nearest chosen centroid, ties
// broken by smaller document ID. One collective round per seed.
func seed(c *cluster.Comm, vecs [][]float64, docIDs []int64, k, m int) [][]float64 {
	type cand struct {
		Dist float64
		Doc  int64
		Vec  []float64
	}
	pick := func(local cand) cand {
		got := c.Allreduce(local, float64(8*(m+2)), func(a, b any) any {
			av, bv := a.(cand), b.(cand)
			if bv.Dist > av.Dist || (bv.Dist == av.Dist && bv.Doc < av.Doc) {
				return bv
			}
			return av
		})
		return got.(cand)
	}

	var centroids [][]float64
	// First: smallest global doc ID with a non-null signature. Encode
	// preference as Dist = -doc so the max-reduce picks the min doc.
	first := cand{Dist: math.Inf(-1), Doc: math.MaxInt64}
	for r, v := range vecs {
		if v == nil {
			continue
		}
		if -float64(docIDs[r]) > first.Dist {
			first = cand{Dist: -float64(docIDs[r]), Doc: docIDs[r], Vec: v}
		}
	}
	chosen := pick(first)
	if chosen.Vec == nil {
		return nil // no non-null signatures anywhere
	}
	centroids = append(centroids, clone(chosen.Vec))

	// minD[r] is point r's squared distance to its nearest chosen centroid:
	// each round measures only the newest centroid. The charge stays that of
	// measuring every chosen centroid, the machine model's kernel.
	minD := make([]float64, len(vecs))
	for r := range minD {
		minD[r] = math.Inf(1)
	}
	for len(centroids) < k {
		far := cand{Dist: -1, Doc: math.MaxInt64}
		newest := centroids[len(centroids)-1]
		var flops float64
		for r, v := range vecs {
			if v == nil {
				continue
			}
			if d := dist(newest, v); d < minD[r] {
				minD[r] = d
			}
			d := minD[r]
			flops += float64(3 * m * len(centroids))
			if d > far.Dist || (d == far.Dist && docIDs[r] < far.Doc) {
				far = cand{Dist: d, Doc: docIDs[r], Vec: v}
			}
		}
		c.Clock().Advance(c.Model().FlopCost(flops))
		chosen := pick(far)
		if chosen.Vec == nil || chosen.Dist <= 0 {
			break // fewer distinct points than k
		}
		centroids = append(centroids, clone(chosen.Vec))
	}
	return centroids
}

// nearest returns the index and squared distance of the closest centroid,
// the first on a tie. It measures four centroids per pass over v; each
// distance is still its own sum in index order, so every one is bit for bit
// what dist returns.
func nearest(centroids [][]float64, v []float64) (int, float64) {
	best, bestD := 0, math.Inf(1)
	j := 0
	for ; j+4 <= len(centroids); j += 4 {
		c0, c1, c2, c3 := centroids[j][:len(v)], centroids[j+1][:len(v)], centroids[j+2][:len(v)], centroids[j+3][:len(v)]
		var d0, d1, d2, d3 float64
		for i, x := range v {
			e0, e1, e2, e3 := x-c0[i], x-c1[i], x-c2[i], x-c3[i]
			d0 += e0 * e0
			d1 += e1 * e1
			d2 += e2 * e2
			d3 += e3 * e3
		}
		if d0 < bestD {
			best, bestD = j, d0
		}
		if d1 < bestD {
			best, bestD = j+1, d1
		}
		if d2 < bestD {
			best, bestD = j+2, d2
		}
		if d3 < bestD {
			best, bestD = j+3, d3
		}
	}
	for ; j < len(centroids); j++ {
		if d := dist(centroids[j], v); d < bestD {
			best, bestD = j, d
		}
	}
	return best, bestD
}

// dist returns the squared distance between c and v, summed in index order.
func dist(c, v []float64) float64 {
	c = c[:len(v)]
	var d float64
	for i, x := range v {
		diff := x - c[i]
		d += diff * diff
	}
	return d
}

func addInto(dst, v []float64) {
	for i, x := range v {
		dst[i] += x
	}
}

func clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

func dim(vecs [][]float64) int {
	for _, v := range vecs {
		if v != nil {
			return len(v)
		}
	}
	return 0
}

func fillAssign(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

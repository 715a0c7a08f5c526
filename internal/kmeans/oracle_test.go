package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"inspire/internal/armci"
	"inspire/internal/assoc"
	"inspire/internal/cluster"
	"inspire/internal/corpus"
	"inspire/internal/dhash"
	"inspire/internal/invert"
	"inspire/internal/scan"
	"inspire/internal/signature"
	"inspire/internal/simtime"
	"inspire/internal/stats"
	"inspire/internal/topic"
)

// oracleRun is Run as it was before the four-centroid kernel, verbatim but
// for calling oracleSeed and oracleNearest.
//
// Run collectively clusters the local signature vectors (nil entries are
// null signatures and stay unassigned). docIDs supplies the global document
// IDs used for deterministic tie-breaking, so results are reproducible and
// nearly P-invariant (up to floating-point reduction order).
func oracleRun(c *cluster.Comm, vecs [][]float64, docIDs []int64, totalDocs int64, cfg Config) *Result {
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
	centroids := oracleSeed(c, vecs, docIDs, cfg.K, m)
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
			best, bestD := oracleNearest(centroids, v)
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
		best, _ := oracleNearest(centroids, v)
		res.Assign[r] = best
		finalCounts[best]++
	}
	res.Sizes = c.AllreduceSumInt64(finalCounts)
	return res
}

// oracleSeed is seed as it was before the per-point running minimum, kept
// verbatim as the oracle.
//
// seed performs deterministic farthest-point initialization: the first
// centroid is the signature of the globally smallest document ID; each next
// centroid is the signature farthest from its nearest chosen centroid, ties
// broken by smaller document ID. One collective round per seed.
func oracleSeed(c *cluster.Comm, vecs [][]float64, docIDs []int64, k, m int) [][]float64 {
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

	for len(centroids) < k {
		far := cand{Dist: -1, Doc: math.MaxInt64}
		var flops float64
		for r, v := range vecs {
			if v == nil {
				continue
			}
			_, d := oracleNearest(centroids, v)
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

// oracleNearest is nearest as it was before the four-centroid kernel, kept
// verbatim as the oracle.
//
// nearest returns the index and squared distance of the closest centroid.
func oracleNearest(centroids [][]float64, v []float64) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for j, ctr := range centroids {
		var d float64
		for i, x := range v {
			diff := x - ctr[i]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = j, d
		}
	}
	return best, bestD
}

type runFunc func(c *cluster.Comm, vecs [][]float64, docIDs []int64, totalDocs int64, cfg Config) *Result

// runWorld clusters vecs round-robin over p ranks on the default machine
// model, returning rank 0's result, every rank's Assign in global order, and
// every rank's virtual clock.
func runWorld(t testing.TB, run runFunc, vecs [][]float64, ids []int64, p int, cfg Config) (*Result, []int, []float64) {
	t.Helper()
	res := make([]*Result, p)
	clocks := make([]float64, p)
	_, err := cluster.Run(p, nil, func(c *cluster.Comm) error {
		v, id := scatter(vecs, ids, p, c.Rank())
		res[c.Rank()] = run(c, v, id, int64(len(vecs)), cfg)
		clocks[c.Rank()] = c.Clock().Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, len(vecs))
	for i := range vecs {
		assign[i] = res[i%p].Assign[i/p]
	}
	return res[0], assign, clocks
}

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// corpusSignatures runs the pipeline through signature generation at P = 1
// and returns every document's signature (nil for a null one) by global
// document ID.
func corpusSignatures(t testing.TB, format corpus.Format) [][]float64 {
	t.Helper()
	sources := corpus.Generate(corpus.GenSpec{
		Format: format, TargetBytes: 300_000, Sources: 6, Seed: 17, VocabSize: 4000, Topics: 6,
	})
	var out [][]float64
	_, err := cluster.Run(1, simtime.Zero(), func(c *cluster.Comm) error {
		vocab := dhash.New(c, armci.New(c))
		fwd, err := scan.Scan(c, vocab, sources, scan.TokenizerConfig{})
		if err != nil {
			return err
		}
		n := vocab.Finalize()
		fwd.RemapDense(c, vocab)
		fwd.AssignGlobalDocIDs(c)
		ix := invert.Invert(c, invert.PublishForward(c, fwd), n, vocab.DenseRange, invert.Options{})
		st := stats.Build(c, ix, fwd.TotalDocs, int64(len(fwd.Tokens)))
		top := topic.Select(c, st, 200, 40, vocab.Term)
		sigs := signature.Generate(c, fwd, assoc.Build(c, fwd, top, st))
		out = make([][]float64, fwd.TotalDocs)
		for r, v := range sigs.Vecs {
			out[fwd.GlobalDocIDs[r]] = v
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestKMeansMatchesOracle holds Run to the one-centroid-at-a-time kernels:
// the same assignment, centroids, sizes, iterations and objective bit for
// bit, and the same virtual time on every rank, for corpus signatures
// (PubMed and TREC) and for blobs with duplicates and null signatures, at
// several P and at K both a multiple of four and not.
func TestKMeansMatchesOracle(t *testing.T) {
	blobVecs, _, _ := blobs(600, 7, 3)
	rng := rand.New(rand.NewSource(9))
	for i := range blobVecs {
		switch rng.Intn(10) {
		case 0:
			blobVecs[i] = nil
		case 1:
			blobVecs[i] = blobVecs[rng.Intn(i+1)] // duplicates make exact ties
		}
	}
	sets := map[string][][]float64{
		"blobs":  blobVecs,
		"pubmed": corpusSignatures(t, corpus.FormatPubMed),
		"trec":   corpusSignatures(t, corpus.FormatTREC),
	}
	for name, vecs := range sets {
		ids := make([]int64, len(vecs))
		for i := range ids {
			ids[i] = int64(i)
		}
		for _, p := range []int{1, 2, 3, 4, 7} {
			for _, k := range []int{3, 8, 13, 16} {
				cfg := Config{K: k, MaxIter: 12}
				want, wantAssign, wantClk := runWorld(t, oracleRun, vecs, ids, p, cfg)
				got, gotAssign, gotClk := runWorld(t, Run, vecs, ids, p, cfg)
				where := fmt.Sprintf("%s p=%d k=%d", name, p, k)
				if got.K != want.K || got.M != want.M || got.Iters != want.Iters {
					t.Fatalf("%s: K, M, Iters = %d, %d, %d; oracle %d, %d, %d", where, got.K, got.M, got.Iters, want.K, want.M, want.Iters)
				}
				if fmt.Sprint(gotAssign) != fmt.Sprint(wantAssign) || fmt.Sprint(got.Sizes) != fmt.Sprint(want.Sizes) {
					t.Fatalf("%s: assignment or sizes differ from the oracle's", where)
				}
				if !sameBits([]float64{got.Objective}, []float64{want.Objective}) {
					t.Fatalf("%s: objective %v, oracle %v", where, got.Objective, want.Objective)
				}
				for j := range want.Centroids {
					if !sameBits(got.Centroids[j], want.Centroids[j]) {
						t.Fatalf("%s: centroid %d differs from the oracle's", where, j)
					}
				}
				if !sameBits(gotClk, wantClk) {
					t.Fatalf("%s: virtual time %v, oracle %v", where, gotClk, wantClk)
				}
			}
		}
	}
}

// TestNearestMatchesOracle checks the four-centroid kernel against the old
// one on every centroid count from 0 to 9, with ties, infinities and NaNs.
func TestNearestMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vals := []float64{0, 1, -1, 0.5, math.Inf(1), math.NaN(), 1e300}
	for trial := 0; trial < 2000; trial++ {
		m := 1 + rng.Intn(6)
		draw := func() []float64 {
			v := make([]float64, m)
			for i := range v {
				if rng.Intn(4) == 0 {
					v[i] = vals[rng.Intn(len(vals))]
				} else {
					v[i] = float64(rng.Intn(3))
				}
			}
			return v
		}
		cs := make([][]float64, rng.Intn(10))
		for j := range cs {
			cs[j] = draw()
		}
		v := draw()
		gb, gd := nearest(cs, v)
		wb, wd := oracleNearest(cs, v)
		if gb != wb || math.Float64bits(gd) != math.Float64bits(wd) {
			t.Fatalf("nearest(%v, %v) = %d, %v; oracle %d, %v", cs, v, gb, gd, wb, wd)
		}
	}
}

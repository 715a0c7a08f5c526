package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"inspire/internal/cluster"
	"inspire/internal/signature"
)

// vecPair generates two equal-length vectors for testing/quick: mixed
// magnitudes, exact zeros, and now and then an all-zero vector.
type vecPair struct{ a, b []float64 }

func (vecPair) Generate(rng *rand.Rand, size int) reflect.Value {
	n := rng.Intn(size + 1)
	draw := func() []float64 {
		v := make([]float64, n)
		if rng.Intn(8) == 0 {
			return v
		}
		for i := range v {
			if rng.Intn(4) > 0 {
				v[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(13)-6))
			}
		}
		return v
	}
	return reflect.ValueOf(vecPair{draw(), draw()})
}

// cosineOf is the score as TopK assembles it.
func cosineOf(a, b []float64) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// TestDotNormReproducesCosine pins the contract the cached norms rest on:
// Dot over two Norms is Cosine to the last bit, zero vectors included.
func TestDotNormReproducesCosine(t *testing.T) {
	same := func(p vecPair) bool {
		return math.Float64bits(cosineOf(p.a, p.b)) == math.Float64bits(Cosine(p.a, p.b))
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestTopKSelectsWhatSortingWould holds the bounded selection to a full sort
// for every k around the candidate count, and pins the buffer at
// min(k, candidates).
func TestTopKSelectsWhatSortingWould(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 200; round++ {
		n, m := rng.Intn(40), 1+rng.Intn(6)
		docs := make([]int64, n)
		vecs := make([][]float64, n)
		norms := make([]float64, n)
		dead := map[int64]bool{}
		var want []Hit
		target := make([]float64, m)
		for j := range target {
			target[j] = float64(rng.Intn(3))
		}
		for i := range docs {
			docs[i] = int64(i)
			if rng.Intn(6) > 0 {
				vecs[i] = make([]float64, m)
				for j := range vecs[i] {
					vecs[i][j] = float64(rng.Intn(3)) // few distinct scores: many ties
				}
			}
			norms[i] = Norm(vecs[i])
			if rng.Intn(7) == 0 {
				dead[docs[i]] = true
			}
			if vecs[i] != nil && i != 3 && !dead[docs[i]] {
				want = append(want, Hit{Doc: docs[i], Score: Cosine(target, vecs[i])})
			}
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].Score != want[b].Score {
				return want[a].Score > want[b].Score
			}
			return want[a].Doc < want[b].Doc
		})
		for _, k := range []int{-1, 0, 1, 2, len(want) - 1, len(want), n, n + 5, 1 << 40} {
			top := NewTopK(target, 3, k, n)
			top.Scan(docs, vecs, norms, nil, dead)
			got := top.Hits()
			if !slices.Equal(got, want[:max(0, min(k, len(want)))]) {
				t.Fatalf("round %d k %d: got %v, want the first %d of %v", round, k, got, k, want)
			}
			if cap(got) > n || top.Flops() != float64(3*m*len(want)) {
				t.Fatalf("round %d k %d: cap %d for %d candidates, %g flops for %d scored",
					round, k, cap(got), n, top.Flops(), len(want))
			}
		}
	}
}

// TestEngineSimilarMatchesCosineOracle holds the batch engine, at one rank
// and at three, to Cosine on every signature plus a full sort.
func TestEngineSimilarMatchesCosineOracle(t *testing.T) {
	for _, p := range []int{1, 3} {
		withEngine(t, p, func(c *cluster.Comm, e *Engine) error {
			// Gather every rank's (doc, vector) rows so each can run the oracle.
			type row struct {
				doc int64
				vec []float64
			}
			var local []row
			for i, v := range e.res.Signatures.Vecs {
				local = append(local, row{e.res.Forward.GlobalDocIDs[i], v})
			}
			var all []row
			for _, part := range c.Allgather(local, 0) {
				all = append(all, part.([]row)...)
			}
			for _, tr := range all {
				if tr.vec == nil {
					continue
				}
				var want []Hit
				for _, r := range all {
					if r.vec != nil && r.doc != tr.doc {
						want = append(want, Hit{Doc: r.doc, Score: Cosine(tr.vec, r.vec)})
					}
				}
				sort.Slice(want, func(a, b int) bool {
					if want[a].Score != want[b].Score {
						return want[a].Score > want[b].Score
					}
					return want[a].Doc < want[b].Doc
				})
				for _, k := range []int{1, len(want) - 1, len(want), len(want) + 5} {
					got, err := e.Similar(tr.doc, k)
					if err != nil {
						return err
					}
					if !slices.Equal(got, want[:min(k, len(want))]) {
						return fmt.Errorf("p=%d Similar(%d, %d) = %v, want %v", p, tr.doc, k, got, want)
					}
				}
			}
			return nil
		})
	}
}

// boundBelowCosine reports the first pair of a block for which the Sketch
// bound, slack included, fell below Cosine — the one thing the filter in
// TopK.Scan must never see. Every signature of the block, then q, is the
// target in turn.
func boundBelowCosine(m int, vecs [][]float64, q []float64) error {
	var norms signature.Norms
	var sk signature.Sketch
	sk.Of(m, vecs, norms.Of(vecs))
	w := sk.R + 1
	var row [signature.MaxRank + 1]float32
	for _, target := range append(slices.Clone(vecs), q) {
		if target == nil || sk.Project(target, Norm(target), row[:]) == 0 {
			continue
		}
		for i, d := range vecs {
			if d == nil {
				continue
			}
			if bound, cos := signature.Bound(sk.Coef[i*w:i*w+w], row[:w]), Cosine(target, d); float64(bound) < cos {
				return fmt.Errorf("bound %g < cosine %g (R=%d)\ntarget %v\nsignature %d: %v", bound, cos, sk.R, target, i, d)
			}
		}
	}
	return nil
}

// sigBlock generates a block of signatures and a target for testing/quick:
// vecPair's mixed magnitudes and exact zeros, with signs, around a few shared
// directions so that the block is worth summarising.
type sigBlock struct {
	m    int
	vecs [][]float64
	q    []float64
}

func (sigBlock) Generate(rng *rand.Rand, size int) reflect.Value {
	b := sigBlock{m: 1 + rng.Intn(size+1)}
	themes := 1 + rng.Intn(4)
	draw := func(i int) []float64 {
		v := make([]float64, b.m)
		if rng.Intn(8) == 0 {
			return v
		}
		for j := range v {
			if j%themes == i%themes {
				v[j] = rng.NormFloat64()
			}
			if rng.Intn(4) == 0 {
				v[j] += rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-9))
			}
		}
		return v
	}
	b.vecs = make([][]float64, rng.Intn(3*size+1))
	for i := range b.vecs {
		if rng.Intn(10) > 0 {
			b.vecs[i] = draw(i)
		}
	}
	b.q = draw(rng.Intn(themes))
	return reflect.ValueOf(b)
}

// TestSketchBoundNeverBelowCosine is the filter's one obligation as a
// property: for arbitrary finite blocks and targets the bound is at least the
// score Scan would compute.
func TestSketchBoundNeverBelowCosine(t *testing.T) {
	holds := func(b sigBlock) bool {
		err := boundBelowCosine(b.m, b.vecs, b.q)
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}
	if err := quick.Check(holds, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSimilarBound is the same property over raw bytes: m, then float64 bit
// patterns dealt into signatures of m components and a target (a non-finite
// pattern reads as a null signature's worth of zeros).
func FuzzSimilarBound(f *testing.F) {
	seed := func(m int, xs ...float64) {
		b := []byte{byte(m)}
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		f.Add(b)
	}
	seed(2, 1, 0, 0, 1, 1, 1, 3, 4, 1, 2)
	seed(3, 1, 2, 3, -1, -2, -3, 1e-90, 2e-90, 0, 1e90, 0, 0, 0.5, 0.25, 0.125)
	seed(1, 1, -1, 2, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := 1 + int(data[0])%12
		var xs []float64
		for data = data[1:]; len(data) >= 8; data = data[8:] {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			xs = append(xs, x)
		}
		var vecs [][]float64
		for ; len(xs) >= m; xs = xs[m:] {
			vecs = append(vecs, xs[:m:m])
		}
		if len(vecs) < 2 {
			return
		}
		if err := boundBelowCosine(m, vecs[1:], vecs[0]); err != nil {
			t.Fatal(err)
		}
	})
}

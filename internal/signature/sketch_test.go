package signature

import (
	"math"
	"math/rand"
	"testing"
)

// sketchBlocks draws blocks of every shape the builder must cope with: a few
// themes plus noise (what a corpus gives it), isotropic, collinear, signed,
// components spread over twelve decades, nulls and zero vectors throughout.
func sketchBlocks(rng *rand.Rand) (m int, vecs [][]float64) {
	m = 1 + rng.Intn(40)
	shape, themes := rng.Intn(5), 1+rng.Intn(6)
	vecs = make([][]float64, rng.Intn(200))
	for i := range vecs {
		switch rng.Intn(12) {
		case 0:
			continue
		case 1:
			vecs[i] = make([]float64, m)
			continue
		}
		v := make([]float64, m)
		for j := range v {
			switch shape {
			case 0: // themed: theme t owns the components j ≡ t
				if j%themes == i%themes {
					v[j] = 1
				}
				v[j] += 0.05 * rng.Float64()
			case 1:
				v[j] = rng.Float64()
			case 2: // collinear
				v[j] = float64(1+j) * math.Ldexp(1, i%7)
			case 3:
				v[j] = rng.NormFloat64()
			default:
				v[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
			}
		}
		vecs[i] = v
	}
	return m, vecs
}

// TestSketchDirectionsOrthonormal holds the builder to gramTol, the one
// assumption SketchSlack's derivation makes about it, and every stored row to
// the float64 decomposition it rounds.
func TestSketchDirectionsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	built := 0
	for round := 0; round < 300; round++ {
		m, vecs := sketchBlocks(rng)
		var norms Norms
		var sk Sketch
		sk.Of(m, vecs, norms.Of(vecs))
		if sk.R == 0 {
			continue
		}
		built++
		if sk.R > MaxRank || sk.R > m || len(sk.Coef) != len(vecs)*(sk.R+1) {
			t.Fatalf("round %d: R=%d for m=%d, %d coefficients for %d signatures", round, sk.R, m, len(sk.Coef), len(vecs))
		}
		for a := 0; a < sk.R; a++ {
			for b := 0; b <= a; b++ {
				var dot, want float64
				for j := 0; j < m; j++ {
					dot += sk.dirs[j*MaxRank+a] * sk.dirs[j*MaxRank+b]
				}
				if a == b {
					want = 1
				}
				if math.Abs(dot-want) > gramTol {
					t.Fatalf("round %d: e%d·e%d = %g, off by more than %g", round, a, b, dot, gramTol)
				}
			}
		}
		w := sk.R + 1
		for i, v := range vecs {
			row := sk.Coef[i*w : i*w+w]
			var sq float64
			for _, c := range row {
				sq += float64(c) * float64(c)
			}
			// |a|² + ρ² is |d̂|² = 1 for a scorable signature, 0 otherwise.
			want := 0.0
			if norms.Of(vecs)[i] != 0 {
				want = 1
			}
			if math.Abs(sq-want) > 1e-5 {
				t.Fatalf("round %d signature %d (%v): row %v has squared length %g, want %g", round, i, v, row, sq, want)
			}
		}
	}
	if built < 200 {
		t.Fatalf("only %d of 300 blocks carried a summary", built)
	}
}

// TestSketchRefusesWhatItCannotBound pins the cases that carry no summary: a
// norm whose square left float64's range, a vector of the wrong length, an
// empty or all-null block — and the nil Sketch a one-shot caller passes.
func TestSketchRefusesWhatItCannotBound(t *testing.T) {
	good := []float64{1, 2, 3}
	for name, vecs := range map[string][][]float64{
		"underflow":    {good, {1e-120, 0, 0}},
		"overflow":     {good, {1e200, 1, 0}},
		"not finite":   {good, {math.Inf(1), 0, 0}},
		"wrong length": {good, {1, 2}},
		"all null":     {nil, nil},
		"all zero":     {{0, 0, 0}},
		"empty":        {},
	} {
		var norms Norms
		var sk Sketch
		var row [MaxRank + 1]float32
		if sk.Of(3, vecs, norms.Of(vecs)); sk.R != 0 || sk.Coef != nil || sk.Project(good, Norm(good), row[:]) != 0 {
			t.Errorf("%s: block carries a summary (R=%d)", name, sk.R)
		}
	}
	var norms Norms
	var sk Sketch
	var row [MaxRank + 1]float32
	vecs := [][]float64{good, {3, 1, 0}}
	sk.Of(3, vecs, norms.Of(vecs))
	for name, q := range map[string][]float64{"zero": {0, 0, 0}, "tiny": {1e-120, 0, 0}, "huge": {1e200, 0, 0}, "short": {1, 2}} {
		if sk.Project(q, Norm(q), row[:]) != 0 {
			t.Errorf("%s target was projected", name)
		}
	}
	if sk.Project(good, Norm(good), row[:]) != sk.R+1 || (*Sketch)(nil).Project(good, Norm(good), row[:]) != 0 {
		t.Error("Project: want the row width on a fitting target, 0 on a nil Sketch")
	}
}

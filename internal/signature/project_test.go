package signature

import (
	"math"
	"testing"

	"inspire/internal/assoc"
	"inspire/internal/topic"
)

// testProjection builds a tiny 3-major × 2-topic matrix by hand.
func testProjection() *Projection {
	am := &assoc.Matrix{
		N: 3, M: 2,
		A: []float64{
			0.5, 0.1, // major row 0 (term 10)
			0.0, 0.4, // major row 1 (term 11)
			0.2, 0.2, // major row 2 (term 12)
		},
		Topics: &topic.Result{Majors: []int64{10, 11, 12}},
	}
	return NewProjection(am)
}

func TestProjectMatchesGenerateArithmetic(t *testing.T) {
	p := testProjection()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// A document with term 10 twice and term 12 once, exactly Generate's
	// arithmetic: rows accumulated ascending, L1-normalized.
	vec := p.Project(map[int64]int64{10: 2, 12: 1, 99: 7})
	raw := []float64{2*0.5 + 0.2, 2*0.1 + 0.2}
	mass := raw[0] + raw[1]
	want := []float64{raw[0] / mass, raw[1] / mass}
	for j := range want {
		if math.Abs(vec[j]-want[j]) > 1e-15 {
			t.Fatalf("vec = %v, want %v", vec, want)
		}
	}
	var l1 float64
	for _, x := range vec {
		l1 += math.Abs(x)
	}
	if math.Abs(l1-1) > 1e-12 {
		t.Fatalf("not L1-normalized: %v", vec)
	}
}

func TestProjectNullCases(t *testing.T) {
	p := testProjection()
	if vec := p.Project(nil); vec != nil {
		t.Fatalf("empty doc projected to %v", vec)
	}
	if vec := p.Project(map[int64]int64{99: 3}); vec != nil {
		t.Fatalf("no-major doc projected to %v", vec)
	}
	// A document whose only major has an all-zero row has no mass: null.
	zero := &Projection{N: 1, M: 2, Majors: []int64{7}, A: []float64{0, 0}}
	if vec := zero.Project(map[int64]int64{7: 5}); vec != nil {
		t.Fatalf("zero-mass doc projected to %v", vec)
	}
}

func TestProjectionValidate(t *testing.T) {
	if NewProjection(nil) != nil {
		t.Fatal("nil matrix should give nil projection")
	}
	bad := &Projection{N: 2, M: 2, Majors: []int64{1}, A: make([]float64, 4)}
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched majors accepted")
	}
	bad2 := &Projection{N: 2, M: 2, Majors: []int64{1, 2}, A: make([]float64, 3)}
	if err := bad2.Validate(); err == nil {
		t.Fatal("short matrix accepted")
	}
}

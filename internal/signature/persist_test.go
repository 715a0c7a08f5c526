package signature

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	ids := []int64{3, 1, 7, 2}
	vecs := [][]float64{
		{0.25, 0.75, 0},
		nil, // null signature
		{0, 0, 1},
		{0.1, 0.2, 0.7},
	}
	var buf bytes.Buffer
	if err := Save(&buf, 3, ids, vecs); err != nil {
		t.Fatal(err)
	}
	m, gotIDs, gotVecs, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m != 3 || len(gotIDs) != 4 {
		t.Fatalf("m=%d count=%d", m, len(gotIDs))
	}
	for i := range ids {
		if gotIDs[i] != ids[i] {
			t.Fatalf("id %d: %d vs %d", i, gotIDs[i], ids[i])
		}
		if (vecs[i] == nil) != (gotVecs[i] == nil) {
			t.Fatalf("null flag %d mismatch", i)
		}
		for d := range vecs[i] {
			if gotVecs[i][d] != vecs[i][d] {
				t.Fatalf("vec %d dim %d: %g vs %g", i, d, gotVecs[i][d], vecs[i][d])
			}
		}
	}
}

func TestSaveValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, 2, []int64{1}, nil); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if err := Save(&buf, 2, []int64{1}, [][]float64{{1, 2, 3}}); err == nil {
		t.Fatal("dim mismatch should fail")
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("BADMAGIC--------------------"),
		append([]byte("INSPSIG1"), 0, 0, 0), // truncated header
	}
	for i, data := range cases {
		if _, _, _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
	// Valid header followed by truncated record.
	var buf bytes.Buffer
	if err := Save(&buf, 2, []int64{1, 2}, [][]float64{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{len(whole) - 1, len(whole) - 9, 21} {
		if _, _, _, err := Load(bytes.NewReader(whole[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Bad record kind.
	mutated := append([]byte(nil), whole...)
	mutated[8+4+8+8] = 9 // first record's kind byte
	if _, _, _, err := Load(bytes.NewReader(mutated)); err == nil ||
		!strings.Contains(err.Error(), "bad kind") {
		t.Errorf("bad kind accepted: %v", err)
	}
}

func TestSaveLoadQuick(t *testing.T) {
	f := func(rawIDs []int64, seed int64, mRaw uint8) bool {
		if len(rawIDs) == 0 {
			return true
		}
		m := int(mRaw%8) + 1
		vecs := make([][]float64, len(rawIDs))
		x := seed
		next := func() float64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return float64(x%1000) / 999
		}
		for i := range vecs {
			if i%3 == 0 {
				continue // null
			}
			v := make([]float64, m)
			for d := range v {
				v[d] = next()
			}
			vecs[i] = v
		}
		var buf bytes.Buffer
		if err := Save(&buf, m, rawIDs, vecs); err != nil {
			return false
		}
		gm, gids, gvecs, err := Load(&buf)
		if err != nil || gm != m || len(gids) != len(rawIDs) {
			return false
		}
		for i := range rawIDs {
			if gids[i] != rawIDs[i] {
				return false
			}
			if (vecs[i] == nil) != (gvecs[i] == nil) {
				return false
			}
			for d := range vecs[i] {
				if vecs[i][d] != gvecs[i][d] && !(math.IsNaN(vecs[i][d]) && math.IsNaN(gvecs[i][d])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSetServingLoadPath(t *testing.T) {
	ids := []int64{3, 1, 7}
	vecs := [][]float64{{0.5, 0.5}, nil, {1, 0}}
	path := t.TempDir() + "/sigs.bin"
	if err := SaveFile(path, 2, ids, vecs); err != nil {
		t.Fatal(err)
	}
	set, err := LoadSetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if set.M != 2 || len(set.Docs) != 3 {
		t.Fatalf("set M=%d len=%d", set.M, len(set.Docs))
	}
	v, ok := set.Vec(7)
	if !ok || v[0] != 1 || v[1] != 0 {
		t.Fatalf("Vec(7) = %v, %v", v, ok)
	}
	if v, ok := set.Vec(1); !ok || v != nil {
		t.Fatalf("null signature lookup = %v, %v", v, ok)
	}
	if _, ok := set.Vec(99); ok {
		t.Fatal("unknown doc found")
	}
	if _, err := NewSet(1, []int64{1, 2}, [][]float64{{1}}); err == nil {
		t.Fatal("mismatched set accepted")
	}
	if _, err := LoadSetFile(t.TempDir() + "/missing.bin"); err == nil {
		t.Fatal("missing file loaded")
	}
}

// TestNormsAreLazyAndShared pins the derived norms: the zero Norms holds none
// (a process that never scans for similarity never touches the vectors for
// them), the first Of call computes one per vector (0 for a null), and
// concurrent first callers share one result.
func TestNormsAreLazyAndShared(t *testing.T) {
	vecs := [][]float64{{3, 4}, nil, {0, 0}, {1, 0}}
	var norms Norms
	if norms.v != nil {
		t.Fatal("zero Norms holds norms")
	}
	got := make([][]float64, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = norms.Of(vecs)
		}()
	}
	wg.Wait()
	for _, n := range got {
		if !reflect.DeepEqual(n, []float64{5, 0, 0, 1}) || &n[0] != &got[0][0] {
			t.Fatalf("norms = %v, want one shared [5 0 0 1]", n)
		}
	}
}

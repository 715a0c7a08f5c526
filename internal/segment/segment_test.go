package segment

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// buildSeg seals a delta holding the given docs, each with one posting for
// every term in its terms list.
func buildSeg(t *testing.T, vocab int64, sigM int, docs map[int64]map[int64]int64, sigs map[int64][]float64) *Segment {
	t.Helper()
	d := NewDelta(vocab, sigM)
	for doc, counts := range docs {
		if err := d.AddMeta(doc, counts, sigs[doc], 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := d.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.Validate(); err != nil {
		t.Fatal(err)
	}
	return seg
}

func TestDeltaSealSortsAndIndexes(t *testing.T) {
	sig7 := []float64{0.5, 0.5}
	seg := buildSeg(t, 4, 2,
		map[int64]map[int64]int64{
			9: {0: 2, 3: 1},
			7: {0: 1},
			8: {2: 5},
		},
		map[int64][]float64{7: sig7},
	)
	if !reflect.DeepEqual(seg.Docs, []int64{7, 8, 9}) {
		t.Fatalf("docs = %v", seg.Docs)
	}
	if seg.MaxDoc() != 9 || seg.NumDocs() != 3 {
		t.Fatalf("bounds: max %d num %d", seg.MaxDoc(), seg.NumDocs())
	}
	docs, freqs := seg.Posts.Postings(0)
	if !reflect.DeepEqual(docs, []int64{7, 9}) || !reflect.DeepEqual(freqs, []int64{1, 2}) {
		t.Fatalf("term 0 postings %v %v", docs, freqs)
	}
	if seg.Posts.Count[1] != 0 || seg.Posts.Count[2] != 1 || seg.Posts.Count[3] != 1 {
		t.Fatalf("counts %v", seg.Posts.Count)
	}
	if !seg.Contains(8) || seg.Contains(6) {
		t.Fatal("contains wrong")
	}
	if v, ok := seg.SigVec(7); !ok || !reflect.DeepEqual(v, sig7) {
		t.Fatalf("sig of 7: %v %v", v, ok)
	}
	if v, ok := seg.SigVec(8); !ok || v != nil {
		t.Fatalf("null sig of 8: %v %v", v, ok)
	}
	if _, ok := seg.SigVec(3); ok {
		t.Fatal("phantom signature")
	}
	if seg.Postings() != 4 {
		t.Fatalf("postings %d", seg.Postings())
	}
}

func TestDeltaRejects(t *testing.T) {
	d := NewDelta(4, 2)
	if err := d.AddMeta(-1, nil, nil, 0, nil); err == nil {
		t.Fatal("negative doc accepted")
	}
	if err := d.AddMeta(1, map[int64]int64{5: 1}, nil, 0, nil); err == nil {
		t.Fatal("out-of-vocab term accepted")
	}
	if err := d.AddMeta(1, map[int64]int64{0: 0}, nil, 0, nil); err == nil {
		t.Fatal("zero count accepted")
	}
	if err := d.AddMeta(1, nil, []float64{1}, 0, nil); err == nil {
		t.Fatal("wrong-dim signature accepted")
	}
	if err := d.AddMeta(1, map[int64]int64{0: 1}, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.AddMeta(1, map[int64]int64{0: 1}, nil, 0, nil); err == nil {
		t.Fatal("duplicate doc accepted")
	}
}

func TestMergeDropsTombstones(t *testing.T) {
	a := buildSeg(t, 3, 0, map[int64]map[int64]int64{
		10: {0: 1, 1: 2},
		12: {1: 1},
	}, nil)
	b := buildSeg(t, 3, 0, map[int64]map[int64]int64{
		11: {0: 3},
		13: {2: 1},
	}, nil)
	m, err := Merge([]*Segment{a, b}, func(d int64) bool { return d == 12 })
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Docs, []int64{10, 11, 13}) {
		t.Fatalf("merged docs %v", m.Docs)
	}
	docs, freqs := m.Posts.Postings(0)
	if !reflect.DeepEqual(docs, []int64{10, 11}) || !reflect.DeepEqual(freqs, []int64{1, 3}) {
		t.Fatalf("merged term 0: %v %v", docs, freqs)
	}
	if docs, _ := m.Posts.Postings(1); !reflect.DeepEqual(docs, []int64{10}) {
		t.Fatalf("tombstoned posting survived: %v", docs)
	}
	if _, err := Merge(nil, nil); err == nil {
		t.Fatal("empty merge accepted")
	}
}

func TestValidateRejectsCorruption(t *testing.T) {
	seg := buildSeg(t, 2, 0, map[int64]map[int64]int64{1: {0: 1}}, nil)
	bad := &Segment{Docs: []int64{2, 1}, SigVecs: [][]float64{nil, nil}, Posts: seg.Posts}
	if err := bad.Validate(); err == nil {
		t.Fatal("unsorted docs accepted")
	}
	bad2 := &Segment{Docs: []int64{3}, SigVecs: [][]float64{nil}, Posts: seg.Posts}
	if err := bad2.Validate(); err == nil {
		t.Fatal("posting outside segment accepted")
	}
}

// metaRow is one document's metadata as the brute-force reference keeps it.
type metaRow struct {
	ts     int64
	facets []string
}

// TestMetaMatchesBruteForce seals random documents — timestamped, faceted,
// both and bare, in random ID order — into several segments and merges them
// with tombstones. Every segment's Meta, read row by row, must equal the
// brute-force rows of exactly the live documents that carry metadata, and
// the merged dictionary must hold only facets a surviving row uses.
func TestMetaMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	truth := make(map[int64]metaRow)
	var segs []*Segment
	next := int64(0)
	for s := 0; s < 4; s++ {
		d := NewDelta(2, 0)
		n := 1 + rng.Intn(12)
		for _, i := range rng.Perm(n) {
			doc := next + int64(i)
			var row metaRow
			if rng.Intn(3) > 0 {
				row.ts = 1 + rng.Int63n(1000)
			}
			for k := 0; k < 4; k++ {
				if rng.Intn(2) == 0 {
					row.facets = append(row.facets, fmt.Sprintf("k%d=v%d", k, rng.Intn(3)))
				}
			}
			truth[doc] = row
			if err := d.AddMeta(doc, map[int64]int64{int64(i % 2): 1}, nil, row.ts, row.facets); err != nil {
				t.Fatal(err)
			}
		}
		next += int64(n)
		seg, err := d.Seal()
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, seg)
	}
	dead := func(doc int64) bool { return doc%5 == 2 }
	merged, err := Merge(segs, dead)
	if err != nil {
		t.Fatal(err)
	}
	for i, seg := range append(segs, merged) {
		if err := seg.Validate(); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		var wantDocs []int64
		for _, doc := range seg.Docs {
			ts, facets := seg.Meta.Lookup(doc)
			want := truth[doc]
			if ts != want.ts || !reflect.DeepEqual(facets, want.facets) {
				t.Fatalf("block %d doc %d: row (%d, %v), brute force (%d, %v)", i, doc, ts, facets, want.ts, want.facets)
			}
			if want.ts != 0 || len(want.facets) > 0 {
				wantDocs = append(wantDocs, doc)
			}
		}
		if !reflect.DeepEqual(seg.Meta.Docs, wantDocs) {
			t.Fatalf("block %d: rows for %v, brute force %v", i, seg.Meta.Docs, wantDocs)
		}
		used := make(map[int64]bool)
		for _, id := range seg.Meta.FacetIDs {
			used[id] = true
		}
		if len(used) != len(seg.Meta.Dict) {
			t.Fatalf("block %d: %d dictionary entries, %d used", i, len(seg.Meta.Dict), len(used))
		}
	}
	for doc := range truth {
		if merged.Contains(doc) == dead(doc) {
			t.Fatalf("merge kept doc %d: %v, dead %v", doc, merged.Contains(doc), dead(doc))
		}
	}
}

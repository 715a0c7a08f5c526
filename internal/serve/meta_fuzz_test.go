package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"inspire/internal/segment"
	"inspire/internal/storefile"
)

// fuzzMetaTable derives a normalized metadata table from a seed: ascending
// unique doc IDs, a mix of zero and non-zero timestamps, and facet rows drawn
// from a small key=value alphabet (empty rows included).
func fuzzMetaTable(seed int64, n int) segment.Meta {
	rng := rand.New(rand.NewSource(seed))
	var b segment.MetaBuilder
	next := int64(rng.Intn(3))
	for i := 0; i < n; i++ {
		doc, ts := next, int64(0)
		next += 1 + int64(rng.Intn(5))
		if rng.Intn(3) > 0 {
			ts = 1 + rng.Int63n(1_000_000)
		}
		var row []string
		for k := rng.Intn(4); k > 0; k-- {
			row = append(row, fmt.Sprintf("k%d=v%d", rng.Intn(3), rng.Intn(4)))
		}
		row, _ = normalizeFacets(row)
		b.Add(doc, ts, row)
	}
	return b.Meta()
}

// metaSectionPayloads extracts the raw per-section payloads of a table's
// encoding — the fuzzer's seed form, small enough to mutate productively
// (whole INSPSTORE4 files are page-aligned, so they make poor fuzz inputs;
// the container itself is FuzzStoreFileRoundTrip's job in internal/storefile).
func metaSectionPayloads(tbl segment.Meta) (docsB, timesB, offsB, idsB, blob, facetOffsB []byte) {
	for _, s := range appendMetaSections(nil, &tbl) {
		switch s.Name {
		case secMetaDocs:
			docsB = s.Data
		case secMetaTimes:
			timesB = s.Data
		case secMetaFacOffs:
			offsB = s.Data
		case secMetaFacIDs:
			idsB = s.Data
		case secFacetBlob:
			blob = s.Data
		case secFacetOffs:
			facetOffsB = s.Data
		}
	}
	return
}

// FuzzFacetSectionRoundTrip drives the INSPSTORE4 metadata sections from
// both ends. Arbitrary section payloads assembled into a well-formed
// container must either be rejected by the section decoder or the metadata
// validator, or decode to vectors that re-encode to decode-identical
// sections — no payload may load as silent garbage. And structured tables
// derived from the fuzzer's integers must encode, survive a full
// encode-decode round trip exactly, and validate.
func FuzzFacetSectionRoundTrip(f *testing.F) {
	for _, seed := range []int64{1, 7, 42} {
		d, tm, o, i, b, fo := metaSectionPayloads(fuzzMetaTable(seed, 16))
		f.Add(d, tm, o, i, b, fo, seed, uint8(16))
	}
	f.Add([]byte{}, []byte{}, []byte{}, []byte{}, []byte{}, []byte{}, int64(0), uint8(0))
	f.Add([]byte{1}, []byte{0, 0, 0, 0, 0, 0, 0, 0}, []byte{}, []byte{}, []byte("k=v"), []byte{}, int64(3), uint8(5))

	f.Fuzz(func(t *testing.T, docsB, timesB, offsB, idsB, blob, facetOffsB []byte, seed int64, n uint8) {
		// Arbitrary payloads: assemble a valid container around them, then
		// reject or round-trip.
		var secs []storefile.Section
		add := func(name string, b []byte) {
			if len(b) > 0 {
				secs = append(secs, storefile.Section{Name: name, Data: b})
			}
		}
		add(secMetaDocs, docsB)
		add(secMetaTimes, timesB)
		add(secMetaFacOffs, offsB)
		add(secMetaFacIDs, idsB)
		add(secFacetBlob, blob)
		add(secFacetOffs, facetOffsB)
		if data, err := storefile.Encode(secs); err == nil && len(secs) > 0 {
			sf, err := storefile.Decode(data)
			if err != nil {
				t.Fatalf("assembled container does not decode: %v", err)
			}
			m, _, err := decodeMetaSections(sf)
			if err == nil {
				if m.Validate(m.Docs) == nil && len(m.Docs) > 0 {
					re := appendMetaSections(nil, &m)
					data2, err := storefile.Encode(re)
					if err != nil {
						t.Fatalf("validated metadata does not re-encode: %v", err)
					}
					sf2, err := storefile.Decode(data2)
					if err != nil {
						t.Fatalf("re-encoded metadata does not decode: %v", err)
					}
					m2, _, err := decodeMetaSections(sf2)
					if err != nil {
						t.Fatalf("re-encoded metadata sections do not decode: %v", err)
					}
					if !reflect.DeepEqual(m.Docs, m2.Docs) || !reflect.DeepEqual(m.Times, m2.Times) ||
						!sameInt64s(m.FacetOffs, m2.FacetOffs) || !sameInt64s(m.FacetIDs, m2.FacetIDs) || !sameStrings(m.Dict, m2.Dict) {
						t.Fatal("metadata sections changed across re-encode")
					}
				}
			}
		}

		// Structured direction: a well-formed table round-trips exactly.
		tbl := fuzzMetaTable(seed, int(n%48))
		tsecs := appendMetaSections(nil, &tbl)
		if len(tbl.Docs) == 0 {
			if len(tsecs) != 0 {
				t.Fatalf("empty table emitted %d sections", len(tsecs))
			}
			return
		}
		data, err := storefile.Encode(tsecs)
		if err != nil {
			t.Fatalf("structured table does not encode: %v", err)
		}
		sf, err := storefile.Decode(data)
		if err != nil {
			t.Fatalf("structured table does not decode: %v", err)
		}
		m, _, err := decodeMetaSections(sf)
		if err != nil {
			t.Fatalf("structured table sections do not decode: %v", err)
		}
		if !reflect.DeepEqual(m.Docs, tbl.Docs) || !reflect.DeepEqual(m.Times, tbl.Times) {
			t.Fatalf("doc/time vectors changed: %v/%v vs %v/%v", m.Docs, m.Times, tbl.Docs, tbl.Times)
		}
		if !sameInt64s(m.FacetOffs, tbl.FacetOffs) || !sameInt64s(m.FacetIDs, tbl.FacetIDs) || !sameStrings(m.Dict, tbl.Dict) {
			t.Fatalf("facet vectors changed: offs %v vs %v, ids %v vs %v, dict %v vs %v",
				m.FacetOffs, tbl.FacetOffs, m.FacetIDs, tbl.FacetIDs, m.Dict, tbl.Dict)
		}
		if err := m.Validate(m.Docs); err != nil {
			t.Fatalf("round-tripped table fails validation: %v", err)
		}
	})
}

// sameInt64s and sameStrings treat nil and empty as equal: an absent section
// decodes to nil where the in-memory builder may hold an empty slice.
func sameInt64s(a, b []int64) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

func sameStrings(a, b []string) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

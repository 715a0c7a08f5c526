package serve

import (
	"fmt"
	"reflect"
	"testing"
)

// FuzzManifestRoundTrip drives the shard-manifest codec from both ends:
// arbitrary bytes must either be rejected or decode to a manifest that
// re-encodes to a decode-identical value, and structured inputs derived from
// the fuzzer's integers must always encode and round-trip exactly.
func FuzzManifestRoundTrip(f *testing.F) {
	seed := &Manifest{
		NumShards: 2, TotalDocs: 9, VocabSize: 4, Route: RouteMod,
		Shards: []ShardInfo{{File: "r.s00", Docs: 5, Postings: 17}, {File: "r.s01", Docs: 4, Postings: 12}},
	}
	data, err := seed.Encode()
	if err != nil {
		f.Fatal(err)
	}
	// The one-shard shape a fully compacted live set saves to.
	oneSeed := &Manifest{
		NumShards: 1, TotalDocs: 4, VocabSize: 3, Route: RouteMod,
		Shards: []ShardInfo{{File: "r.s00", Docs: 4, Postings: 9}},
	}
	oneData, err := oneSeed.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data, uint8(2), uint16(9), uint16(4))
	f.Add(oneData, uint8(3), uint16(7), uint16(3))
	f.Add(append(oneData[:len(oneData):len(oneData)], 0), uint8(1), uint16(4), uint16(3))
	f.Add([]byte(manifestMagic), uint8(1), uint16(0), uint16(0))
	f.Add([]byte(retiredManifestMagic), uint8(1), uint16(2), uint16(1))
	f.Add([]byte{}, uint8(0), uint16(0), uint16(0))

	f.Fuzz(func(t *testing.T, raw []byte, nShards uint8, docs, vocab uint16) {
		// Arbitrary bytes: decode either errors or yields a validated
		// manifest whose encoding decodes back to the same value.
		if m, err := DecodeManifest(raw); err == nil {
			if err := m.Validate(); err != nil {
				t.Fatalf("decoded manifest fails validation: %v", err)
			}
			re, err := m.Encode()
			if err != nil {
				t.Fatalf("decoded manifest does not re-encode: %v", err)
			}
			back, err := DecodeManifest(re)
			if err != nil {
				t.Fatalf("re-encoded manifest does not decode: %v", err)
			}
			if !reflect.DeepEqual(m, back) {
				t.Fatalf("round trip drifted: %#v != %#v", m, back)
			}
		}

		// Structured input: a synthesized valid manifest must round-trip to
		// identity.
		n := int(nShards)%16 + 1
		m := &Manifest{NumShards: n, VocabSize: int64(vocab), Route: RouteMod}
		remaining := int64(docs)
		for i := 0; i < n; i++ {
			d := remaining / int64(n-i)
			remaining -= d
			m.Shards = append(m.Shards, ShardInfo{
				File:     fmt.Sprintf("f.s%02d", i),
				Docs:     d,
				Postings: int64(vocab) * d,
			})
			m.TotalDocs += d
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("valid manifest rejected: %v", err)
		}
		back, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("encoded manifest rejected: %v", err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("structured round trip drifted: %#v != %#v", m, back)
		}
	})
}

package serve

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// The manifest magics head the sidecar manifest of a sharded serving set.
// The shard stores themselves stay ordinary INSPSTORE4 files; the manifest
// is what makes them a set. Version 1 describes a frozen partition; version
// 2 extends each shard with its live state — the sealed ingest segments
// (sidecar INSPSEG1 files), the tombstone set and the document-ID high-water
// mark — so a live set persists and reloads mid-stream. Encode writes v1
// bytes whenever no shard carries live state, so frozen sets stay loadable
// by earlier builds.
const (
	manifestMagic   = "INSPSHARDS1\n"
	manifestMagicV2 = "INSPSHARDS2\n"
)

// RouteMod names the modulo document-partitioning rule (ShardOf). It is the
// only rule this version writes; the field exists so a future rule can be
// introduced without a magic bump.
const RouteMod = "mod"

// manifest codec bounds: decode rejects anything larger, so corrupt or
// adversarial inputs cannot demand huge allocations.
const (
	maxManifestShards   = 1 << 12
	maxManifestString   = 1 << 12
	maxManifestSegments = 1 << 10
	maxManifestTombs    = 1 << 22
)

// Manifest describes a sharded serving set: how many document partitions,
// which rule routes a document to its shard, and the per-shard store files
// with their summary counts (cross-checked at load).
type Manifest struct {
	NumShards int
	TotalDocs int64
	VocabSize int64
	Route     string
	Shards    []ShardInfo
}

// ShardInfo names one shard's store file (relative to the manifest) and its
// summary counts, plus — in a v2 manifest — the shard's live state: its
// sealed ingest segments and tombstoned document IDs.
type ShardInfo struct {
	File     string
	Docs     int64 // base-store document count
	Postings int64 // base-store posting count

	// Segments lists the shard's sealed ingest segments (sidecar files next
	// to the manifest), oldest first. Empty for a frozen shard.
	Segments []SegmentInfo
	// Tombs lists the shard's tombstoned document IDs, strictly ascending.
	Tombs []int64
	// NextDoc persists the shard's document-ID high-water mark when the
	// surviving data no longer implies it — after the highest assigned IDs
	// were deleted and compacted away, their tombstones drop with the data,
	// and without this mark a reloaded set would re-assign them (IDs are
	// never reused). Zero means "derive from the base bound and segments",
	// which is exact whenever the highest ID is still present.
	NextDoc int64
}

// SegmentInfo names one sealed segment file and its document count.
type SegmentInfo struct {
	File string
	Docs int64
}

// liveState reports whether any shard carries live state — segments,
// tombstones or an explicit ID high-water mark — which decides the manifest
// version written.
func (m *Manifest) liveState() bool {
	for _, s := range m.Shards {
		if len(s.Segments) > 0 || len(s.Tombs) > 0 || s.NextDoc > 0 {
			return true
		}
	}
	return false
}

// Validate checks the structural invariants a manifest must satisfy before
// its shard files are touched.
func (m *Manifest) Validate() error {
	switch {
	case m.NumShards <= 0 || m.NumShards > maxManifestShards:
		return fmt.Errorf("serve: manifest has %d shards", m.NumShards)
	case len(m.Shards) != m.NumShards:
		return fmt.Errorf("serve: manifest lists %d shards, header says %d", len(m.Shards), m.NumShards)
	case m.TotalDocs < 0 || m.VocabSize < 0:
		return fmt.Errorf("serve: manifest has negative counts")
	case m.Route != RouteMod:
		return fmt.Errorf("serve: manifest has unknown partition rule %q", m.Route)
	}
	var docs int64
	files := make(map[string]bool, len(m.Shards))
	plainName := func(name string) bool {
		return name != "" && len(name) <= maxManifestString &&
			!strings.ContainsAny(name, "/\\") && name != "." && name != ".."
	}
	for i, s := range m.Shards {
		switch {
		case !plainName(s.File):
			// Shard files live next to the manifest; anything else would let
			// a manifest reach outside its own directory.
			return fmt.Errorf("serve: manifest shard %d has a bad file name", i)
		case files[s.File]:
			// A repeated file would serve its documents twice, breaking the
			// disjointness every gather merge relies on.
			return fmt.Errorf("serve: manifest shard %d repeats file %q", i, s.File)
		case s.Docs < 0 || s.Postings < 0:
			return fmt.Errorf("serve: manifest shard %d has negative counts", i)
		case len(s.Segments) > maxManifestSegments:
			return fmt.Errorf("serve: manifest shard %d has %d segments", i, len(s.Segments))
		case len(s.Tombs) > maxManifestTombs:
			return fmt.Errorf("serve: manifest shard %d has %d tombstones", i, len(s.Tombs))
		case s.NextDoc < 0:
			return fmt.Errorf("serve: manifest shard %d has negative next-doc mark", i)
		}
		files[s.File] = true
		docs += s.Docs
		for j, seg := range s.Segments {
			switch {
			case !plainName(seg.File):
				return fmt.Errorf("serve: manifest shard %d segment %d has a bad file name", i, j)
			case files[seg.File]:
				return fmt.Errorf("serve: manifest shard %d repeats file %q", i, seg.File)
			case seg.Docs < 0:
				return fmt.Errorf("serve: manifest shard %d segment %d has negative docs", i, j)
			}
			files[seg.File] = true
		}
		for j, d := range s.Tombs {
			if d < 0 || (j > 0 && d <= s.Tombs[j-1]) {
				return fmt.Errorf("serve: manifest shard %d tombstones not strictly ascending at %d", i, j)
			}
		}
	}
	if docs != m.TotalDocs {
		return fmt.Errorf("serve: manifest shards sum to %d docs, header says %d", docs, m.TotalDocs)
	}
	return nil
}

// Encode serializes the manifest: magic, then uvarint counts and
// length-prefixed strings. The format is versioned by the magic alone: v1
// bytes when no shard carries live state (identical to what earlier builds
// wrote and read), v2 otherwise, which appends each shard's segment list and
// delta-coded tombstone IDs.
func (m *Manifest) Encode() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	live := m.liveState()
	magic := manifestMagic
	if live {
		magic = manifestMagicV2
	}
	buf := []byte(magic)
	buf = binary.AppendUvarint(buf, uint64(m.NumShards))
	buf = binary.AppendUvarint(buf, uint64(m.TotalDocs))
	buf = binary.AppendUvarint(buf, uint64(m.VocabSize))
	buf = appendString(buf, m.Route)
	for _, s := range m.Shards {
		buf = appendString(buf, s.File)
		buf = binary.AppendUvarint(buf, uint64(s.Docs))
		buf = binary.AppendUvarint(buf, uint64(s.Postings))
		if !live {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(len(s.Segments)))
		for _, seg := range s.Segments {
			buf = appendString(buf, seg.File)
			buf = binary.AppendUvarint(buf, uint64(seg.Docs))
		}
		buf = binary.AppendUvarint(buf, uint64(len(s.Tombs)))
		prev := int64(0)
		for _, d := range s.Tombs {
			buf = binary.AppendUvarint(buf, uint64(d-prev))
			prev = d
		}
		buf = binary.AppendUvarint(buf, uint64(s.NextDoc))
	}
	return buf, nil
}

// DecodeManifest parses and validates a manifest written by Encode, either
// version.
func DecodeManifest(data []byte) (*Manifest, error) {
	live := false
	switch {
	case len(data) >= len(manifestMagic) && string(data[:len(manifestMagic)]) == manifestMagic:
	case len(data) >= len(manifestMagicV2) && string(data[:len(manifestMagicV2)]) == manifestMagicV2:
		live = true
	default:
		return nil, fmt.Errorf("serve: not a shard manifest")
	}
	r := &byteReader{buf: data[len(manifestMagic):]}
	m := &Manifest{}
	m.NumShards = int(r.uvarint())
	m.TotalDocs = int64(r.uvarint())
	m.VocabSize = int64(r.uvarint())
	m.Route = r.string()
	if r.err == nil && (m.NumShards < 0 || m.NumShards > maxManifestShards) {
		return nil, fmt.Errorf("serve: manifest has %d shards", m.NumShards)
	}
	if r.err == nil {
		m.Shards = make([]ShardInfo, m.NumShards)
		for i := range m.Shards {
			s := &m.Shards[i]
			s.File = r.string()
			s.Docs = int64(r.uvarint())
			s.Postings = int64(r.uvarint())
			if !live || r.err != nil {
				continue
			}
			nSegs := r.uvarint()
			if nSegs > maxManifestSegments {
				return nil, fmt.Errorf("serve: manifest shard %d has %d segments", i, nSegs)
			}
			for j := uint64(0); j < nSegs && r.err == nil; j++ {
				s.Segments = append(s.Segments, SegmentInfo{File: r.string(), Docs: int64(r.uvarint())})
			}
			nTombs := r.uvarint()
			if nTombs > maxManifestTombs {
				return nil, fmt.Errorf("serve: manifest shard %d has %d tombstones", i, nTombs)
			}
			prev := int64(0)
			for j := uint64(0); j < nTombs && r.err == nil; j++ {
				prev += int64(r.uvarint())
				s.Tombs = append(s.Tombs, prev)
			}
			s.NextDoc = int64(r.uvarint())
		}
	}
	// A v2 manifest without live state would re-encode as v1; reject it so
	// encode(decode(x)) stays the identity on every accepted input.
	if r.err == nil && live && !m.liveState() {
		return nil, fmt.Errorf("serve: v2 manifest carries no live state")
	}
	switch {
	case r.err != nil:
		return nil, fmt.Errorf("serve: corrupt manifest: %w", r.err)
	case len(r.buf) != 0:
		return nil, fmt.Errorf("serve: manifest has %d trailing bytes", len(r.buf))
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// appendString appends a uvarint length prefix and the bytes.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// byteReader cursors over the manifest body, latching the first error so the
// decode loop stays linear.
type byteReader struct {
	buf []byte
	err error
}

func (r *byteReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = fmt.Errorf("truncated uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *byteReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxManifestString || n > uint64(len(r.buf)) {
		r.err = fmt.Errorf("string length %d out of bounds", n)
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

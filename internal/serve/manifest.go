package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
)

// manifestMagic heads the sidecar manifest of a sharded serving set. The
// shard stores themselves stay ordinary INSPSTORE4 files; the manifest is
// what makes them a set. A live set persists the same way: Router.SaveLive
// rebases every shard first, so the document-ID high-water mark and the
// deleted IDs travel inside each shard file (GlobalDocs, Holes).
const manifestMagic = "INSPSHARDS1\n"

// retiredManifestMagic headed the live-set manifests earlier builds wrote
// (sealed segments in INSPSEG1 sidecars, tombstones and an ID mark in the
// manifest). It is still recognised as a manifest so that loading one fails
// by name instead of as "not a store".
const retiredManifestMagic = "INSPSHARDS2\n"

// RouteMod names the modulo document-partitioning rule (ShardOf). It is the
// only rule this version writes; the field exists so a future rule can be
// introduced without a magic bump.
const RouteMod = "mod"

// manifest codec bounds: decode rejects anything larger, so corrupt or
// adversarial inputs cannot demand huge allocations.
const (
	maxManifestShards = 1 << 12
	maxManifestString = 1 << 12
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
// summary counts.
type ShardInfo struct {
	File     string
	Docs     int64 // store document count
	Postings int64 // store posting count
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
	for i, s := range m.Shards {
		switch {
		case s.File == "" || len(s.File) > maxManifestString ||
			strings.ContainsAny(s.File, "/\\") || s.File == "." || s.File == "..":
			// Shard files live next to the manifest; anything else would let
			// a manifest reach outside its own directory.
			return fmt.Errorf("serve: manifest shard %d has a bad file name", i)
		case files[s.File]:
			// A repeated file would serve its documents twice, breaking the
			// disjointness every gather merge relies on.
			return fmt.Errorf("serve: manifest shard %d repeats file %q", i, s.File)
		case s.Docs < 0 || s.Postings < 0:
			return fmt.Errorf("serve: manifest shard %d has negative counts", i)
		}
		files[s.File] = true
		docs += s.Docs
	}
	if docs != m.TotalDocs {
		return fmt.Errorf("serve: manifest shards sum to %d docs, header says %d", docs, m.TotalDocs)
	}
	return nil
}

// Encode serializes the manifest: magic, then uvarint counts and
// length-prefixed strings.
func (m *Manifest) Encode() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	buf := []byte(manifestMagic)
	buf = binary.AppendUvarint(buf, uint64(m.NumShards))
	buf = binary.AppendUvarint(buf, uint64(m.TotalDocs))
	buf = binary.AppendUvarint(buf, uint64(m.VocabSize))
	buf = appendString(buf, m.Route)
	for _, s := range m.Shards {
		buf = appendString(buf, s.File)
		buf = binary.AppendUvarint(buf, uint64(s.Docs))
		buf = binary.AppendUvarint(buf, uint64(s.Postings))
	}
	return buf, nil
}

// DecodeManifest parses and validates a manifest written by Encode. A
// retired live-set manifest is refused by name, with its remedy.
func DecodeManifest(data []byte) (*Manifest, error) {
	switch {
	case bytes.HasPrefix(data, []byte(retiredManifestMagic)):
		return nil, fmt.Errorf("retired live-set manifest INSPSHARDS2 (last read by build 21c88cd); re-index: inspired -in <corpus> -shards N -save-store <file>")
	case !bytes.HasPrefix(data, []byte(manifestMagic)):
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
		}
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

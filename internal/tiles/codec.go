package tiles

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Magic heads the persisted pyramid (the tiles section of a store file). The
// encoding carries the configuration, the world bounds and the leaf member
// entries only: every higher-zoom aggregate is a pure function of the
// leaves, so Decode rebuilds them — a persisted pyramid cannot go out of
// step with itself, and corruption in an aggregate is structurally
// impossible. Version 2 added the per-entry timestamp and facet strings;
// version 1 is refused.
const Magic = "INSPTILES2\n"

// Codec bounds on per-entry metadata: Decode rejects anything larger, so a
// corrupt sidecar cannot demand huge allocations. The serving layer validates
// facets at ingest well inside these.
const (
	maxEntryFacets = 64
	maxFacetLen    = 1024
)

// Encode serializes the pyramid canonically: leaves ascending by tile
// address, entries ascending by document ID, coordinates as raw IEEE-754
// bits. Decode(Encode(p)) reproduces p exactly, and Encode(Decode(b)) == b
// for every accepted b.
func (p *Pyramid) Encode() []byte {
	buf := []byte(Magic)
	buf = binary.AppendUvarint(buf, uint64(p.cfg.MaxZoom))
	buf = binary.AppendUvarint(buf, uint64(p.cfg.Grid))
	buf = binary.AppendUvarint(buf, uint64(p.cfg.Exemplars))
	for _, f := range []float64{p.b.MinX, p.b.MinY, p.b.MaxX, p.b.MaxY} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	keys := make([]uint64, 0, len(p.leaves))
	for k := range p.leaves {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, k>>28&(1<<28-1))
		buf = binary.AppendUvarint(buf, k&(1<<28-1))
		l := p.leaves[k]
		buf = binary.AppendUvarint(buf, uint64(len(l)))
		prev := int64(-1)
		for _, e := range l {
			buf = binary.AppendUvarint(buf, uint64(e.Doc-prev))
			prev = e.Doc
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.X))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Y))
			buf = binary.AppendVarint(buf, e.Cluster)
			buf = binary.AppendVarint(buf, e.Time)
			buf = binary.AppendUvarint(buf, uint64(len(e.Facets)))
			for _, id := range e.Facets {
				f := p.dict[id]
				buf = binary.AppendUvarint(buf, uint64(len(f)))
				buf = append(buf, f...)
			}
		}
	}
	return buf
}

// Decode parses a sidecar written by Encode, rebuilding the aggregate tiles
// from the leaf entries, and rejects anything non-canonical: unsorted or
// duplicate leaves or documents, entries binned under the wrong leaf,
// non-finite coordinates, clusters below -1, unsorted or oversized facet
// sets, or trailing bytes.
func Decode(data []byte) (*Pyramid, error) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("tiles: not a tile-pyramid sidecar")
	}
	r := &byteReader{buf: data[len(Magic):]}
	cfg := Config{
		MaxZoom:   int(r.uvarint()),
		Grid:      int(r.uvarint()),
		Exemplars: int(r.uvarint()),
	}
	b := Rect{MinX: r.float(), MinY: r.float(), MaxX: r.float(), MaxY: r.float()}
	if r.err != nil {
		return nil, fmt.Errorf("tiles: corrupt sidecar: %w", r.err)
	}
	// Validate the configuration exactly as persisted: defaulting a zero
	// field here would make the re-encoding differ from the input.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := New(cfg, b)
	if err != nil {
		return nil, err
	}
	nLeaves := r.uvarint()
	prevKey := int64(-1)
	for i := uint64(0); i < nLeaves && r.err == nil; i++ {
		lx, ly := r.uvarint(), r.uvarint()
		n := 1 << cfg.MaxZoom
		if lx >= uint64(n) || ly >= uint64(n) {
			return nil, fmt.Errorf("tiles: leaf (%d,%d) outside zoom %d", lx, ly, cfg.MaxZoom)
		}
		k := key(cfg.MaxZoom, int(lx), int(ly))
		if int64(k) <= prevKey {
			return nil, fmt.Errorf("tiles: leaves not strictly ascending")
		}
		prevKey = int64(k)
		nEntries := r.uvarint()
		if nEntries == 0 && r.err == nil {
			// An empty leaf would vanish on re-encode; only non-empty
			// leaves are canonical.
			return nil, fmt.Errorf("tiles: empty leaf record")
		}
		prevDoc := int64(-1)
		for j := uint64(0); j < nEntries && r.err == nil; j++ {
			delta := r.uvarint()
			// prevDoc >= -1, so prevDoc+1 >= 0; doc = prevDoc + delta must
			// stay within int64.
			if delta == 0 || delta-1 > uint64(math.MaxInt64)-uint64(prevDoc+1) {
				return nil, fmt.Errorf("tiles: leaf documents not strictly ascending")
			}
			e := Entry{Doc: prevDoc + int64(delta), X: r.float(), Y: r.float(), Cluster: r.varint()}
			prevDoc = e.Doc
			if r.err == nil {
				e.Time = r.varint()
				nf := r.uvarint()
				if nf > maxEntryFacets {
					return nil, fmt.Errorf("tiles: document %d has %d facets (max %d)", e.Doc, nf, maxEntryFacets)
				}
				for fi := uint64(0); fi < nf && r.err == nil; fi++ {
					f := r.str(maxFacetLen)
					if r.err != nil {
						break
					}
					e.Facets = append(e.Facets, f)
				}
			}
			if r.err != nil {
				break
			}
			if !p.Add(e) {
				return nil, errRefused(e.Doc)
			}
			u, v := p.norm(e.X, e.Y)
			if clampBin(u, n) != int(lx) || clampBin(v, n) != int(ly) {
				return nil, fmt.Errorf("tiles: document %d filed under the wrong leaf", e.Doc)
			}
		}
	}
	switch {
	case r.err != nil:
		return nil, fmt.Errorf("tiles: corrupt sidecar: %w", r.err)
	case len(r.buf) != 0:
		return nil, fmt.Errorf("tiles: sidecar has %d trailing bytes", len(r.buf))
	}
	return p, nil
}

// byteReader cursors over the sidecar body, latching the first error.
type byteReader struct {
	buf []byte
	err error
}

// uvarintLen returns the minimal encoded length of v — the decoder rejects
// padded encodings so every accepted sidecar is canonical and re-encodes
// byte-identically.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func (r *byteReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 || n != uvarintLen(v) {
		r.err = fmt.Errorf("truncated or non-minimal uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *byteReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	u := uint64(v) << 1
	if v < 0 {
		u = ^u
	}
	if n <= 0 || n != uvarintLen(u) {
		r.err = fmt.Errorf("truncated or non-minimal varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// str reads a length-prefixed string of at most maxLen bytes.
func (r *byteReader) str(maxLen int) string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(maxLen) || n > uint64(len(r.buf)) {
		r.err = fmt.Errorf("truncated or oversized string")
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

func (r *byteReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.err = fmt.Errorf("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.err = fmt.Errorf("non-finite float")
		return 0
	}
	return v
}

// Package storefile implements the INSPSTORE4 on-disk layout: a page-aligned
// container of named byte sections behind a small directory, designed so a
// serving process can mmap the file and address every section — posting
// blobs, term dictionary, signatures, projected points, tile sidecar —
// directly in the mapped pages with no load-time copy. Pages are shared
// between processes mapping the same file, so spawning a replica costs page
// tables, not a heap.
//
// Layout:
//
//	offset 0   magic "INSPSTORE4\n"            (11 bytes)
//	offset 11  flags                           (1 byte, must be zero)
//	offset 12  TOC length                      (uint32 little-endian)
//	offset 16  TOC                             (see below)
//	...        zero padding to a page boundary
//	           section 0 bytes
//	...        zero padding to a page boundary
//	           section 1 bytes
//	...
//
// The TOC is: uvarint section count, then per section a uvarint name length,
// the name bytes, a uvarint offset and a uvarint length. Every uvarint must
// use its minimal encoding, names must be non-empty [a-z0-9_] and unique,
// and each section's offset must equal the previous section's end rounded up
// to PageSize (the first section starts at the end of the TOC rounded up).
// The file ends exactly at the last section's end and all padding bytes are
// zero, so for any valid file Encode(Decode(file)) reproduces it bit for bit
// — the encoding is canonical, which is what the round-trip fuzzer checks.
//
// Page alignment means every section is at least 8-byte aligned in the
// mapping, so fixed-width numeric sections can be aliased in place (see
// Int64s / Float64s) on little-endian hosts instead of decoded.
package storefile

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
)

const (
	// Magic is the 11-byte format line, same shape as the INSPSTORE1..3
	// magics so format sniffing reads a fixed prefix.
	Magic = "INSPSTORE4\n"
	// PageSize is the section alignment. 4096 matches the smallest page
	// size on every platform we serve from; mapped section starts are
	// therefore always machine-word aligned.
	PageSize = 4096

	headerSize  = len(Magic) + 1 + 4
	maxSections = 256
	maxNameLen  = 64
)

// Section is one named byte range of a store file.
type Section struct {
	Name string
	Data []byte
}

// File is a decoded store file. Section data aliases the underlying buffer,
// which is the live mapping when the file was opened with Open on a platform
// with mmap support.
type File struct {
	data   []byte
	mapped bool
	path   string
	secs   []Section
	idx    map[string]int
}

// validName reports whether a section name is well-formed.
func validName(name string) bool {
	if len(name) == 0 || len(name) > maxNameLen {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

// alignUp rounds n up to the next PageSize boundary.
func alignUp(n int64) int64 {
	return (n + PageSize - 1) &^ (PageSize - 1)
}

// checkSections validates a section list for writing: count, names, sizes.
func checkSections(sections []Section) error {
	if len(sections) > maxSections {
		return fmt.Errorf("storefile: %d sections exceeds limit %d", len(sections), maxSections)
	}
	seen := make(map[string]bool, len(sections))
	for _, s := range sections {
		if !validName(s.Name) {
			return fmt.Errorf("storefile: invalid section name %q", s.Name)
		}
		if seen[s.Name] {
			return fmt.Errorf("storefile: duplicate section %q", s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// layout computes the TOC bytes and each section's assigned offset.
func layout(sections []Section) (toc []byte, offsets []int64, err error) {
	if err := checkSections(sections); err != nil {
		return nil, nil, err
	}
	// The TOC length depends on the offsets, which depend on the TOC
	// length. Offsets are monotone in the TOC length, so iterate to a
	// fixed point; two rounds always converge because a longer TOC can
	// only push the first section to the next page boundary, which can
	// only grow uvarint widths, which converges immediately after.
	offsets = make([]int64, len(sections))
	tocLen := 0
	for iter := 0; ; iter++ {
		toc = binary.AppendUvarint(toc[:0], uint64(len(sections)))
		end := int64(headerSize + tocLen)
		for i, s := range sections {
			off := alignUp(end)
			offsets[i] = off
			end = off + int64(len(s.Data))
			toc = binary.AppendUvarint(toc, uint64(len(s.Name)))
			toc = append(toc, s.Name...)
			toc = binary.AppendUvarint(toc, uint64(off))
			toc = binary.AppendUvarint(toc, uint64(len(s.Data)))
		}
		if len(toc) == tocLen {
			return toc, offsets, nil
		}
		if iter > 4 {
			return nil, nil, fmt.Errorf("storefile: TOC layout did not converge")
		}
		tocLen = len(toc)
	}
}

// Write streams the INSPSTORE4 encoding of sections to w.
func Write(w io.Writer, sections []Section) error {
	toc, offsets, err := layout(sections)
	if err != nil {
		return err
	}
	var hdr [headerSize]byte
	copy(hdr[:], Magic)
	hdr[len(Magic)] = 0 // flags
	binary.LittleEndian.PutUint32(hdr[len(Magic)+1:], uint32(len(toc)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(toc); err != nil {
		return err
	}
	pad := make([]byte, PageSize)
	end := int64(headerSize + len(toc))
	for i, s := range sections {
		if gap := offsets[i] - end; gap > 0 {
			if _, err := w.Write(pad[:gap]); err != nil {
				return err
			}
		}
		if _, err := w.Write(s.Data); err != nil {
			return err
		}
		end = offsets[i] + int64(len(s.Data))
	}
	return nil
}

// Encode returns the INSPSTORE4 encoding of sections.
func Encode(sections []Section) ([]byte, error) {
	toc, offsets, err := layout(sections)
	if err != nil {
		return nil, err
	}
	size := int64(headerSize + len(toc))
	if n := len(sections); n > 0 {
		size = offsets[n-1] + int64(len(sections[n-1].Data))
	}
	buf := make([]byte, size)
	copy(buf, Magic)
	binary.LittleEndian.PutUint32(buf[len(Magic)+1:], uint32(len(toc)))
	copy(buf[headerSize:], toc)
	for i, s := range sections {
		copy(buf[offsets[i]:], s.Data)
	}
	return buf, nil
}

// Sniff reports whether prefix begins with the INSPSTORE4 magic.
func Sniff(prefix []byte) bool {
	return len(prefix) >= len(Magic) && string(prefix[:len(Magic)]) == Magic
}

// uvarint decodes a minimally-encoded uvarint, rejecting padded encodings so
// the format stays canonical.
func uvarint(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, fmt.Errorf("storefile: truncated or oversized uvarint")
	}
	if n > 1 && b[n-1] == 0 {
		return 0, 0, fmt.Errorf("storefile: non-minimal uvarint")
	}
	return v, n, nil
}

// Decode parses data as an INSPSTORE4 file. Section data aliases data; the
// caller must keep data immutable for the life of the File. Decode enforces
// the canonical layout — computed offsets, zero padding, exact file length —
// so any accepted input re-encodes to itself.
func Decode(data []byte) (*File, error) {
	if !Sniff(data) {
		return nil, fmt.Errorf("storefile: bad magic")
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("storefile: truncated header")
	}
	if flags := data[len(Magic)]; flags != 0 {
		return nil, fmt.Errorf("storefile: unknown flags 0x%02x", flags)
	}
	tocLen := int64(binary.LittleEndian.Uint32(data[len(Magic)+1:]))
	if int64(headerSize)+tocLen > int64(len(data)) {
		return nil, fmt.Errorf("storefile: TOC length %d exceeds file", tocLen)
	}
	toc := data[headerSize : int64(headerSize)+tocLen]
	count, n, err := uvarint(toc)
	if err != nil {
		return nil, err
	}
	toc = toc[n:]
	if count > maxSections {
		return nil, fmt.Errorf("storefile: %d sections exceeds limit %d", count, maxSections)
	}
	f := &File{
		data: data,
		secs: make([]Section, 0, count),
		idx:  make(map[string]int, count),
	}
	end := int64(headerSize) + tocLen
	for i := uint64(0); i < count; i++ {
		nameLen, n, err := uvarint(toc)
		if err != nil {
			return nil, err
		}
		toc = toc[n:]
		if nameLen > maxNameLen || uint64(len(toc)) < nameLen {
			return nil, fmt.Errorf("storefile: section %d: bad name length %d", i, nameLen)
		}
		name := string(toc[:nameLen])
		toc = toc[nameLen:]
		if !validName(name) {
			return nil, fmt.Errorf("storefile: invalid section name %q", name)
		}
		if _, dup := f.idx[name]; dup {
			return nil, fmt.Errorf("storefile: duplicate section %q", name)
		}
		off64, n, err := uvarint(toc)
		if err != nil {
			return nil, err
		}
		toc = toc[n:]
		length64, n, err := uvarint(toc)
		if err != nil {
			return nil, err
		}
		toc = toc[n:]
		off, length := int64(off64), int64(length64)
		if off != alignUp(end) {
			return nil, fmt.Errorf("storefile: section %q at offset %d, want %d", name, off, alignUp(end))
		}
		if length < 0 || off+length > int64(len(data)) || off+length < off {
			return nil, fmt.Errorf("storefile: section %q [%d,%d) exceeds file size %d", name, off, off+length, len(data))
		}
		for _, b := range data[end:off] {
			if b != 0 {
				return nil, fmt.Errorf("storefile: nonzero padding before section %q", name)
			}
		}
		f.idx[name] = len(f.secs)
		f.secs = append(f.secs, Section{Name: name, Data: data[off : off+length : off+length]})
		end = off + length
	}
	if len(toc) != 0 {
		return nil, fmt.Errorf("storefile: %d trailing TOC bytes", len(toc))
	}
	if end != int64(len(data)) {
		return nil, fmt.Errorf("storefile: %d trailing bytes after last section", int64(len(data))-end)
	}
	return f, nil
}

// ReadFile loads path fully into heap and decodes it: Open's fallback where
// mmap is unavailable, and the copy-decode reference tests compare against.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	f.path = path
	return f, nil
}

// Open maps path and decodes it. On platforms without mmap support it falls
// back to ReadFile. The mapping is never unmapped while any Section slice is
// reachable; Close is for tests and tools that know no references remain.
func Open(path string) (*File, error) {
	f, err := openMapped(path)
	if err != nil {
		return nil, err
	}
	f.path = path
	return f, nil
}

// Section returns the named section's bytes. The slice aliases the mapped
// file (or the decode buffer) — callers must treat it as read-only.
func (f *File) Section(name string) ([]byte, bool) {
	i, ok := f.idx[name]
	if !ok {
		return nil, false
	}
	return f.secs[i].Data, true
}

// Names returns the section names in file order.
func (f *File) Names() []string {
	names := make([]string, len(f.secs))
	for i, s := range f.secs {
		names[i] = s.Name
	}
	return names
}

// Sections returns a copy of the section directory, file order preserved.
func (f *File) Sections() []Section {
	return append([]Section(nil), f.secs...)
}

// Mapped reports whether the file bytes are a live mmap rather than heap.
func (f *File) Mapped() bool { return f.mapped }

// Size is the total file size in bytes.
func (f *File) Size() int64 { return int64(len(f.data)) }

// Path is the file this was opened from, empty for Decode.
func (f *File) Path() string { return f.path }

// Close releases the mapping. After Close every Section slice previously
// returned is invalid; serving code never calls this (mappings live until
// process exit), it exists for tests and one-shot tools.
func (f *File) Close() error {
	data, mapped := f.data, f.mapped
	f.data, f.secs, f.idx, f.mapped = nil, nil, nil, false
	if mapped {
		return unmap(data)
	}
	return nil
}

// SortedNames returns the section names sorted, for deterministic listings.
func (f *File) SortedNames() []string {
	names := f.Names()
	sort.Strings(names)
	return names
}

package signature

// Persistence of knowledge signatures — pipeline step 7 of the paper:
// "Persist the knowledge signatures … These signatures comprise a valuable
// intermediate product of the text engine." The binary format is
// self-describing and versioned so persisted signatures can be reloaded to
// re-run clustering and projection without repeating scan/index/signature
// generation.
//
// Layout (little-endian):
//
//	magic   [8]byte  "INSPSIG1"
//	m       uint32   signature dimensionality
//	count   uint64   number of records
//	records count times:
//	  doc   int64    global document ID
//	  kind  uint8    0 = null signature, 1 = vector follows
//	  vec   m float64 (only when kind == 1)

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"inspire/internal/storefile"
)

var sigMagic = [8]byte{'I', 'N', 'S', 'P', 'S', 'I', 'G', '1'}

// Save writes signatures (parallel slices of document IDs and vectors, nil
// for null signatures) in the persistent format. m is the dimensionality;
// every non-nil vector must have length m.
func Save(w io.Writer, m int, docIDs []int64, vecs [][]float64) error {
	if len(docIDs) != len(vecs) {
		return fmt.Errorf("signature: save: %d ids for %d vectors", len(docIDs), len(vecs))
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(sigMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(m)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(vecs))); err != nil {
		return err
	}
	buf := make([]byte, 8)
	for i, v := range vecs {
		binary.LittleEndian.PutUint64(buf, uint64(docIDs[i]))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		if v == nil {
			if err := bw.WriteByte(0); err != nil {
				return err
			}
			continue
		}
		if len(v) != m {
			return fmt.Errorf("signature: save: record %d has dim %d, want %d", i, len(v), m)
		}
		if err := bw.WriteByte(1); err != nil {
			return err
		}
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(x))
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load reads signatures written by Save.
func Load(r io.Reader) (m int, docIDs []int64, vecs [][]float64, err error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err = io.ReadFull(br, magic[:]); err != nil {
		return 0, nil, nil, fmt.Errorf("signature: load: %w", err)
	}
	if magic != sigMagic {
		return 0, nil, nil, fmt.Errorf("signature: load: bad magic %q", magic[:])
	}
	var m32 uint32
	if err = binary.Read(br, binary.LittleEndian, &m32); err != nil {
		return 0, nil, nil, err
	}
	var count uint64
	if err = binary.Read(br, binary.LittleEndian, &count); err != nil {
		return 0, nil, nil, err
	}
	m = int(m32)
	const maxRecords = 1 << 40
	if count > maxRecords {
		return 0, nil, nil, fmt.Errorf("signature: load: implausible record count %d", count)
	}
	docIDs = make([]int64, 0, count)
	vecs = make([][]float64, 0, count)
	buf := make([]byte, 8)
	for i := uint64(0); i < count; i++ {
		if _, err = io.ReadFull(br, buf); err != nil {
			return 0, nil, nil, fmt.Errorf("signature: load: record %d: %w", i, err)
		}
		docIDs = append(docIDs, int64(binary.LittleEndian.Uint64(buf)))
		kind, err := br.ReadByte()
		if err != nil {
			return 0, nil, nil, fmt.Errorf("signature: load: record %d: %w", i, err)
		}
		switch kind {
		case 0:
			vecs = append(vecs, nil)
		case 1:
			v := make([]float64, m)
			for d := 0; d < m; d++ {
				if _, err := io.ReadFull(br, buf); err != nil {
					return 0, nil, nil, fmt.Errorf("signature: load: record %d dim %d: %w", i, d, err)
				}
				v[d] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
			}
			vecs = append(vecs, v)
		default:
			return 0, nil, nil, fmt.Errorf("signature: load: record %d: bad kind %d", i, kind)
		}
	}
	return m, docIDs, vecs, nil
}

// SaveFile persists signatures to a file in the Save format, atomically.
func SaveFile(path string, m int, docIDs []int64, vecs [][]float64) error {
	return storefile.WriteFileAtomic(path, func(w io.Writer) error {
		return Save(w, m, docIDs, vecs)
	})
}

// Set is a loaded signature collection indexed for serving: the query layer
// resolves a document's knowledge signature without rescanning the records.
type Set struct {
	M    int
	Docs []int64
	Vecs [][]float64 // nil entries are null signatures

	idx map[int64]int
}

// NewSet indexes parallel docID/vector slices as a serving set.
func NewSet(m int, docs []int64, vecs [][]float64) (*Set, error) {
	if len(docs) != len(vecs) {
		return nil, fmt.Errorf("signature: set: %d ids for %d vectors", len(docs), len(vecs))
	}
	s := &Set{M: m, Docs: docs, Vecs: vecs, idx: make(map[int64]int, len(docs))}
	for i, d := range docs {
		s.idx[d] = i
	}
	return s, nil
}

// LoadSet reads a persisted signature file into an indexed serving set.
func LoadSet(r io.Reader) (*Set, error) {
	m, docs, vecs, err := Load(r)
	if err != nil {
		return nil, err
	}
	return NewSet(m, docs, vecs)
}

// LoadSetFile reads a persisted signature file by path.
func LoadSetFile(path string) (*Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSet(f)
}

// Vec returns the signature vector of a document (nil, true for a present
// null signature; nil, false for an unknown document).
func (s *Set) Vec(doc int64) ([]float64, bool) {
	i, ok := s.idx[doc]
	if !ok {
		return nil, false
	}
	return s.Vecs[i], true
}

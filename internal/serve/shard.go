package serve

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"inspire/internal/segment"
	"inspire/internal/storefile"
)

// ShardOf is the document-partitioning rule of a sharded serving set: global
// document ID d lives on shard d mod shards. Modulo routing keeps every shard
// within one document of perfectly balanced for the dense IDs a pipeline run
// produces, and it needs no routing table — the router recomputes it from the
// manifest's shard count alone.
func ShardOf(doc int64, shards int) int {
	return int(doc % int64(shards))
}

// Shard splits the store into n document-partitioned shard stores. Each
// shard carries its own compressed posting blobs (per-term counts doubling as
// the shard's DF summary), its slice of the signatures, ThemeView points,
// cluster assignments and metadata, and the full replicated vocabulary,
// projections and themes — everything a shard Server needs to answer
// sub-queries on its own. The receiver is not modified; shard stores share
// its immutable replicated tables.
//
// Sharding assumes the dense document IDs a pipeline snapshot produces
// (0..TotalDocs-1); each shard's TotalDocs is its own document count.
func (st *Store) Shard(n int) ([]*Store, error) {
	if n <= 0 {
		return nil, fmt.Errorf("serve: shard count %d", n)
	}
	st.live.mu.Lock()
	hasLive := st.hasLiveLocked()
	st.live.mu.Unlock()
	if hasLive {
		return nil, fmt.Errorf("serve: shard a store before ingesting into it (flush and Rebase first)")
	}
	if len(st.Holes) > 0 {
		// Sharding assumes the dense IDs of a pure pipeline snapshot; a
		// rebase that dropped deletions left holes the per-shard counts
		// cannot describe (see Rebase's doc comment).
		return nil, fmt.Errorf("serve: shard a store before rebasing deletions into it")
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	parts, err := st.Posts.Split(n, func(doc int64) int { return ShardOf(doc, n) })
	if err != nil {
		return nil, fmt.Errorf("serve: shard: %w", err)
	}

	out := make([]*Store, n)
	for i := range out {
		out[i] = &Store{
			// Dense IDs round-robin across shards: shard i owns
			// ceil((TotalDocs-i)/n) of them.
			TotalDocs: (st.TotalDocs - int64(i) + int64(n) - 1) / int64(n),
			VocabSize: st.VocabSize,
			TermList:  st.TermList,
			Posts:     parts[i],
			SigM:      st.SigM, Proj: st.Proj,
			Planar: st.Planar, TileBox: st.TileBox,
			K: st.K, Themes: st.Themes,
			ShardCount: n, ShardIndex: i, GlobalDocs: st.TotalDocs,
			// A mapped parent shares its dictionary backing with the shards:
			// TermList strings and the sorted permutation alias its file.
			backing: st.backing, res: st.res, termSorted: st.termSorted,
		}
	}
	for i, d := range st.SigDocs {
		r := ShardOf(d, n)
		out[r].SigDocs = append(out[r].SigDocs, d)
		out[r].SigVecs = append(out[r].SigVecs, st.SigVecs[i])
	}
	for _, pt := range st.Points {
		r := ShardOf(pt.Doc, n)
		out[r].Points = append(out[r].Points, pt)
	}
	for i, d := range st.AssignDocs {
		r := ShardOf(d, n)
		out[r].AssignDocs = append(out[r].AssignDocs, d)
		out[r].AssignClusters = append(out[r].AssignClusters, st.AssignClusters[i])
	}
	// Partition the document metadata, re-interning each shard's facet rows
	// into its own dictionary so shard files carry only the facets their
	// documents use.
	metas := make([]segment.MetaBuilder, n)
	var facets []string
	for i, d := range st.Meta.Docs {
		facets = st.Meta.AppendFacets(facets[:0], i)
		metas[ShardOf(d, n)].Add(d, st.Meta.Times[i], facets)
	}
	for i := range out {
		out[i].Meta = metas[i].Meta()
	}
	for i := range out {
		if err := out[i].validate(); err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
	}
	return out, nil
}

// SaveShards shards the store n ways and persists the set with SaveSet.
func (st *Store) SaveShards(path string, n int) error {
	shards, err := st.Shard(n)
	if err != nil {
		return err
	}
	return SaveSet(path, shards)
}

// SaveSet persists an already-partitioned, frozen shard set: one INSPSTORE4
// file per shard (tile pyramid embedded) next to the manifest, plus the
// manifest itself at path. Every write is atomic. The manifest names the
// shard files relative to its own directory, so the set moves as a unit. A
// shard holding live state a store file cannot carry is refused: rebase it
// first (Router.SaveLive does).
func SaveSet(path string, shards []*Store) error {
	if len(shards) == 0 {
		return fmt.Errorf("serve: no shards to save")
	}
	dir, base := filepath.Dir(path), filepath.Base(path)
	man := &Manifest{
		NumShards: len(shards),
		VocabSize: shards[0].VocabSize,
		Route:     RouteMod,
		Shards:    make([]ShardInfo, len(shards)),
	}
	for i, sh := range shards {
		if sh.unfolded() {
			return fmt.Errorf("serve: shard %d holds live state; rebase it before saving", i)
		}
		man.Shards[i] = ShardInfo{
			File:     fmt.Sprintf("%s.s%02d", base, i),
			Docs:     sh.TotalDocs,
			Postings: sh.baseBlock().Postings(),
		}
		if err := sh.SaveFile(filepath.Join(dir, man.Shards[i].File)); err != nil {
			return err
		}
		man.TotalDocs += sh.TotalDocs
	}
	data, err := man.Encode()
	if err != nil {
		return err
	}
	return writeFileAtomic(path, data)
}

// writeFileAtomic routes a small whole-buffer write (manifests) through the
// temp+fsync+rename discipline.
func writeFileAtomic(path string, data []byte) error {
	return storefile.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// LoadShards reads a manifest written by SaveSet and loads every shard store
// it names, cross-checking each against the manifest's summaries. INSPSTORE4
// shard files are mapped.
func LoadShards(path string) (*Manifest, []*Store, error) {
	return loadShards(path, storefile.Open)
}

// loadShards is LoadShards with each shard file opened by open: the tests
// pass storefile.ReadFile, the copy-decode reference.
func loadShards(path string, open func(string) (*storefile.File, error)) (*Manifest, []*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	man, err := DecodeManifest(data)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: load shards %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	shards := make([]*Store, man.NumShards)
	var docs int64
	for i, info := range man.Shards {
		sh, err := loadStoreFile(filepath.Join(dir, info.File), open)
		if err != nil {
			return nil, nil, fmt.Errorf("serve: load shard %d: %w", i, err)
		}
		if sh.VocabSize != man.VocabSize {
			return nil, nil, fmt.Errorf("serve: shard %d has vocabulary %d, manifest says %d", i, sh.VocabSize, man.VocabSize)
		}
		// Every shard file records its partition, and it must agree with the
		// manifest; one that records none is a monolithic store listed as a
		// shard.
		switch {
		case sh.ShardCount == 0:
			return nil, nil, fmt.Errorf("serve: shard %d store records no partition (a monolithic store listed in a manifest)", i)
		case sh.ShardCount != man.NumShards:
			return nil, nil, fmt.Errorf("serve: shard %d store says a %d-way partition, manifest says %d", i, sh.ShardCount, man.NumShards)
		case sh.ShardIndex != i:
			return nil, nil, fmt.Errorf("serve: shard %d store says it is shard %d", i, sh.ShardIndex)
		}
		if posts := sh.baseBlock().Postings(); sh.TotalDocs != info.Docs || posts != info.Postings {
			return nil, nil, fmt.Errorf("serve: shard %d carries %d docs/%d postings, manifest says %d/%d",
				i, sh.TotalDocs, posts, info.Docs, info.Postings)
		}
		docs += sh.TotalDocs
		shards[i] = sh
	}
	if docs != man.TotalDocs {
		return nil, nil, fmt.Errorf("serve: shards carry %d docs, manifest says %d", docs, man.TotalDocs)
	}
	return man, shards, nil
}

// readHead returns the first n bytes of the file at path — fewer when the
// file is shorter — for the magic checks at the loaders' door.
func readHead(path string, n int) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	head := make([]byte, n)
	// ReadFull, not Read: a legal short read must not misclassify a file.
	m, err := io.ReadFull(f, head)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	return head[:m], nil
}

// IsShardManifestFile reports whether the file begins with a shard-manifest
// magic — i.e. whether a -store path names a sharded set rather than a
// single store. The retired INSPSHARDS2 head counts, so that DecodeManifest
// refuses it by name. A file shorter than the magic is simply not a
// manifest.
func IsShardManifestFile(path string) (bool, error) {
	head, err := readHead(path, len(manifestMagic))
	if err != nil {
		return false, err
	}
	return string(head) == manifestMagic || string(head) == retiredManifestMagic, nil
}

// LoadServiceFile opens any persisted serving artifact as a Service: a shard
// manifest loads its set behind a Router, a single INSPSTORE4 store file
// behind a plain Server. Store files are memory-mapped. This is the one load
// path the daemon needs — sharded and monolithic sets serve behind the same
// session API.
func LoadServiceFile(path string, cfg Config) (Service, error) {
	man, err := IsShardManifestFile(path)
	if err != nil {
		return nil, err
	}
	if man {
		_, shards, err := LoadShards(path)
		if err != nil {
			return nil, err
		}
		return NewService(Options{Shards: shards, Config: cfg})
	}
	st, err := LoadStoreFile(path)
	if err != nil {
		return nil, err
	}
	return NewService(Options{Store: st, Config: cfg})
}

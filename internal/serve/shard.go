package serve

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

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
// the shard's DF summary), its slice of the signatures, ThemeView points and
// cluster assignments, and the full replicated vocabulary, ownership bounds,
// model and themes — everything a shard Server needs to answer sub-queries
// on its own. The receiver is not modified; shard stores share its immutable
// replicated tables.
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
			Model: st.Model, P: st.P,
			// Dense IDs round-robin across shards: shard i owns
			// ceil((TotalDocs-i)/n) of them.
			TotalDocs: (st.TotalDocs - int64(i) + int64(n) - 1) / int64(n),
			VocabSize: st.VocabSize,
			TermList:  st.TermList, Prefix: st.Prefix,
			DF:    parts[i].Count,
			Posts: parts[i],
			SigM:  st.SigM, Proj: st.Proj,
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
	if len(st.MetaDocs) > 0 {
		interners := make([]*facetInterner, n)
		tables := make([]metaTable, n)
		for i, d := range st.MetaDocs {
			r := ShardOf(d, n)
			if interners[r] == nil {
				interners[r] = newFacetInterner(nil)
				tables[r].facetOffs = []int64{0}
			}
			t, in := &tables[r], interners[r]
			t.docs = append(t.docs, d)
			t.times = append(t.times, st.MetaTimes[i])
			if len(st.MetaFacetOffs) > 0 {
				for _, id := range st.MetaFacetIDs[st.MetaFacetOffs[i]:st.MetaFacetOffs[i+1]] {
					t.facetIDs = append(t.facetIDs, in.intern([]string{st.FacetDict[id]})...)
				}
			}
			t.facetOffs = append(t.facetOffs, int64(len(t.facetIDs)))
		}
		for r := range tables {
			if interners[r] == nil {
				continue
			}
			if len(tables[r].facetIDs) == 0 {
				tables[r].facetOffs = nil
			} else {
				tables[r].dict = interners[r].dict
			}
			tables[r].install(out[r])
		}
	}
	for i := range out {
		if err := out[i].validate(); err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
	}
	return out, nil
}

// SaveShards shards the store n ways and persists the set: one INSPSTORE4
// file per shard (tile pyramid embedded) next to the manifest, plus the
// manifest itself at path. Every write is atomic. The manifest names the
// shard files relative to its own directory, so the set moves as a unit.
func (st *Store) SaveShards(path string, n int) error {
	shards, err := st.Shard(n)
	if err != nil {
		return err
	}
	dir, base := filepath.Dir(path), filepath.Base(path)
	man := &Manifest{
		NumShards: n,
		TotalDocs: st.TotalDocs,
		VocabSize: st.VocabSize,
		Route:     RouteMod,
		Shards:    make([]ShardInfo, n),
	}
	for i, sh := range shards {
		var posts int64
		for _, c := range sh.DF {
			posts += c
		}
		man.Shards[i] = ShardInfo{
			File:     fmt.Sprintf("%s.s%02d", base, i),
			Docs:     sh.TotalDocs,
			Postings: posts,
		}
		shardPath := filepath.Join(dir, man.Shards[i].File)
		if err := sh.SaveFile(shardPath); err != nil {
			return err
		}
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

// SaveLiveSet persists an already-partitioned shard set with its live state:
// each shard's base store as an ordinary store file, each sealed segment as
// an INSPSEG1 sidecar, and the tombstones inside the (v2) manifest at path.
// Callers flush pending deltas first (Router.SaveLive does); documents still
// buffered in a delta are not persisted. A set without live state writes a
// v1 manifest, byte-identical to SaveShards output.
func SaveLiveSet(path string, shards []*Store) error {
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
		if sh.PendingDocs() > 0 {
			return fmt.Errorf("serve: shard %d has unflushed pending adds", i)
		}
		v := sh.viewNow()
		var posts int64
		for _, c := range v.base.df {
			posts += c
		}
		info := ShardInfo{
			File:     fmt.Sprintf("%s.s%02d", base, i),
			Docs:     sh.TotalDocs,
			Postings: posts,
		}
		shardPath := filepath.Join(dir, info.File)
		if err := sh.SaveFile(shardPath); err != nil {
			return err
		}
		for j, seg := range v.segs {
			si := SegmentInfo{File: fmt.Sprintf("%s.s%02d.g%03d", base, i, j), Docs: seg.NumDocs()}
			if err := seg.SaveFile(filepath.Join(dir, si.File)); err != nil {
				return err
			}
			info.Segments = append(info.Segments, si)
		}
		for d := range v.tombs {
			info.Tombs = append(info.Tombs, d)
		}
		slices.Sort(info.Tombs)
		// Persist the ID high-water mark only when the surviving data no
		// longer implies it (the highest assigned IDs were deleted and
		// compacted away): the common case re-derives it at load, keeping
		// frozen sets byte-identical to SaveShards output.
		derived := sh.TotalDocs
		if sh.ShardCount > 0 {
			derived = sh.GlobalDocs
		}
		for _, seg := range v.segs {
			if m := seg.MaxDoc() + 1; m > derived {
				derived = m
			}
		}
		if next := sh.NextDocID(); next > derived {
			info.NextDoc = next
		}
		man.Shards[i] = info
		man.TotalDocs += sh.TotalDocs
	}
	data, err := man.Encode()
	if err != nil {
		return err
	}
	return writeFileAtomic(path, data)
}

// LoadShards reads a manifest written by SaveShards or SaveLiveSet and loads
// every shard store it names — base file, sealed segments and tombstones —
// cross-checking each against the manifest's summaries. INSPSTORE4 shard
// files are mapped (LoadShardsHeap materializes them instead).
func LoadShards(path string) (*Manifest, []*Store, error) {
	return loadShards(path, false)
}

// LoadShardsHeap loads a shard set entirely into heap — the -no-mmap path.
func LoadShardsHeap(path string) (*Manifest, []*Store, error) {
	return loadShards(path, true)
}

func loadShards(path string, noMmap bool) (*Manifest, []*Store, error) {
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
		sh, err := loadStoreFile(filepath.Join(dir, info.File), noMmap)
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
		var posts int64
		for _, c := range sh.DF {
			posts += c
		}
		if sh.TotalDocs != info.Docs || posts != info.Postings {
			return nil, nil, fmt.Errorf("serve: shard %d carries %d docs/%d postings, manifest says %d/%d",
				i, sh.TotalDocs, posts, info.Docs, info.Postings)
		}
		var segs []*segment.Segment
		segDocs := make(map[int64]bool)
		for j, si := range info.Segments {
			seg, err := segment.LoadFile(filepath.Join(dir, si.File))
			if err != nil {
				return nil, nil, fmt.Errorf("serve: load shard %d segment %d: %w", i, j, err)
			}
			if seg.NumDocs() != si.Docs {
				return nil, nil, fmt.Errorf("serve: shard %d segment %d carries %d docs, manifest says %d",
					i, j, seg.NumDocs(), si.Docs)
			}
			if seg.Posts.NumTerms != sh.VocabSize {
				return nil, nil, fmt.Errorf("serve: shard %d segment %d covers %d terms of %d",
					i, j, seg.Posts.NumTerms, sh.VocabSize)
			}
			// The gather merges rely on disjointness: a segment document must
			// belong to this shard by the routing rule, appear in exactly one
			// segment, and not collide with the shard's base range.
			baseBound := sh.TotalDocs
			if sh.ShardCount > 0 {
				baseBound = sh.GlobalDocs
			}
			for _, d := range seg.Docs {
				switch {
				case man.NumShards > 1 && ShardOf(d, man.NumShards) != i:
					return nil, nil, fmt.Errorf("serve: shard %d segment %d holds doc %d owned by shard %d",
						i, j, d, ShardOf(d, man.NumShards))
				case segDocs[d]:
					return nil, nil, fmt.Errorf("serve: shard %d doc %d appears in two segments", i, d)
				case d < baseBound:
					return nil, nil, fmt.Errorf("serve: shard %d segment %d doc %d collides with the base", i, j, d)
				}
				segDocs[d] = true
			}
			segs = append(segs, seg)
		}
		if len(segs) > 0 || len(info.Tombs) > 0 {
			if err := sh.installLive(segs, info.Tombs); err != nil {
				return nil, nil, fmt.Errorf("serve: load shard %d: %w", i, err)
			}
		}
		// Restore the persisted ID high-water mark (see ShardInfo.NextDoc) so
		// the never-reuse invariant survives deleting-then-compacting the
		// highest assigned IDs.
		sh.AdvanceNextDoc(info.NextDoc)
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
// magic (either version) — i.e. whether a -store path names a sharded set
// rather than a single store. A file shorter than the magic is simply not a
// manifest.
func IsShardManifestFile(path string) (bool, error) {
	head, err := readHead(path, len(manifestMagic))
	if err != nil {
		return false, err
	}
	return string(head) == manifestMagic || string(head) == manifestMagicV2, nil
}

// LoadServiceFile opens any persisted serving artifact as a Service: a shard
// manifest loads its set behind a Router, a single INSPSTORE4 store file
// behind a plain Server. Store files are memory-mapped unless cfg.NoMmap is
// set, in which case they materialize to heap. This is the one load path the
// daemon needs — sharded and monolithic sets serve behind the same session
// API.
func LoadServiceFile(path string, cfg Config) (Service, error) {
	man, err := IsShardManifestFile(path)
	if err != nil {
		return nil, err
	}
	if man {
		_, shards, err := loadShards(path, cfg.NoMmap)
		if err != nil {
			return nil, err
		}
		return NewService(Options{Shards: shards, Config: cfg})
	}
	st, err := loadStoreFile(path, cfg.NoMmap)
	if err != nil {
		return nil, err
	}
	return NewService(Options{Store: st, Config: cfg})
}

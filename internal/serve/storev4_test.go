package serve

// Tests of the INSPSTORE4 zero-copy layout: round trips through the mapped
// and heap load paths, operation-for-operation equivalence between a mapped
// store and its heap twin (monolithic and sharded, idle and under concurrent
// ingest), the resident-set budget, and rejection of corrupt, foreign and
// retired-format files.

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"inspire/internal/core"
	"inspire/internal/project"
	"inspire/internal/segment"
	"inspire/internal/signature"
	"inspire/internal/simtime"
	"inspire/internal/storefile"
	"inspire/internal/tiles"
)

// loadStoreHeap loads a store file by copy-decode (storefile.ReadFile, the
// fallback where mmap is unavailable): the heap reference every mapped answer
// is compared against.
func loadStoreHeap(path string) (*Store, error) { return loadStoreFile(path, storefile.ReadFile) }

// loadServiceHeap is LoadServiceFile over copy-decoded store files.
func loadServiceHeap(path string) (Service, error) {
	if man, err := IsShardManifestFile(path); err != nil || !man {
		st, err := loadStoreHeap(path)
		if err != nil {
			return nil, err
		}
		return NewService(Options{Store: st})
	}
	_, shards, err := loadShards(path, storefile.ReadFile)
	if err != nil {
		return nil, err
	}
	return NewService(Options{Shards: shards})
}

// saveV4T persists st as INSPSTORE4 and returns the path.
func saveV4T(t *testing.T, st *Store, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStoreV4RoundTrip(t *testing.T) {
	st := batchStore(t, ingestSources(), 3)
	path := saveV4T(t, st, "v4.store")

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("INSPSTORE4\n")) {
		t.Fatalf("compressed store wrote magic %q", raw[:11])
	}

	mapped, err := LoadStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := loadStoreHeap(path)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.Mapped() {
		t.Fatal("default v4 load is not mapped")
	}
	if heap.Mapped() {
		t.Fatal("heap load claims a mapping")
	}
	for name, got := range map[string]*Store{"mapped": mapped, "heap": heap} {
		if got.TotalDocs != st.TotalDocs || got.VocabSize != st.VocabSize ||
			got.K != st.K || got.SigM != st.SigM {
			t.Fatalf("%s: header fields differ: %+v", name, got)
		}
		if len(got.TermList) != len(st.TermList) || len(got.Points) != len(st.Points) {
			t.Fatalf("%s: table sizes differ", name)
		}
		for _, term := range st.TopTerms(10) {
			wantID, ok1 := st.TermID(term)
			gotID, ok2 := got.TermID(term)
			if ok1 != ok2 || wantID != gotID {
				t.Fatalf("%s: TermID(%q) = %d,%v want %d,%v", name, term, gotID, ok2, wantID, ok1)
			}
		}
		if !reflect.DeepEqual(got.Posts.Count, st.Posts.Count) {
			t.Fatalf("%s: DF differs", name)
		}
		if !reflect.DeepEqual(got.Points, st.Points) {
			t.Fatalf("%s: points differ", name)
		}
	}
}

// compareQueriers drives every read operation of the Querier surface on both
// sides and requires identical answers.
func compareQueriers(t *testing.T, label string, a, b Querier, terms []string, docs []int64, themes int) {
	t.Helper()
	for _, tm := range terms {
		if got, want := a.DF(context.Background(), tm), b.DF(context.Background(), tm); got != want {
			t.Fatalf("%s: DF(%q) = %d vs %d", label, tm, got, want)
		}
		if got, want := a.TermDocs(context.Background(), tm), b.TermDocs(context.Background(), tm); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: TermDocs(%q) differ", label, tm)
		}
	}
	for i := 1; i < len(terms); i++ {
		pair := []string{terms[i-1], terms[i]}
		if got, want := a.And(context.Background(), pair...), b.And(context.Background(), pair...); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: And(%v) = %v vs %v", label, pair, got, want)
		}
		if got, want := a.Or(context.Background(), pair...), b.Or(context.Background(), pair...); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Or(%v) differ", label, pair)
		}
	}
	for _, d := range docs {
		got, gerr := a.Similar(context.Background(), d, 5)
		want, werr := b.Similar(context.Background(), d, 5)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: Similar(%d) errors differ: %v vs %v", label, d, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Similar(%d) = %v vs %v", label, d, got, want)
		}
	}
	for c := 0; c < themes; c++ {
		if got, want := a.ThemeDocs(context.Background(), c), b.ThemeDocs(context.Background(), c); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ThemeDocs(%d) differ", label, c)
		}
	}
	if got, want := a.Near(context.Background(), 0.5, 0.5, 10), b.Near(context.Background(), 0.5, 0.5, 10); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Near differ: %v vs %v", label, got, want)
	}
	got, gerr := a.Tile(context.Background(), 0, 0, 0)
	want, werr := b.Tile(context.Background(), 0, 0, 0)
	if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Tile(0,0,0) differ: %+v (%v) vs %+v (%v)", label, got, gerr, want, werr)
	}
	all := tiles.NewBounds(-1e9, -1e9, 1e9, 1e9)
	gr, gerr := a.TileRange(context.Background(), 1, all)
	wr, werr := b.TileRange(context.Background(), 1, all)
	if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(gr, wr) {
		t.Fatalf("%s: TileRange differ", label)
	}
}

// serviceOf builds the service under test from a store: a monolithic Server
// or an n-shard Router.
func serviceOf(t *testing.T, st *Store, n int, cfg Config) Service {
	t.Helper()
	if n == 1 {
		srv, err := NewServer(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	shards, err := st.Shard(n)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestMappedHeapEquivalence is the tentpole's correctness bar: every Querier
// operation answers identically from a mapped INSPSTORE4 store and its
// heap-materialized twin — monolithic and 3-shard sharded, before and after
// live mutation (add, delete, flush, compact), and after a save/reload of
// the live state. Queries also run concurrently with ingest on both sides,
// which puts the lazy fault-in paths under the race detector.
func TestMappedHeapEquivalence(t *testing.T) {
	base := batchStore(t, ingestSources(), 3)
	path := saveV4T(t, base, "eq.store")

	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			mappedStore, err := LoadStoreFile(path)
			if err != nil {
				t.Fatal(err)
			}
			heapStore, err := loadStoreHeap(path)
			if err != nil {
				t.Fatal(err)
			}
			if !mappedStore.Mapped() || heapStore.Mapped() {
				t.Fatal("load modes wrong")
			}
			// A small posting cache forces eviction (and resident unpinning)
			// during the sweep.
			cfg := Config{PostingCacheEntries: 8}
			ms := serviceOf(t, mappedStore, shards, cfg)
			hs := serviceOf(t, heapStore, shards, cfg)

			terms := ms.TopTerms(context.Background(), 12)
			docs := ms.SampleDocs(context.Background(), 6)
			themes := ms.NumThemes()
			if len(terms) == 0 || len(docs) == 0 {
				t.Fatal("no probe terms or docs")
			}
			compareQueriers(t, "idle", ms.NewQuerier(), hs.NewQuerier(), terms, docs, themes)

			// Concurrent exercise: readers hammer both services while the
			// same mutation stream applies to each. Answers during the race
			// are not compared (timing differs); the race detector is the
			// assertion here.
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for _, svc := range []Service{ms, hs} {
				for w := 0; w < 2; w++ {
					wg.Add(1)
					go func(svc Service) {
						defer wg.Done()
						q := svc.NewQuerier()
						for i := 0; ; i++ {
							select {
							case <-stop:
								return
							default:
							}
							q.And(context.Background(), terms[i%len(terms)], terms[(i+1)%len(terms)])
							_, _ = q.Similar(context.Background(), docs[i%len(docs)], 3)
							_, _ = q.Tile(context.Background(), 0, 0, 0)
						}
					}(svc)
				}
			}
			added := make([]int64, 0, 8)
			mq, hq := ms.NewQuerier(), hs.NewQuerier()
			for i := 0; i < 8; i++ {
				text := terms[i%len(terms)] + " " + terms[(i+2)%len(terms)]
				mid, merr := mq.Add(context.Background(), text)
				hid, herr := hq.Add(context.Background(), text)
				if merr != nil || herr != nil {
					t.Fatalf("add: %v / %v", merr, herr)
				}
				if mid != hid {
					t.Fatalf("add assigned %d vs %d", mid, hid)
				}
				added = append(added, mid)
			}
			if err := mq.Delete(context.Background(), added[0]); err != nil {
				t.Fatal(err)
			}
			if err := hq.Delete(context.Background(), added[0]); err != nil {
				t.Fatal(err)
			}
			close(stop)
			wg.Wait()

			for _, svc := range []Service{ms, hs} {
				l := svc.(Liver)
				if err := l.FlushLive(context.Background()); err != nil {
					t.Fatal(err)
				}
				if err := l.CompactLive(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			compareQueriers(t, "after ingest", ms.NewQuerier(), hs.NewQuerier(), terms, append(docs, added[1]), themes)

			// Save the live state from the mapped side and reload it both
			// ways. SaveLive rebases — tombstones fold into holes and DF
			// drops — so the reloads are compared against each other, not
			// against the still-live services.
			dir := t.TempDir()
			outName := "live.store"
			if shards > 1 {
				outName = "live.shards"
			}
			out := filepath.Join(dir, outName)
			if err := ms.(Liver).SaveLive(context.Background(), out); err != nil {
				t.Fatal(err)
			}
			reMapped, err := LoadServiceFile(out, Config{})
			if err != nil {
				t.Fatal(err)
			}
			reHeap, err := loadServiceHeap(out)
			if err != nil {
				t.Fatal(err)
			}
			compareQueriers(t, "reloaded live", reMapped.NewQuerier(), reHeap.NewQuerier(), terms, docs, themes)
		})
	}
}

// TestMapBudgetPinDenials pins the resident-set accountant: a mapped server
// with a tiny budget refuses posting-cache pins (counting every refusal) but
// still answers queries correctly straight from the mapping.
func TestMapBudgetPinDenials(t *testing.T) {
	st := batchStore(t, ingestSources(), 2)
	path := saveV4T(t, st, "budget.store")

	mapped, err := LoadStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats, ok := mapped.ResidentStats(); !ok || stats.MappedBytes == 0 {
		t.Fatalf("mapped store has no resident accounting: %+v ok=%v", stats, ok)
	}
	srv, err := NewServer(mapped, Config{MapBudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	heapSrv := newServerT(t, st.Fork(), Config{})

	terms := srv.TopTerms(context.Background(), 8)
	q, hq := srv.NewSession(), heapSrv.NewSession()
	for i := 1; i < len(terms); i++ {
		got := q.And(context.Background(), terms[i-1], terms[i])
		want := hq.And(context.Background(), terms[i-1], terms[i])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("budget-starved And(%q,%q) = %v want %v", terms[i-1], terms[i], got, want)
		}
	}
	stats := srv.Stats()
	if stats.PinDenials == 0 {
		t.Fatalf("1-byte budget denied no pins: %+v", stats)
	}
	if stats.ResidentMappedBytes == 0 {
		t.Fatalf("mapped bytes not reported: %+v", stats)
	}

	// An unlimited budget pins freely: no denials, pinned bytes grow.
	free, err := LoadStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	freeSrv, err := NewServer(free, Config{MapBudgetBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	fq := freeSrv.NewSession()
	for i := 1; i < len(terms); i++ {
		fq.And(context.Background(), terms[i-1], terms[i])
	}
	if s := freeSrv.Stats(); s.PinDenials != 0 || s.ResidentPinnedBytes == 0 {
		t.Fatalf("unlimited budget misbehaved: %+v", s)
	}
}

// TestStoreV4Rejects drives corrupt and truncated v4 files through both load
// paths: every mangling must fail loudly, never load garbage. A file that is
// not INSPSTORE4 at all says what it is — a retired gob format by name, with
// the remedy, anything else (short and empty files included) as not a store
// — on the mapped, heap and stream loaders and through a manifest.
func TestStoreV4Rejects(t *testing.T) {
	st := buildStoreT(t, 2)
	path := saveV4T(t, st, "ok.store")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := map[string][]byte{
		"truncated header":  raw[:8],
		"truncated toc":     raw[:40],
		"truncated section": raw[:len(raw)-100],
		"trailing garbage":  append(append([]byte{}, raw...), 0xFF),
		"flipped flag":      flipByte(raw, 11),
		"flipped toc":       flipByte(raw, 20),
	}
	for name, data := range cases {
		p := write(name+".store", data)
		if _, err := LoadStoreFile(p); err == nil {
			t.Errorf("%s: mapped load accepted", name)
		}
		if _, err := loadStoreHeap(p); err == nil {
			t.Errorf("%s: heap load accepted", name)
		}
	}

	man := filepath.Join(dir, "set.shards")
	if err := st.SaveShards(man, 2); err != nil {
		t.Fatal(err)
	}
	const remedy = " (last read by build 715247c); re-index: inspired -in <corpus> -save-store <file>"
	foreign := map[string]struct{ data, want string }{
		"v1":    {"INSPSTORE1\njunk", "retired gob format INSPSTORE1" + remedy},
		"v2":    {"INSPSTORE2\njunk", "retired gob format INSPSTORE2" + remedy},
		"v3":    {"INSPSTORE3\njunk", "retired gob format INSPSTORE3" + remedy},
		"seg":   {"INSPSEG1\njunk", "retired live-set segment INSPSEG1 (last read by build 21c88cd); re-index: inspired -in <corpus> -shards N -save-store <file>"},
		"empty": {"", "not an INSPSTORE4 store"},
		"short": {"INSPS", "not an INSPSTORE4 store"},
	}
	for name, tc := range foreign {
		p := write(name+".store", []byte(tc.data))
		shard := write("set.shards.s01", []byte(tc.data))
		_, mappedErr := LoadStoreFile(p)
		_, heapErr := loadStoreHeap(p)
		_, streamErr := LoadStore(strings.NewReader(tc.data))
		_, _, setErr := LoadShards(man)
		_, _, setHeapErr := loadShards(man, storefile.ReadFile)
		for loader, got := range map[string]struct {
			err   error
			where string
		}{
			"mapped": {mappedErr, p}, "heap": {heapErr, p}, "stream": {streamErr, "load store"},
			"manifest":      {setErr, "load shard 1: serve: load store " + shard},
			"manifest heap": {setHeapErr, "load shard 1: serve: load store " + shard},
		} {
			if got.err == nil || !strings.Contains(got.err.Error(), tc.want) || !strings.Contains(got.err.Error(), got.where) {
				t.Errorf("%s via %s: error %v, want %q at %q", name, loader, got.err, tc.want, got.where)
			}
		}
	}

	// The signature documents are the base block's document list, read from
	// the file: out of order, repeated or outside the base, they are refused.
	for name, mangle := range map[string]func(docs []int64){
		"reversed sigdocs":   slices.Reverse[[]int64],
		"duplicated sigdocs": func(docs []int64) { docs[1] = docs[0] },
		"sigdoc past the base": func(docs []int64) {
			docs[len(docs)-1] = st.TotalDocs
		},
	} {
		bad := st.Fork()
		bad.SigDocs = slices.Clone(st.SigDocs)
		mangle(bad.SigDocs)
		p := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".store")
		if err := bad.SaveFile(p); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadStoreFile(p); err == nil || !strings.Contains(err.Error(), "signature document") {
			t.Errorf("%s: mapped load error %v, want one naming the signature documents", name, err)
		}
		if _, err := loadStoreHeap(p); err == nil {
			t.Errorf("%s: heap load accepted", name)
		}
	}

	// The pristine file still loads after all that — the copies were the
	// problem, not the loader.
	if _, err := LoadStoreFile(path); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}
}

func flipByte(raw []byte, i int) []byte {
	out := append([]byte{}, raw...)
	out[i] ^= 0xA5
	return out
}

// TestParentMetaSectionLoads loads a file whose gob meta section carries
// the producing run's provenance — Model, P and Prefix, as files written
// before the store dropped them do — and requires it to load into the same
// store as the file written today.
func TestParentMetaSectionLoads(t *testing.T) {
	type parentMetaV4 struct {
		Model      *simtime.Model
		P          int
		TotalDocs  int64
		VocabSize  int64
		ShardCount int
		ShardIndex int
		GlobalDocs int64
		Holes      []int64
		Prefix     []int64
		SigM       int
		Proj       *signature.Projection
		Planar     *project.Planar
		TileBox    *tiles.Rect
		K          int
		Themes     []core.Theme
	}
	st := batchStore(t, ingestSources(), 3)
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := storefile.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var meta bytes.Buffer
	if err := gob.NewEncoder(&meta).Encode(&parentMetaV4{
		Model: simtime.PNNLCluster2007(), P: 3,
		TotalDocs: st.TotalDocs, VocabSize: st.VocabSize, Prefix: []int64{0, 300, 600, st.VocabSize},
		SigM: st.SigM, Proj: st.Proj, Planar: st.Planar, TileBox: st.TileBox, K: st.K, Themes: st.Themes,
	}); err != nil {
		t.Fatal(err)
	}
	secs := f.Sections()
	for i := range secs {
		if secs[i].Name == secMeta {
			secs[i].Data = meta.Bytes()
		}
	}
	old, err := storefile.Encode(secs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadStore(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("a meta section with the parent's fields does not load: %v", err)
	}
	var resaved bytes.Buffer
	if err := got.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), buf.Bytes()) {
		t.Fatal("the store loaded from a parent meta section re-saves differently")
	}
}

// TestStrayBaseRowRefusedAtLoad writes a store whose metadata names a
// document outside its base — SetBaseMeta and Rebase never keep one — and
// requires the load to refuse it.
func TestStrayBaseRowRefusedAtLoad(t *testing.T) {
	st := batchStore(t, ingestSources(), 2).Fork()
	stampMetaT(t, st)
	var b segment.MetaBuilder
	for i, d := range st.Meta.Docs {
		b.Add(d, st.Meta.Times[i], st.Meta.AppendFacets(nil, i))
	}
	b.Add(st.TotalDocs, 5, []string{"source=stray"})
	st.Meta = b.Meta()
	path := saveV4T(t, st, "stray.store")
	if _, err := LoadStoreFile(path); err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Fatalf("a stray base metadata row loaded: %v", err)
	}
}

package serve

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"inspire/internal/query"
	"inspire/internal/segment"
	"inspire/internal/signature"
)

// oracleScanSimilar is the scan this package shipped before query.TopK, kept
// as the differential oracle: query.Cosine on every candidate, a slice of
// every scored hit, a full sort, a trim to k. Its comparator is written out
// on purpose — it must not share query.HitLess with the code it checks.
// candidates is the number of signatures it scored: every one the serving
// scan must either score in full or reject by its bound.
func oracleScanSimilar(v *view, target []float64, exclude int64, k int) (hits []query.Hit, candidates uint64) {
	var scored []query.Hit
	score := func(docs []int64, vecs [][]float64) {
		for i, vec := range vecs {
			d := docs[i]
			if vec == nil || d == exclude || v.tombs[d] {
				continue
			}
			scored = append(scored, query.Hit{Doc: d, Score: query.Cosine(target, vec)})
		}
	}
	score(v.sigs.Docs, v.sigs.Vecs)
	for _, seg := range v.segs {
		score(seg.Docs, seg.SigVecs)
	}
	candidates = uint64(len(scored))
	sort.Slice(scored, func(a, b int) bool {
		if scored[a].Score != scored[b].Score {
			return scored[a].Score > scored[b].Score
		}
		return scored[a].Doc < scored[b].Doc
	})
	if len(scored) > k {
		scored = scored[:k]
	}
	return scored, candidates
}

// scanSimilar is the serving scan on a bare view: a server with no store,
// there only to take the scan's counts.
func scanSimilar(v *view, target []float64, exclude int64, k int) []query.Hit {
	return new(Server).scanSimilar(v, target, exclude, k)
}

// randomSigs draws n signatures of dimension m. With themes > 0 they are what
// a corpus of that many themes gives the scan — each a mix of a few of its
// directions (theme t owns the components j ≡ t) plus a little noise, so that
// a Sketch can tell most of them from a target; with themes == 0 they are
// isotropic and it cannot. messy mixes in what the scan must get exactly
// right: null signatures, all-zero vectors (score 0, still a hit),
// bit-identical duplicates, power-of-two multiples (the same score from
// different bits), low-entropy vectors (score ties, which break
// document-ascending) and negative components.
func randomSigs(rng *rand.Rand, n, m, themes int, messy bool) [][]float64 {
	vecs := make([][]float64, n)
	for i := range vecs {
		kind := 9
		if messy {
			kind = rng.Intn(12)
		}
		switch {
		case kind == 0:
			continue
		case kind == 1:
			vecs[i] = make([]float64, m)
		case kind == 2 && i > 0:
			vecs[i] = slices.Clone(vecs[rng.Intn(i)]) // of a null: another null
		case kind == 3 && i > 0:
			vecs[i] = slices.Clone(vecs[rng.Intn(i)])
			for j := range vecs[i] {
				vecs[i][j] *= 4
			}
		case kind <= 5:
			vecs[i] = make([]float64, m)
			for j := range vecs[i] {
				vecs[i][j] = float64(rng.Intn(2))
			}
		default:
			vecs[i] = make([]float64, m)
			mix := [3]int{rng.Intn(max(1, themes)), rng.Intn(max(1, themes)), rng.Intn(max(1, themes))}
			for j := range vecs[i] {
				x := rng.Float64()
				if themes > 0 {
					x *= 0.05
					for w, t := range mix {
						if j%themes == t {
							x += float64(1 + w)
						}
					}
				}
				if kind == 6 && rng.Intn(2) == 0 {
					x = -x
				}
				vecs[i][j] = x
			}
		}
	}
	return vecs
}

// randomSimView builds the part of a view the similarity scan reads: a base
// set of n clean signatures and, when segs > 0, that many sealed segments of
// messy ones plus a sprinkling of tombstones over both.
func randomSimView(rng *rand.Rand, n, m, themes, segs int) *view {
	docs := make([]int64, n)
	for i := range docs {
		docs[i] = int64(i)
	}
	set, err := signature.NewSet(m, docs, randomSigs(rng, n, m, themes, segs > 0))
	if err != nil {
		panic(err)
	}
	v := &view{sigs: set}
	next := int64(n)
	for s := 0; s < segs; s++ {
		seg := &segment.Segment{SigM: m, SigVecs: randomSigs(rng, 1+rng.Intn(n), m, themes, true)}
		for range seg.SigVecs {
			next += 1 + int64(rng.Intn(3))
			seg.Docs = append(seg.Docs, next)
		}
		v.segs = append(v.segs, seg)
	}
	if segs > 0 {
		v.tombs = map[int64]bool{}
		for i := 0; i < int(next)/8; i++ {
			v.tombs[rng.Int63n(next+1)] = true
		}
	}
	return v
}

// simKs are the result counts every differential check runs: one, just
// under, exactly, just over and absurdly over the n candidates.
func simKs(n int) []int {
	return []int{1, max(1, n-1), max(1, n), n + 5, 1 << 40}
}

// TestScanSimilarMatchesOracle holds the one scoring path to the old
// score-everything-then-sort on seeded random views: identical hits (scores
// compared with ==), identical tie order, identical modeled flops. The first
// views are tiny (fewer signatures than a Sketch has directions, dimensions
// down to one); the later ones are themed and large enough that the bound
// rejects most candidates; every fourth is made collinear, so that every score
// ties and only the document order decides.
func TestScanSimilarMatchesOracle(t *testing.T) {
	var full, pruned uint64
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, m, themes := 1+rng.Intn(60), 1+rng.Intn(12), 0
		if seed >= 16 {
			n, m, themes = 300+rng.Intn(500), 16+rng.Intn(40), 2+rng.Intn(7)
		}
		v := randomSimView(rng, n, m, themes, rng.Intn(4))
		if seed%4 == 3 {
			blocks := [][][]float64{v.sigs.Vecs}
			for _, seg := range v.segs {
				blocks = append(blocks, seg.SigVecs)
			}
			for _, vecs := range blocks {
				for i, vec := range vecs {
					for j := range vec {
						vec[j] = float64(1+j) * float64(int(1)<<(i%5))
					}
				}
			}
		}
		candidates := n
		for _, seg := range v.segs {
			candidates += len(seg.Docs)
		}
		srv := new(Server)
		for _, exclude := range []int64{0, int64(n) - 1, -1, -2} {
			target := randomSigs(rng, 1, m, themes, false)[0]
			if vec, ok := v.sigs.Vec(exclude); ok && vec != nil {
				target = vec
			}
			if exclude == -2 {
				target = make([]float64, m) // zero norm: every score is 0
			}
			for _, k := range append(simKs(candidates), 10) {
				want, wantCands := oracleScanSimilar(v, target, exclude, k)
				got := srv.scanSimilar(v, target, exclude, k)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d exclude %d k %d:\n got %v\nwant %v", seed, exclude, k, got, want)
				}
				if cap(got) > candidates {
					t.Fatalf("seed %d k %d: buffer of %d for %d candidates", seed, k, cap(got), candidates)
				}
				// Rejected or scored in full, every candidate the oracle
				// scores is in exactly one of the two counts.
				f, p := srv.simScored.Swap(0), srv.simPruned.Swap(0)
				if f+p != wantCands {
					t.Fatalf("seed %d k %d: %d scored + %d pruned of %d candidates", seed, k, f, p, wantCands)
				}
				if themes > 0 && k <= 10 && seed%4 != 3 {
					full, pruned = full+f, pruned+p
				}
			}
		}
	}
	if pruned < full {
		t.Fatalf("with k <= 10 on the themed views the bound rejected %d candidates against %d scored: the filtered path went all but unchecked", pruned, full)
	}
}

// simThemes and simBulk shape a simWorld: signatures of a few themes, and
// enough of them ingested up front (in sealed segments of a hundred) that the
// scans of every later step run with the bound rejecting candidates.
const simThemes, simBulk = 5, 400

// simWorld is one corpus served two ways — a monolithic store and a 4-shard
// router — driven through the same seeded stream of adds (with chosen
// signatures), seals, deletes, compactions, rebases and signature swaps.
type simWorld struct {
	t      *testing.T
	rng    *rand.Rand
	mono   *Store
	shards []*Store
	srv    *Server
	router *Router
	next   int64
	live   []int64
}

func newSimWorld(t *testing.T, seed int64) *simWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	st := batchStore(t, ingestSources(), 2)
	// Replace the pipeline's signatures with messy ones over the same
	// documents, before the store is sharded.
	base := st.Signatures()
	set, err := signature.NewSet(base.M, base.Docs, randomSigs(rng, base.Len(), base.M, simThemes, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ApplySignatures(set); err != nil {
		t.Fatal(err)
	}
	w := &simWorld{t: t, rng: rng, mono: st.Fork(), next: st.TotalDocs}
	if w.shards, err = st.Shard(4); err != nil {
		t.Fatal(err)
	}
	pol := LivePolicy{SealDocs: 1 << 20, CompactSegments: 1 << 20, ManualCompaction: true}
	w.mono.SetLivePolicy(pol)
	for _, sh := range w.shards {
		sh.SetLivePolicy(pol)
	}
	w.srv = newServerT(t, w.mono, Config{})
	if w.router, err = NewRouter(w.shards, Config{}); err != nil {
		t.Fatal(err)
	}
	for d := int64(0); d < st.TotalDocs; d++ {
		w.live = append(w.live, d)
	}
	for range simBulk / 100 {
		w.add(100)
	}
	return w
}

// add ingests n documents with drawn signatures and seals them.
func (w *simWorld) add(n int) {
	w.t.Helper()
	for ; n > 0; n-- {
		doc, sig := w.next, randomSigs(w.rng, 1, w.mono.SigM, simThemes, true)[0]
		if w.rng.Intn(4) == 0 { // duplicate a live document's vector
			sig, _ = w.mono.SignatureOf(w.live[w.rng.Intn(len(w.live))])
		}
		w.next++
		w.live = append(w.live, doc)
		w.each(doc, func(st *Store) error { return st.AddCounts(doc, nil, sig) })
	}
	w.each(-1, (*Store).Flush)
}

// each applies one store operation to the monolithic store and to the shard
// owning doc (doc < 0: every shard).
func (w *simWorld) each(doc int64, op func(*Store) error) {
	w.t.Helper()
	stores := append([]*Store{w.mono}, w.shards...)
	if doc >= 0 {
		stores = []*Store{w.mono, w.shards[ShardOf(doc, len(w.shards))]}
	}
	for _, st := range stores {
		if err := op(st); err != nil {
			w.t.Fatal(err)
		}
	}
}

// step applies one random operation.
func (w *simWorld) step() {
	w.t.Helper()
	switch op := w.rng.Intn(12); {
	case op < 5: // a burst of adds, sealed so they are visible
		w.add(1 + w.rng.Intn(6))
	case op < 8 && len(w.live) > 8:
		i := w.rng.Intn(len(w.live))
		doc := w.live[i]
		w.live = slices.Delete(w.live, i, i+1)
		w.each(doc, func(st *Store) error { return st.Delete(doc) })
	case op < 10:
		w.each(-1, (*Store).Compact)
	case op == 10: // segments and tombstones folded into a new base set
		w.each(-1, (*Store).Rebase)
	default: // regenerated signatures swapped in under the running servers
		base := w.mono.Signatures()
		vecOf := make(map[int64][]float64, base.Len())
		for i, vec := range randomSigs(w.rng, base.Len(), base.M, simThemes, true) {
			vecOf[base.Docs[i]] = vec
		}
		w.each(-1, func(st *Store) error {
			docs := st.Signatures().Docs
			vecs := make([][]float64, len(docs))
			for i, d := range docs {
				vecs[i] = vecOf[d]
			}
			set, err := signature.NewSet(st.SigM, docs, vecs)
			if err != nil {
				return err
			}
			return st.ApplySignatures(set)
		})
	}
}

// TestSimilarDifferential drives a monolithic store and a 4-shard router
// through seals, deletes, compactions, rebases and signature swaps and, after
// every step, holds Session.Similar (cold scans and incremental refreshes
// alike — the server and its cache live for the whole run), the routed
// answer and the scan's modeled flops to the oracle's full rescan of the
// current view.
func TestSimilarDifferential(t *testing.T) {
	ctx := context.Background()
	var refreshes, pruned, routedPruned uint64
	for seed := int64(1); seed <= 3; seed++ {
		w := newSimWorld(t, seed)
		sess, routed := w.srv.NewSession(), w.router.NewSession()
		targets := append(w.mono.SampleDocs(4), 0, 1, 2, w.next-1, w.next-simBulk/2)
		for round := 0; round < 25; round++ {
			v := w.mono.viewNow()
			n := int(v.liveDocs())
			for _, doc := range targets {
				target, ok := v.sigVec(doc)
				for _, k := range append(simKs(n), 10) {
					got, err := sess.Similar(ctx, doc, k)
					viaRouter, rerr := routed.Similar(ctx, doc, k)
					if !ok || target == nil {
						if err == nil || rerr == nil {
							t.Fatalf("seed %d round %d: Similar(%d) on a missing or null target answered", seed, round, doc)
						}
						continue
					}
					if err != nil || rerr != nil {
						t.Fatalf("seed %d round %d: Similar(%d, %d): %v / %v", seed, round, doc, k, err, rerr)
					}
					want, wantCands := oracleScanSimilar(v, target, doc, k)
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d round %d: Similar(%d, %d)\n got %v\nwant %v", seed, round, doc, k, got, want)
					}
					before := w.srv.simScored.Load() + w.srv.simPruned.Load()
					w.srv.scanSimilar(v, target, doc, k)
					if n := w.srv.simScored.Load() + w.srv.simPruned.Load() - before; n != wantCands {
						t.Fatalf("seed %d round %d: scan of Similar(%d, %d) counted %d candidates, want %d", seed, round, doc, k, n, wantCands)
					}
					if !slices.Equal(viaRouter, want) {
						t.Fatalf("seed %d round %d: routed Similar(%d, %d)\n got %v\nwant %v", seed, round, doc, k, viaRouter, want)
					}
				}
			}
			w.step()
		}
		refreshes += w.srv.Stats().SimRefreshes
		pruned += w.srv.Stats().SimPruned
		routedPruned += w.router.Stats().SimPruned
	}
	if refreshes == 0 {
		t.Fatal("no answer came from refreshSimilar; the incremental path went unchecked")
	}
	if pruned == 0 || routedPruned == 0 {
		t.Fatalf("the bound rejected %d candidates on the server and %d behind the router; the filtered path went unchecked", pruned, routedPruned)
	}
}

// TestScanSimilarWarmAllocs pins the warm scan at one allocation: the result.
func TestScanSimilarWarmAllocs(t *testing.T) {
	v := randomSimView(rand.New(rand.NewSource(2)), 500, 16, 4, 3)
	target := v.sigs.Vecs[1]
	scanSimilar(v, target, 1, 10) // computes the lazy norms and summaries
	if n := testing.AllocsPerRun(50, func() { scanSimilar(v, target, 1, 10) }); n > 1 {
		t.Fatalf("warm scan allocates %v times, want <= 1", n)
	}
}

// TestConcurrentFirstScans races first scans over sets and segments whose
// norms and Sketches nobody has computed yet — a fresh view, then views
// published by seals, compactions, rebases and signature swaps while the
// scanners run. Meaningful under -race; the
// answers are held to the oracle on the very view each scanner read.
func TestConcurrentFirstScans(t *testing.T) {
	fresh := randomSimView(rand.New(rand.NewSource(3)), 300, 8, 3, 3)
	target := fresh.sigs.Vecs[0]
	want, _ := oracleScanSimilar(fresh, target, 0, 7)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := scanSimilar(fresh, target, 0, 7); !slices.Equal(got, want) {
				t.Errorf("concurrent first scan = %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()

	w := newSimWorld(t, 4)
	ctx := context.Background()
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := w.srv.NewSession()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := w.mono.viewNow()
				target, ok := v.sigVec(int64(g))
				if !ok || target == nil {
					continue
				}
				want, _ := oracleScanSimilar(v, target, int64(g), 5)
				if got := scanSimilar(v, target, int64(g), 5); !slices.Equal(got, want) {
					t.Errorf("scan across publish = %v, want %v", got, want)
					return
				}
				// The cached/refreshed path shares the lazily normed segments.
				// (An error here is the target deleted since v was read.)
				if got, err := sess.Similar(ctx, int64(g), 5); err == nil &&
					!sort.SliceIsSorted(got, func(i, j int) bool { return query.HitLess(got[i], got[j]) }) {
					t.Errorf("similar across publish out of order: %v", got)
					return
				}
			}
		}()
	}
	for i := 0; i < 60; i++ {
		w.step()
	}
	close(stop)
	wg.Wait()
}

package ga

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"inspire/internal/cluster"
	"inspire/internal/simtime"
)

// irregular lists per-rank shard sizes, empty shards at every position.
var irregular = [][]int64{
	{10, 10, 10, 10},
	{0, 13, 0, 29},
	{7, 0, 0, 5},
	{0, 0, 0, 40},
	{1, 1, 1, 1},
	{31},
}

// randomRuns draws ascending, non-overlapping runs inside [0, n), some of
// them empty, and the values they carry.
func randomRuns(rng *rand.Rand, n int64) (starts, lens, vals []int64) {
	for at := rng.Int63n(4); at < n; at += rng.Int63n(5) {
		ln := min(rng.Int63n(9), n-at) // 0..8: runs longer than most shards above
		starts, lens = append(starts, at), append(lens, ln)
		for k := int64(0); k < ln; k++ {
			vals = append(vals, 1+rng.Int63n(1000))
		}
		at += ln
	}
	return starts, lens, vals
}

// TestIndexedOpsMatchLoops holds ReadIncIndexed and PutRuns to the loops of
// ReadInc and Put they stand for, and ScatterAcc on an ascending list (no
// sort) to the same list shuffled (sorted).
func TestIndexedOpsMatchLoops(t *testing.T) {
	for di, sizes := range irregular {
		_, err := cluster.Run(len(sizes), simtime.Zero(), func(c *cluster.Comm) error {
			got := CreateIrregular[int64](c, "got", sizes[c.Rank()])
			want := CreateIrregular[int64](c, "want", sizes[c.Rank()])
			if c.Rank() != 0 {
				return nil
			}
			n := got.N()
			rng := rand.New(rand.NewSource(int64(di)))
			for round := 0; round < 50; round++ {
				idxs := make([]int64, rng.Intn(3*int(n)))
				for i := range idxs {
					idxs[i] = rng.Int63n(n) // repeats included
				}
				slices.Sort(idxs)
				incs := make([]int64, len(idxs))
				prev := make([]int64, len(idxs))
				for i := range incs {
					incs[i] = rng.Int63n(7)
				}
				got.ReadIncIndexed(idxs, incs, prev)
				for i, idx := range idxs {
					if old := want.ReadInc(idx, incs[i]); old != prev[i] {
						return fmt.Errorf("round %d: ReadIncIndexed prev[%d]=%d, ReadInc returned %d", round, i, prev[i], old)
					}
				}

				starts, lens, vals := randomRuns(rng, n)
				got.PutRuns(starts, lens, vals)
				for i, rest := 0, vals; i < len(starts); i++ {
					want.Put(starts[i], rest[:lens[i]])
					rest = rest[lens[i]:]
				}

				got.ScatterAcc(idxs, incs)
				perm := rng.Perm(len(idxs))
				shufIdx, shufInc := make([]int64, len(idxs)), make([]int64, len(idxs))
				for i, j := range perm {
					shufIdx[i], shufInc[i] = idxs[j], incs[j]
				}
				want.ScatterAcc(shufIdx, shufInc)

				a, b := make([]int64, n), make([]int64, n)
				got.Get(0, a)
				want.Get(0, b)
				if !slices.Equal(a, b) {
					return fmt.Errorf("round %d: arrays differ\n got %v\nwant %v", round, a, b)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("distribution %v: %v", sizes, err)
		}
	}
}

func TestPutRunsStraddlingOwners(t *testing.T) {
	_, err := cluster.Run(5, simtime.Zero(), func(c *cluster.Comm) error {
		// Owners: [0,3) [3,5) [5,5) [5,9) [9,12).
		a := CreateIrregular[int64](c, "straddle", []int64{3, 2, 0, 4, 3}[c.Rank()])
		if c.Rank() != 1 {
			return nil
		}
		// Two owners, then three (across the empty one), then nothing.
		a.PutRuns([]int64{1, 4, 12}, []int64{3, 6, 0}, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9})
		got := make([]int64, 12)
		a.Get(0, got)
		if want := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 0}; !slices.Equal(got, want) {
			return fmt.Errorf("got %v want %v", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIndexedOpsOnNothing(t *testing.T) {
	_, err := cluster.Run(2, nil, func(c *cluster.Comm) error {
		a := Create[int64](c, "nothing", 10)
		before := c.Clock().Now()
		a.ReadIncIndexed(nil, nil, nil)
		a.PutRuns(nil, nil, nil)
		a.PutRuns([]int64{0, 5, 10}, []int64{0, 0, 0}, nil)
		if now := c.Clock().Now(); now != before {
			return fmt.Errorf("empty operations were charged %g", now-before)
		}
		for _, v := range a.Access() {
			if v != 0 {
				return fmt.Errorf("empty operations wrote %d", v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIndexedOpsPanicHoldingNoLock: a refused call must name the package,
// change nothing and leave every shard unlocked, so the array stays usable.
func TestIndexedOpsPanicHoldingNoLock(t *testing.T) {
	one := []int64{1}
	cases := map[string]func(a *Array[int64]){
		"index past the end":     func(a *Array[int64]) { a.ReadIncIndexed([]int64{2, 12}, []int64{1, 1}, make([]int64, 2)) },
		"negative index":         func(a *Array[int64]) { a.ReadIncIndexed([]int64{-1, 3}, []int64{1, 1}, make([]int64, 2)) },
		"descending indexes":     func(a *Array[int64]) { a.ReadIncIndexed([]int64{2, 9, 8}, []int64{1, 1, 1}, make([]int64, 3)) },
		"incs shorter than idxs": func(a *Array[int64]) { a.ReadIncIndexed([]int64{2, 9}, one, make([]int64, 2)) },
		"prev shorter than idxs": func(a *Array[int64]) { a.ReadIncIndexed([]int64{2, 9}, []int64{1, 1}, one) },
		"run past the end":       func(a *Array[int64]) { a.PutRuns([]int64{2, 11}, []int64{1, 2}, []int64{1, 1, 1}) },
		"negative start":         func(a *Array[int64]) { a.PutRuns([]int64{-1}, one, one) },
		"negative length":        func(a *Array[int64]) { a.PutRuns([]int64{4}, []int64{-1}, nil) },
		"overlapping runs":       func(a *Array[int64]) { a.PutRuns([]int64{2, 4}, []int64{3, 1}, []int64{1, 1, 1, 1}) },
		"descending runs":        func(a *Array[int64]) { a.PutRuns([]int64{8, 2}, []int64{1, 1}, []int64{1, 1}) },
		"lens shorter":           func(a *Array[int64]) { a.PutRuns([]int64{2, 4}, one, one) },
		"vals shorter than runs": func(a *Array[int64]) { a.PutRuns([]int64{2, 8}, []int64{2, 2}, []int64{1, 1, 1}) },
		"vals longer than runs":  func(a *Array[int64]) { a.PutRuns([]int64{2}, one, []int64{1, 1}) },
	}
	for name, tc := range cases {
		_, err := cluster.Run(3, simtime.Zero(), func(c *cluster.Comm) error {
			a := Create[int64](c, "refuse", 12)
			if c.Rank() != 2 {
				return nil
			}
			var refusal any
			func() {
				defer func() { refusal = recover() }()
				tc(a)
			}()
			if msg, ok := refusal.(string); !ok || len(msg) < 4 || msg[:4] != "ga: " {
				return fmt.Errorf("want a ga: panic, got %v", refusal)
			}
			for r := range a.s.locks {
				if !a.s.locks[r].TryLock() {
					return fmt.Errorf("shard %d left locked", r)
				}
				a.s.locks[r].Unlock()
			}
			all := make([]int64, 12)
			a.Get(0, all)
			if slices.Max(all) != 0 || slices.Min(all) != 0 {
				return fmt.Errorf("refused call wrote %v", all)
			}
			return nil
		})
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestConcurrentReservationsTile: every rank reserves posting slots for its
// own counts from one shared cursor, as inversion's pass 2 does; the ranges
// handed out must be pairwise disjoint and tile the posting array, and runs
// put at them must land nowhere else.
func TestConcurrentReservationsTile(t *testing.T) {
	const terms, rounds = 37, 25
	for _, p := range []int{2, 4, 7} {
		// need[r][k][tm]: postings rank r wants under term tm in round k.
		need := make([][][]int64, p)
		total := make([]int64, terms)
		rng := rand.New(rand.NewSource(int64(p)))
		for r := range need {
			need[r] = make([][]int64, rounds)
			for k := range need[r] {
				need[r][k] = make([]int64, terms)
				for tm := range need[r][k] {
					need[r][k][tm] = rng.Int63n(4)
					total[tm] += need[r][k][tm]
				}
			}
		}
		var postings int64
		for _, n := range total {
			postings += n
		}
		type span struct{ lo, hi int64 }
		var mu sync.Mutex
		var spans []span
		_, err := cluster.Run(p, simtime.Zero(), func(c *cluster.Comm) error {
			cursor := Create[int64](c, "cursor", terms)
			post := Create[int64](c, "post", postings)
			if c.Rank() == 0 {
				offs := make([]int64, terms)
				for tm := 1; tm < terms; tm++ {
					offs[tm] = offs[tm-1] + total[tm-1]
				}
				cursor.Put(0, offs)
			}
			cursor.Sync()
			idxs := make([]int64, terms)
			for tm := range idxs {
				idxs[tm] = int64(tm)
			}
			var mine []span
			for _, counts := range need[c.Rank()] {
				slots := make([]int64, terms)
				cursor.ReadIncIndexed(idxs, counts, slots)
				var marks []int64
				for tm, n := range counts {
					mine = append(mine, span{slots[tm], slots[tm] + n})
					for ; n > 0; n-- {
						marks = append(marks, int64(c.Rank()+1))
					}
				}
				post.PutRuns(slots, counts, marks)
			}
			post.Sync()
			all := make([]int64, postings)
			post.Get(0, all)
			for _, sp := range mine {
				for i := sp.lo; i < sp.hi; i++ {
					if all[i] != int64(c.Rank()+1) {
						return fmt.Errorf("slot %d reserved by rank %d holds %d", i, c.Rank(), all[i]-1)
					}
				}
			}
			mu.Lock()
			spans = append(spans, mine...)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		sort.Slice(spans, func(i, j int) bool {
			return spans[i].lo < spans[j].lo || (spans[i].lo == spans[j].lo && spans[i].hi < spans[j].hi)
		})
		var at int64
		for _, sp := range spans {
			if sp.lo != at {
				t.Fatalf("p=%d: reservation [%d,%d) follows %d: overlap or gap", p, sp.lo, sp.hi, at)
			}
			at = sp.hi
		}
		if at != postings {
			t.Fatalf("p=%d: reservations cover %d of %d slots", p, at, postings)
		}
	}
}

func TestRemoteIndexedOpsChargeMoreThanLocal(t *testing.T) {
	ops := map[string]func(a *Array[int64]){
		"ReadIncIndexed": func(a *Array[int64]) {
			a.ReadIncIndexed([]int64{1, 5, 9, 200}, []int64{1, 1, 1, 1}, make([]int64, 4))
		},
		"PutRuns": func(a *Array[int64]) {
			a.PutRuns([]int64{10, 100}, []int64{50, 300}, make([]int64, 350))
		},
	}
	for name, op := range ops {
		w, err := cluster.Run(2, nil, func(c *cluster.Comm) error {
			op(Create[int64](c, "cost", 1000)) // every element touched is rank 0's
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if local, remote := w.Clocks()[0].Now(), w.Clocks()[1].Now(); remote <= local {
			t.Errorf("%s: remote (%g) should cost more than local (%g)", name, remote, local)
		}
	}
}

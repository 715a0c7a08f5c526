package ga

import (
	"fmt"
	"sort"
)

// Indexed (scatter/gather) operations, the analogues of ga_gather, ga_scatter
// and ga_scatter_acc in the Global Arrays toolkit. Elements are grouped by
// owner shard so each touched owner is locked once and charged a single
// one-sided transfer of the aggregate payload, matching how GA vectors
// element lists into per-owner messages.

// GetIndexed reads the elements at the given global indexes into out
// (len(out) == len(idxs)).
func (a *Array[T]) GetIndexed(idxs []int64, out []T) {
	if len(out) != len(idxs) {
		panic("ga: GetIndexed length mismatch")
	}
	a.byOwner(idxs, func(r int, positions []int) {
		sh := a.s.shards[r]
		base := a.s.bounds[r]
		a.s.locks[r].RLock()
		for _, pos := range positions {
			out[pos] = sh[idxs[pos]-base]
		}
		a.s.locks[r].RUnlock()
		// Index list travels out, values travel back: 16 bytes per element.
		a.chargeBytes(r, int64(16*len(positions)))
	})
}

// ScatterAcc atomically adds vals[i] to element idxs[i] for every i.
// Duplicate indexes accumulate.
func (a *Array[T]) ScatterAcc(idxs []int64, vals []T) {
	if len(vals) != len(idxs) {
		panic("ga: ScatterAcc length mismatch")
	}
	a.byOwner(idxs, func(r int, positions []int) {
		sh := a.s.shards[r]
		base := a.s.bounds[r]
		a.s.locks[r].Lock()
		for _, pos := range positions {
			sh[idxs[pos]-base] += vals[pos]
		}
		a.s.locks[r].Unlock()
		// Index+value pairs travel: 16 bytes per element.
		a.chargeBytes(r, int64(16*len(positions)))
	})
}

// ReadIncIndexed atomically adds incs[i] to element idxs[i] and stores the
// previous value in prev[i] — ReadInc over an ascending index list, taking
// each touched owner's lock once. A repeated index sees its earlier
// increments, as a loop of ReadInc would.
func (a *Array[T]) ReadIncIndexed(idxs []int64, incs, prev []T) {
	if len(incs) != len(idxs) || len(prev) != len(idxs) {
		panic("ga: ReadIncIndexed length mismatch")
	}
	for i, idx := range idxs {
		if idx < 0 || idx >= a.s.n || (i > 0 && idx < idxs[i-1]) {
			panic(fmt.Sprintf("ga: %s ReadIncIndexed index %d at position %d out of bounds or not ascending (n=%d)", a.s.name, idx, i, a.s.n))
		}
	}
	for start := 0; start < len(idxs); {
		r := a.Owner(idxs[start])
		sh, base, hi := a.s.shards[r], a.s.bounds[r], a.s.bounds[r+1]
		end := start
		a.s.locks[r].Lock()
		for ; end < len(idxs) && idxs[end] < hi; end++ {
			off := idxs[end] - base
			prev[end] = sh[off]
			sh[off] += incs[end]
		}
		a.s.locks[r].Unlock()
		// Index+increment travel out, the old value back: 24 bytes each.
		a.chargeBytes(r, int64(24*(end-start)))
		start = end
	}
}

// PutRuns writes consecutive runs of vals: run i, lens[i] elements long,
// lands at the global range [starts[i], starts[i]+lens[i]). Runs must ascend
// without overlapping; one that straddles a shard boundary is split. Each
// touched owner is locked once.
func (a *Array[T]) PutRuns(starts, lens []int64, vals []T) {
	if len(lens) != len(starts) {
		panic("ga: PutRuns length mismatch")
	}
	var total, floor int64
	for i, lo := range starts {
		if lens[i] < 0 || lo < floor || lo+lens[i] > a.s.n {
			panic(fmt.Sprintf("ga: %s PutRuns run %d [%d,+%d) out of bounds or not ascending (n=%d)", a.s.name, i, lo, lens[i], a.s.n))
		}
		floor = lo + lens[i]
		total += lens[i]
	}
	if total != int64(len(vals)) {
		panic(fmt.Sprintf("ga: %s PutRuns runs hold %d elements, vals %d", a.s.name, total, len(vals)))
	}
	r, moved := -1, int64(0) // owner whose lock is held, elements sent to it
	release := func() {
		if r >= 0 {
			a.s.locks[r].Unlock()
			a.chargeBytes(r, elemBytes*moved)
		}
	}
	for i, lo := range starts {
		for n := lens[i]; n > 0; {
			if r < 0 || lo >= a.s.bounds[r+1] {
				release()
				r, moved = a.Owner(lo), 0
				a.s.locks[r].Lock()
			}
			k := min(n, a.s.bounds[r+1]-lo)
			off := lo - a.s.bounds[r]
			copy(a.s.shards[r][off:off+k], vals[:k])
			vals = vals[k:]
			lo, n, moved = lo+k, n-k, moved+k
		}
	}
	release()
}

// byOwner groups element positions by owning rank and invokes fn once per
// owner, in ascending rank order (deterministic traffic pattern).
func (a *Array[T]) byOwner(idxs []int64, fn func(rank int, positions []int)) {
	if len(idxs) == 0 {
		return
	}
	positions := make([]int, len(idxs))
	ascending := true
	for i := range positions {
		if idxs[i] < 0 || idxs[i] >= a.s.n {
			panic("ga: indexed op out of bounds")
		}
		ascending = ascending && (i == 0 || idxs[i-1] <= idxs[i])
		positions[i] = i
	}
	if !ascending {
		sort.Slice(positions, func(x, y int) bool { return idxs[positions[x]] < idxs[positions[y]] })
	}
	start := 0
	for start < len(positions) {
		r := a.Owner(idxs[positions[start]])
		hi := a.s.bounds[r+1]
		end := start
		for end < len(positions) && idxs[positions[end]] < hi {
			end++
		}
		fn(r, positions[start:end])
		start = end
	}
}

// chargeBytes bills the origin clock for an explicit byte volume touching
// rank r's shard.
func (a *Array[T]) chargeBytes(r int, bytes int64) {
	m := a.c.Model()
	if r == a.c.Rank() {
		a.c.Clock().Advance(m.LocalCopyCost(float64(bytes)))
	} else {
		a.c.Clock().Advance(m.OneSidedCost(float64(bytes)))
	}
}

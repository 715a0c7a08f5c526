package serve

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"inspire/internal/query"
)

// TestMergeByDocMatchesSort holds the head-key gather merge against sorting
// the concatenation: empty and single-item parts, more parts than the stack
// arrays hold, keys repeated across parts (unionSorted's input), and the
// int64 extremes, which a sentinel-based merge would mistake for an
// exhausted part.
func TestMergeByDocMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		parts := make([][]int64, rng.Intn(24))
		var want []int64
		for i := range parts {
			n := rng.Intn(6) * rng.Intn(6)
			for j := 0; j < n; j++ {
				d := int64(rng.Intn(60)) - 10
				switch rng.Intn(40) {
				case 0:
					d = math.MaxInt64
				case 1:
					d = math.MinInt64
				}
				parts[i] = append(parts[i], d)
			}
			slices.Sort(parts[i])
			want = append(want, parts[i]...)
		}
		slices.Sort(want)
		if got := mergeDocs(nil, parts); !slices.Equal(got, want) {
			t.Fatalf("mergeDocs(%v) = %v, want %v", parts, got, want)
		}
		// Postings carry a payload: equal keys must come out in part order.
		posts := make([][]query.Posting, len(parts))
		var wantPosts []query.Posting
		for i, p := range parts {
			for _, d := range p {
				posts[i] = append(posts[i], query.Posting{Doc: d, Freq: int64(i)})
			}
			wantPosts = append(wantPosts, posts[i]...)
		}
		slices.SortStableFunc(wantPosts, func(a, b query.Posting) int {
			switch {
			case a.Doc < b.Doc:
				return -1
			case a.Doc > b.Doc:
				return 1
			}
			return 0
		})
		if got := mergePostings(nil, posts); !slices.Equal(got, wantPosts) {
			t.Fatalf("mergePostings(%v) = %v, want %v", posts, got, wantPosts)
		}
	}
}

package scan

import (
	"math/rand"
	"strings"
	"testing"
)

// TestTermTableMatchesMap drives the table and a Go map with the same
// tokens — short and long, prefixes of each other, through several growths —
// and holds every lookup to the map's answer.
func TestTermTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var tab termTable
	want := make(map[string]int64)
	for i := 0; i < 20000; i++ {
		n := 1 + rng.Intn(24)
		if rng.Intn(3) == 0 {
			n = 1 + rng.Intn(3)
		}
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteByte("ab-'Z9\x80\xff"[rng.Intn(8)])
		}
		tok := sb.String()
		id, ok := tab.get(tok)
		wid, wok := want[tok]
		if ok != wok || id != wid {
			t.Fatalf("get(%q) = %d, %v; want %d, %v", tok, id, ok, wid, wok)
		}
		if !ok {
			tab.put(tok, int64(i))
			want[tok] = int64(i)
		}
	}
	for tok, wid := range want {
		if id, ok := tab.get(tok); !ok || id != wid {
			t.Fatalf("get(%q) = %d, %v after all puts; want %d", tok, id, ok, wid)
		}
	}
}

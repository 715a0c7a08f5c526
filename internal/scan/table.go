package scan

import "strings"

// termTable is Scan's rank-local table from raw token to provisional term
// ID (or dropped). It is open-addressed with linear probing, at most half
// full. A token of up to 16 bytes is held inline in its slot, so a lookup
// reads one slot and compares two words. A token is never empty and never
// holds a NUL byte (it delimits), so its zero-padded words identify it, and
// a slot whose first word is zero is empty. Longer tokens, rare in text, go
// to a Go map. The zero value is an empty table.
type termTable struct {
	slots []termSlot // len is a power of two, or zero
	used  int
	long  map[string]int64
}

type termSlot struct {
	k0, k1 uint64 // the token's bytes, little-endian, zero-padded
	id     int64
}

// inlineMax is the longest token a slot holds.
const inlineMax = 16

// pack lays a token of up to 16 bytes into two little-endian words.
func pack(tok string) (k0, k1 uint64) {
	for i := 0; i < len(tok) && i < 8; i++ {
		k0 |= uint64(tok[i]) << (8 * i)
	}
	for i := 8; i < len(tok); i++ {
		k1 |= uint64(tok[i]) << (8 * (i - 8))
	}
	return k0, k1
}

// slotHash mixes a packed token's words; its low bits pick the first slot.
func slotHash(k0, k1 uint64) uint64 {
	h := (k0 ^ k1*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	return h ^ h>>31
}

// get returns tok's ID and whether tok is in the table.
func (t *termTable) get(tok string) (int64, bool) {
	if len(tok) > inlineMax {
		id, ok := t.long[tok]
		return id, ok
	}
	if len(t.slots) == 0 {
		return 0, false
	}
	k0, k1 := pack(tok)
	mask := uint64(len(t.slots) - 1)
	for i := slotHash(k0, k1) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.k0 == k0 && s.k1 == k1 {
			return s.id, true
		}
		if s.k0 == 0 {
			return 0, false
		}
	}
}

// put adds tok, which must not be in the table, with its ID. The table
// keeps no reference to tok's bytes.
func (t *termTable) put(tok string, id int64) {
	if len(tok) > inlineMax {
		if t.long == nil {
			t.long = make(map[string]int64)
		}
		t.long[strings.Clone(tok)] = id
		return
	}
	if 2*(t.used+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]termSlot, max(1024, 2*len(old)))
		for _, s := range old {
			if s.k0 != 0 {
				t.place(s)
			}
		}
	}
	k0, k1 := pack(tok)
	t.place(termSlot{k0: k0, k1: k1, id: id})
	t.used++
}

// place stores s in the first empty slot of its probe sequence.
func (t *termTable) place(s termSlot) {
	mask := uint64(len(t.slots) - 1)
	i := slotHash(s.k0, s.k1) & mask
	for t.slots[i].k0 != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

package main

import "testing"

// TestCheckFlags pins the command line's refusals: counts below 1 and the
// -store/-in pair are errors, never served as something else.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name             string
		shards, replicas int
		store, in        string
		ok               bool
	}{
		{"defaults, indexing", 1, 1, "", "corpus", true},
		{"defaults, loading", 1, 1, "run.store", "", true},
		{"sharded and replicated", 4, 2, "", "corpus", true},
		{"neither -store nor -in is loadOrIndex's to refuse", 1, 1, "", "", true},
		{"-shards 0", 0, 1, "", "corpus", false},
		{"-shards -1", -1, 1, "", "corpus", false},
		{"-replicas 0", 1, 0, "run.store", "", false},
		{"-replicas -2", 1, -2, "run.store", "", false},
		{"-store with -in", 1, 1, "run.store", "corpus", false},
	} {
		if err := checkFlags(tc.shards, tc.replicas, tc.store, tc.in); (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

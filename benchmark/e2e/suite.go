// Package e2e is the out-of-process half of the benchmark: it generates a
// seeded corpus and request plan, builds and runs the real corpusgen and
// inspired binaries, drives the daemon over loopback HTTP, checks the
// answers against counts it computes itself, and reports what a client
// sees. It imports nothing from inspire/internal, so a refactor of the
// program cannot break the instrument that judges it (a test enforces it).
package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Suite is the declarative description of the benchmark: which corpus,
// which deployments, which traffic. It is data (suite.json), not flags.
type Suite struct {
	Corpus CorpusSpec `json:"corpus"`
	Meta   MetaSpec   `json:"meta"`
	// Setups is how many times an untraced run repeats the whole set-up;
	// setup_s is the median.
	Setups int `json:"setups"`
	// WarmupFrac and RungFrac size the untimed warm-up and each open-loop
	// ladder rung as a share of the timed window.
	WarmupFrac float64 `json:"warmup_frac"`
	RungFrac   float64 `json:"rung_frac"`
	// Sessions is how many session= names each connection rotates over.
	Sessions int `json:"sessions"`
	// SampleEvery: one reply in this many is fully decoded and checked.
	SampleEvery int        `json:"sample_every"`
	Workloads   []Workload `json:"workloads"`
}

// CorpusSpec holds the corpusgen arguments; P is the indexing run's -p. The
// corpus is one fixed draw, the same on every run: the run's seed decides
// what is asked of it and when, not what it holds.
type CorpusSpec struct {
	Seed    int64 `json:"seed"`
	Bytes   int64 `json:"bytes"`
	Sources int   `json:"sources"`
	Vocab   int   `json:"vocab"`
	Topics  int   `json:"topics"`
	P       int   `json:"p"`
}

// MetaSpec defines the metadata of base document d as a function of d, so
// the benchmark can check a filtered answer without asking the server:
// ts = TSBase + d*TSStep, and one facet key=prefix{d%mod} per FacetSpec.
type MetaSpec struct {
	TSBase int64       `json:"ts_base"`
	TSStep int64       `json:"ts_step"`
	Facets []FacetSpec `json:"facets"`
}

// FacetSpec is one facet key whose value cycles over the document IDs.
type FacetSpec struct {
	Key    string `json:"key"`
	Prefix string `json:"prefix"`
	Mod    int64  `json:"mod"`
}

// Value returns the facet of document doc, as "key=value".
func (f FacetSpec) Value(doc int64) string {
	return fmt.Sprintf("%s=%s%d", f.Key, f.Prefix, doc%f.Mod)
}

// Workload is one deployment plus the traffic sent to it.
type Workload struct {
	Name     string   `json:"name"`
	Why      string   `json:"why"`
	Shards   int      `json:"shards"`
	Replicas int      `json:"replicas"`
	Streams  []Stream `json:"streams"`
	// Validate lists what must hold for the workload to still stress what
	// Why claims; a run that breaks a rule fails.
	Validate []Rule `json:"validate"`
}

// Loop kinds of a Stream.
const (
	LoopClosed = "closed" // each connection sends its next request on reply
	LoopOpen   = "open"   // Poisson arrivals at Rate, shared by the connections
	LoopPaced  = "paced"  // evenly spaced arrivals at Rate
)

// Stream is a group of connections sharing one traffic mix.
type Stream struct {
	Name  string  `json:"name"`
	Conns int     `json:"conns"`
	Loop  string  `json:"loop"`
	Rate  float64 `json:"rate,omitempty"`
	// Ladder lists arrival rates tried after the timed window (traced runs
	// only): at each, the stream runs as an open loop whatever its Loop. They
	// never feed an end-to-end metric.
	Ladder []float64 `json:"ladder,omitempty"`
	Mix    []MixItem `json:"mix"`
	// Terms picks query terms by document-frequency rank in [Lo, Hi), rank
	// = Lo + (Hi-Lo)*u^Skew for uniform u: Skew 1 is uniform, larger favours
	// the head.
	Terms TermDraw `json:"terms,omitempty"`
	// HotDocs > 0 restricts similar targets to that many seeded documents;
	// 0 draws uniformly over every base document.
	HotDocs int `json:"hot_docs,omitempty"`
	K       int `json:"k,omitempty"`
	// NearR bounds the near radius, as a share of the diagonal of the
	// bounding box of the theme centroids (the client learns it from
	// /v1/themes, as an analyst's front-end would).
	NearR [2]float64 `json:"near_r,omitempty"`
	// FacetFrac of the filterable reads carry a facet filter, on top of mix
	// items that name a filter.
	FacetFrac float64 `json:"facet_frac,omitempty"`
	// AddTerms bounds the number of vocabulary terms in an added document.
	AddTerms [2]int `json:"add_terms,omitempty"`
}

// MixItem weights one operation; Filter is "", "facet" or "time".
type MixItem struct {
	Op     string `json:"op"`
	W      int    `json:"w"`
	Filter string `json:"filter,omitempty"`
}

// TermDraw is a document-frequency rank range and skew.
type TermDraw struct {
	Lo   int     `json:"lo"`
	Hi   int     `json:"hi"`
	Skew float64 `json:"skew"`
}

// Rule compares a reported metric to a constant.
type Rule struct {
	Metric string  `json:"metric"`
	Op     string  `json:"op"` // ">=", "<=" or "=="
	Value  float64 `json:"value"`
}

// Holds reports whether v satisfies the rule.
func (r Rule) Holds(v float64) bool {
	switch r.Op {
	case ">=":
		return v >= r.Value
	case "<=":
		return v <= r.Value
	default:
		return v == r.Value
	}
}

// LoadSuite reads and validates a suite file.
func LoadSuite(path string) (*Suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Suite
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *Suite) validate() error {
	if s.Corpus.Bytes <= 0 || s.Corpus.Sources <= 0 || s.Corpus.Vocab <= 0 || s.Corpus.Topics <= 0 || s.Corpus.P <= 0 {
		return fmt.Errorf("corpus: every field must be positive")
	}
	if s.Setups <= 0 || s.Sessions <= 0 || s.SampleEvery <= 0 || s.WarmupFrac <= 0 || s.RungFrac <= 0 {
		return fmt.Errorf("setups, sessions, sample_every, warmup_frac and rung_frac must be positive")
	}
	for _, f := range s.Meta.Facets {
		if f.Key == "" || f.Mod <= 0 {
			return fmt.Errorf("meta: facet %q needs a key and a positive mod", f.Key)
		}
	}
	if s.Meta.TSStep <= 0 || len(s.Meta.Facets) == 0 {
		return fmt.Errorf("meta: needs a positive ts_step and at least one facet")
	}
	seen := map[string]bool{}
	for _, w := range s.Workloads {
		if w.Name == "" || seen[w.Name] {
			return fmt.Errorf("workload name %q is empty or repeated", w.Name)
		}
		seen[w.Name] = true
		if w.Shards <= 0 || w.Replicas <= 0 || len(w.Streams) == 0 {
			return fmt.Errorf("workload %s: shards, replicas and streams must be positive", w.Name)
		}
		for _, st := range w.Streams {
			if err := st.validate(); err != nil {
				return fmt.Errorf("workload %s stream %s: %w", w.Name, st.Name, err)
			}
		}
		for _, r := range w.Validate {
			if r.Op != ">=" && r.Op != "<=" && r.Op != "==" {
				return fmt.Errorf("workload %s: rule on %s has unknown op %q", w.Name, r.Metric, r.Op)
			}
		}
	}
	return nil
}

func (st Stream) validate() error {
	if st.Conns <= 0 || len(st.Mix) == 0 {
		return fmt.Errorf("needs connections and a mix")
	}
	switch st.Loop {
	case LoopClosed:
	case LoopOpen, LoopPaced:
		if st.Rate <= 0 {
			return fmt.Errorf("loop %q needs a rate", st.Loop)
		}
	default:
		return fmt.Errorf("unknown loop %q", st.Loop)
	}
	for _, m := range st.Mix {
		op, ok := opByName[m.Op]
		if !ok || m.W <= 0 {
			return fmt.Errorf("mix item %q: unknown op or non-positive weight", m.Op)
		}
		if m.Filter != "" && m.Filter != "facet" && m.Filter != "time" {
			return fmt.Errorf("mix item %q: unknown filter %q", m.Op, m.Filter)
		}
		switch op {
		case OpTerm, OpDF, OpAnd, OpOr:
			if st.Terms.Hi <= st.Terms.Lo || st.Terms.Skew <= 0 {
				return fmt.Errorf("op %s needs a terms range and skew", m.Op)
			}
		case OpSimilar:
			if st.K <= 0 {
				return fmt.Errorf("op similar needs k")
			}
		case OpNear:
			if st.NearR[0] <= 0 || st.NearR[1] < st.NearR[0] {
				return fmt.Errorf("op near needs near_r")
			}
		case OpAdd:
			if st.AddTerms[0] <= 0 || st.AddTerms[1] < st.AddTerms[0] || st.Terms.Hi <= st.Terms.Lo || st.Terms.Skew <= 0 {
				return fmt.Errorf("op add needs add_terms and a terms range")
			}
		}
	}
	return nil
}

// Workload returns the named workload.
func (s *Suite) Workload(name string) (*Workload, error) {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

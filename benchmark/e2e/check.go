package e2e

import (
	"fmt"
	"strconv"
	"strings"
)

// envelope and reply are the parts of the /v1 response the checks read.
type envelope struct {
	OK   bool  `json:"ok"`
	Data reply `json:"data"`
}

type reply struct {
	Count    int                   `json:"count"`
	Postings []struct{ Doc int64 } `json:"postings"`
	Docs     []int64               `json:"docs"`
	Hits     []hit                 `json:"hits"`
	Tile     *tileDocs             `json:"tile"`
	DF       int64                 `json:"df"`
	Doc      int64                 `json:"doc"`
}

type hit struct {
	Doc   int64
	Score float64
}

type tileDocs struct {
	Docs int64 `json:"docs"`
}

// checker judges a decoded reply against what the benchmark itself knows
// about the corpus. Analysts act on counts, so a wrong count is a failure
// however fast it came back.
type checker struct {
	truth *Truth
	meta  MetaSpec
	// dynamic is set when the workload ingests: counts may then exceed the
	// base corpus (the writer deletes only its own additions), so equalities
	// relax to lower bounds.
	dynamic bool
}

// reply returns "" when the reply is consistent with the request, else what
// is wrong with it.
func (c *checker) reply(req *Request, rep *reply) string {
	filtered := req.Facet != "" || req.After != 0 || req.Before != 0
	df := func(i int) int64 { return c.truth.DF[req.Terms[i]] }
	switch req.Op {
	case OpTerm:
		docs := make([]int64, len(rep.Postings))
		for i, p := range rep.Postings {
			docs[i] = p.Doc
		}
		if msg := c.docList(req, rep.Count, docs); msg != "" {
			return msg
		}
		if !filtered {
			return c.count("postings", int64(rep.Count), df(0))
		}
	case OpDF:
		return c.count("df", rep.DF, df(0))
	case OpAnd, OpOr:
		if msg := c.docList(req, rep.Count, rep.Docs); msg != "" {
			return msg
		}
		lo, hi := min(df(0), df(1)), max(df(0), df(1))
		n := int64(rep.Count)
		switch {
		case c.dynamic:
		case req.Op == OpAnd && n > lo:
			return fmt.Sprintf("and has %d docs, more than its rarer term's %d", n, lo)
		case req.Op == OpOr && !filtered && (n < hi || n > lo+hi):
			return fmt.Sprintf("or has %d docs, outside [%d, %d]", n, hi, lo+hi)
		}
	case OpSimilar:
		if len(rep.Hits) > req.K || rep.Count != len(rep.Hits) {
			return fmt.Sprintf("similar returned %d hits (count %d) for k=%d", len(rep.Hits), rep.Count, req.K)
		}
		for i, h := range rep.Hits {
			if i > 0 && h.Score > rep.Hits[i-1].Score {
				return fmt.Sprintf("similar scores rise at hit %d", i)
			}
			if !c.matches(req, h.Doc) {
				return fmt.Sprintf("similar hit %d fails the filter", h.Doc)
			}
		}
	case OpTheme, OpNear:
		return c.docList(req, rep.Count, rep.Docs)
	case OpTile:
		if rep.Tile == nil {
			return "tile reply has no tile"
		}
		if req.Z == 0 {
			return c.count("zoom-0 tile docs", rep.Tile.Docs, c.matching(req))
		}
	}
	return ""
}

// count compares a served count with the benchmark's own.
func (c *checker) count(what string, got, want int64) string {
	if got == want || (c.dynamic && got > want) {
		return ""
	}
	return fmt.Sprintf("%s = %d, the corpus says %d", what, got, want)
}

// docList checks a document list: its count, its order, and that every base
// document in it passes the request's filter.
func (c *checker) docList(req *Request, count int, docs []int64) string {
	if count != len(docs) {
		return fmt.Sprintf("count %d for %d docs", count, len(docs))
	}
	for i, d := range docs {
		if i > 0 && d <= docs[i-1] {
			return fmt.Sprintf("docs not strictly ascending at %d", i)
		}
		if !c.matches(req, d) {
			return fmt.Sprintf("doc %d fails the filter", d)
		}
	}
	return ""
}

// facetOf resolves a "key=value" filter to its spec and residue.
func (c *checker) facetOf(facet string) (mod, residue int64) {
	for _, f := range c.meta.Facets {
		if rest, ok := strings.CutPrefix(facet, f.Key+"="+f.Prefix); ok {
			residue, _ = strconv.ParseInt(rest, 10, 64)
			return f.Mod, residue
		}
	}
	return 1, 0
}

// matches reports whether a base document passes the request's filter;
// documents added during the run carry metadata the check does not track.
func (c *checker) matches(req *Request, doc int64) bool {
	if doc >= c.truth.Docs {
		return true
	}
	if req.Facet != "" {
		if mod, res := c.facetOf(req.Facet); doc%mod != res {
			return false
		}
	}
	ts := c.meta.TSBase + doc*c.meta.TSStep
	return (req.After == 0 || ts >= req.After) && (req.Before == 0 || ts <= req.Before)
}

// matching counts the base documents that pass the request's filter.
func (c *checker) matching(req *Request) int64 {
	lo, hi := int64(0), c.truth.Docs-1
	if req.After != 0 {
		lo = max(lo, (req.After-c.meta.TSBase+c.meta.TSStep-1)/c.meta.TSStep)
	}
	if req.Before != 0 {
		hi = min(hi, (req.Before-c.meta.TSBase)/c.meta.TSStep)
	}
	if hi < lo {
		return 0
	}
	if req.Facet == "" {
		return hi - lo + 1
	}
	mod, res := c.facetOf(req.Facet)
	// Documents d in [lo, hi] with d%mod == res.
	upTo := func(n int64) int64 { // count in [0, n)
		return n/mod + b2i(n%mod > res)
	}
	return upTo(hi+1) - upTo(lo)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

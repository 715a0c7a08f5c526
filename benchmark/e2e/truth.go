package e2e

import (
	"bytes"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Truth is what the benchmark knows about the corpus it generated, computed
// by its own tokeniser: the oracle the sampled replies are checked against
// and the vocabulary the plan draws query terms from.
type Truth struct {
	Docs        int64            // base documents, IDs 0..Docs-1
	CorpusBytes int64            // bytes of the generated sources
	DF          map[string]int64 // documents containing each term
	Ranked      []string         // terms by DF descending, then by name
}

// stopwords are the function words the engine's tokeniser drops.
var stopwords = func() map[string]bool {
	m := map[string]bool{}
	for _, w := range strings.Fields(`a an and are as at be but by for from had has have he her his
		if in into is it its no not of on or she such that the their then there these they this to
		was we were which will with would`) {
		m[w] = true
	}
	return m
}()

// BuildTruth tokenises MEDLINE-style sources ("PMID- id" starts a record;
// every other non-blank line is a six-byte tag or continuation prefix plus
// text) with the engine's documented term rules: split on anything that is
// not a letter, digit, ' or -; keep 2..40 bytes; lowercase; trim ' and -;
// drop numbers and stopwords.
func BuildTruth(sources [][]byte) *Truth {
	type entry struct{ df, last int64 }
	seen := map[string]*entry{}
	t := &Truth{}
	doc := int64(-1)
	count := func(tok []byte) {
		if len(tok) < 2 || len(tok) > 40 {
			return
		}
		tok = bytes.Trim(bytes.ToLower(tok), "'-")
		if len(tok) < 2 || allDigits(tok) || stopwords[string(tok)] {
			return
		}
		e := seen[string(tok)]
		if e == nil {
			e = &entry{last: -1}
			seen[string(tok)] = e
		}
		if e.last != doc {
			e.last = doc
			e.df++
		}
	}
	for _, data := range sources {
		t.CorpusBytes += int64(len(data))
		for len(data) > 0 {
			line := data
			if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
				line, data = data[:nl], data[nl+1:]
			} else {
				data = nil
			}
			if bytes.HasPrefix(line, []byte("PMID- ")) {
				doc++
				continue
			}
			if len(line) <= 6 || doc < 0 {
				continue
			}
			line = line[6:]
			start := -1
			for i := 0; i < len(line); {
				r, size := rune(line[i]), 1
				if r >= utf8.RuneSelf {
					r, size = utf8.DecodeRune(line[i:])
				}
				if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '\'' || r == '-' {
					if start < 0 {
						start = i
					}
				} else if start >= 0 {
					count(line[start:i])
					start = -1
				}
				i += size
			}
			if start >= 0 {
				count(line[start:])
			}
		}
	}
	t.Docs = doc + 1
	t.DF = make(map[string]int64, len(seen))
	t.Ranked = make([]string, 0, len(seen))
	for term, e := range seen {
		t.DF[term] = e.df
		t.Ranked = append(t.Ranked, term)
	}
	sort.Slice(t.Ranked, func(i, j int) bool {
		a, b := t.Ranked[i], t.Ranked[j]
		if t.DF[a] != t.DF[b] {
			return t.DF[a] > t.DF[b]
		}
		return a < b
	})
	return t
}

func allDigits(b []byte) bool {
	for _, c := range b {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

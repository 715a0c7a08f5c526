// Package scan implements the paper's "Scan & Map" component: each rank
// parses its statically assigned sources, tokenizes record fields, builds the
// forward indices (field-to-term and document-to-field tables), and inserts
// unique terms into the global distributed vocabulary hashmap, which assigns
// global term IDs (paper §3.2).
package scan

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenizerConfig controls term extraction. The zero value selects the
// defaults documented per field.
type TokenizerConfig struct {
	// MinLen drops tokens shorter than this many bytes. Default 2.
	MinLen int
	// MaxLen drops tokens longer than this many bytes. Default 40.
	MaxLen int
	// KeepNumbers keeps purely numeric tokens. Default false: numbers
	// (years, identifiers) carry no thematic signal.
	KeepNumbers bool
	// Stopwords are lowercased terms to drop. Nil selects the built-in
	// English list; an empty non-nil map keeps everything.
	Stopwords map[string]bool
}

func (t TokenizerConfig) withDefaults() TokenizerConfig {
	if t.MinLen == 0 {
		t.MinLen = 2
	}
	if t.MaxLen == 0 {
		t.MaxLen = 40
	}
	if t.Stopwords == nil {
		t.Stopwords = DefaultStopwords
	}
	return t
}

// DefaultStopwords is a small English function-word list, matching the kind
// of configuration the IN-SPIRE engine applies before signature generation.
var DefaultStopwords = func() map[string]bool {
	words := []string{
		"a", "an", "and", "are", "as", "at", "be", "but", "by", "for",
		"from", "had", "has", "have", "he", "her", "his", "if", "in",
		"into", "is", "it", "its", "no", "not", "of", "on", "or", "she",
		"such", "that", "the", "their", "then", "there", "these", "they",
		"this", "to", "was", "we", "were", "which", "will", "with", "would",
	}
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return m
}()

// NormalizeTerm folds a token to its indexed form: Unicode-aware lowercasing
// plus trimming the intra-word connectors (' and -) the delimiter rules let
// through at token edges. This is the single normalization shared by the
// tokenizer and every query path (query.Engine, serve.Store) — a query layer
// that folds differently makes indexed terms silently unreachable.
func NormalizeTerm(term string) string {
	return strings.Trim(strings.ToLower(term), "'-")
}

// isDelim reports whether r separates terms: anything that is not a letter,
// digit, or intra-word connector. Markup characters (<, >, /, &) therefore
// delimit, which strips the residual HTML in TREC-like sources.
func isDelim(r rune) bool {
	if unicode.IsLetter(r) || unicode.IsDigit(r) {
		return false
	}
	return r != '\'' && r != '-'
}

// tokenByte[b] reports, for an ASCII byte b, that it continues a token: the
// byte-level form of !isDelim, so ASCII text is split without decoding.
var tokenByte = func() (t [utf8.RuneSelf]bool) {
	for b := range t {
		t[b] = !isDelim(rune(b))
	}
	return t
}()

// tokens walks the raw tokens of a text: the maximal runs of non-delimiter
// runes, before any folding or dropping. Bytes that are not valid UTF-8
// decode to utf8.RuneError, a delimiter, exactly as ranging over the string
// does. It is the one token loop: ForEachToken and Scan both read it.
type tokens struct {
	text string
	pos  int
}

// next returns the next raw token and whether it is all ASCII; ok is false
// at the end of the text.
func (t *tokens) next() (tok string, ascii, ok bool) {
	text, i := t.text, t.pos
	for i < len(text) {
		if b := text[i]; b < utf8.RuneSelf {
			if tokenByte[b] {
				break
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(text[i:])
		if !isDelim(r) {
			break
		}
		i += n
	}
	start := i
	ascii = true
	for i < len(text) {
		if b := text[i]; b < utf8.RuneSelf {
			if !tokenByte[b] {
				break
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(text[i:])
		if isDelim(r) {
			break
		}
		ascii = false
		i += n
	}
	t.pos = i
	return text[start:i], ascii, i > start
}

// term folds a raw token to its indexed term, or reports keep = false when
// the config drops it: outside [MinLen, MaxLen] bytes raw, shorter than
// MinLen folded, all digits, or a stopword. An ASCII token is folded over
// bytes, in buf when it has capitals, and allocates only a kept term with
// capitals; any other token goes through NormalizeTerm. cfg must have its
// defaults applied.
func (cfg *TokenizerConfig) term(tok string, ascii bool, buf *[]byte) (term string, keep bool) {
	if len(tok) < cfg.MinLen || len(tok) > cfg.MaxLen {
		return "", false
	}
	if !ascii {
		term = NormalizeTerm(tok)
		if len(term) < cfg.MinLen || !cfg.KeepNumbers && allDigits(term) || cfg.Stopwords[term] {
			return "", false
		}
		return term, true
	}
	// ToLower leaves ' and - alone, so trimming first folds the same.
	lo, hi := 0, len(tok)
	for lo < hi && (tok[lo] == '\'' || tok[lo] == '-') {
		lo++
	}
	for hi > lo && (tok[hi-1] == '\'' || tok[hi-1] == '-') {
		hi--
	}
	tok = tok[lo:hi]
	if len(tok) < cfg.MinLen {
		return "", false
	}
	upper := false
	for i := 0; i < len(tok); i++ {
		if 'A' <= tok[i] && tok[i] <= 'Z' {
			upper = true
			break
		}
	}
	if !upper {
		if !cfg.KeepNumbers && allDigits(tok) || cfg.Stopwords[tok] {
			return "", false
		}
		return tok, true
	}
	// A token with a capital letter is not all digits.
	b := append((*buf)[:0], tok...)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
	}
	*buf = b
	if cfg.Stopwords[string(b)] {
		return "", false
	}
	return string(b), true
}

// Tokenize splits text into lowercased terms according to the config.
func Tokenize(text string, cfg TokenizerConfig) []string {
	var out []string
	ForEachToken(text, cfg, func(term string) {
		out = append(out, term)
	})
	return out
}

// ForEachToken streams the terms of text without building a slice. Every
// term it hands fn is an immutable string fn may keep.
func ForEachToken(text string, cfg TokenizerConfig, fn func(term string)) {
	cfg = cfg.withDefaults()
	var buf []byte
	toks := tokens{text: text}
	for {
		tok, ascii, ok := toks.next()
		if !ok {
			return
		}
		if term, keep := cfg.term(tok, ascii, &buf); keep {
			fn(term)
		}
	}
}

func allDigits(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return len(s) > 0
}

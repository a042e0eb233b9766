// Package like compiles SQL LIKE patterns ('%' matches any run, '_' any
// single character) into matchers specialized by shape: patterns without
// wildcards become an equality test, a single leading/trailing '%' run
// becomes a suffix/prefix test, a literal between two '%' runs becomes a
// substring test, and everything else compiles to an anchored regexp. Each
// fast path is provably equivalent to the regexp it replaces. The
// internal/vec LIKE kernels match through these matchers, compiling a
// literal pattern once per program and a computed one once per distinct
// value per run.
package like

import (
	"fmt"
	"regexp"
	"strings"
)

// Kind is the matcher specialization.
type Kind uint8

const (
	// Exact: the pattern has no wildcards; match is string equality.
	Exact Kind = iota
	// Prefix: the only wildcards are a trailing '%' run.
	Prefix
	// Suffix: the only wildcards are a leading '%' run.
	Suffix
	// Contains: a wildcard-free literal between a leading and a trailing
	// '%' run (a bare "%" is Suffix with an empty literal, which matches
	// everything).
	Contains
	// Regex: any other pattern — '_' anywhere, or an interior '%'.
	Regex
)

// Matcher is a compiled LIKE pattern. The zero value matches only the
// empty string (Exact, empty literal). Matchers are immutable and safe for
// concurrent use.
type Matcher struct {
	kind Kind
	lit  string
	re   *regexp.Regexp
}

// Kind reports the specialization chosen for the pattern.
func (m Matcher) Kind() Kind { return m.kind }

// Compile builds a matcher for a SQL LIKE pattern.
func Compile(pat string) (Matcher, error) {
	body := pat
	lead := 0
	for lead < len(body) && body[lead] == '%' {
		lead++
	}
	body = body[lead:]
	trail := len(body)
	for trail > 0 && body[trail-1] == '%' {
		trail--
	}
	hadTrail := trail < len(body)
	body = body[:trail]
	if !strings.ContainsAny(body, "%_") {
		switch {
		case lead == 0 && !hadTrail:
			return Matcher{kind: Exact, lit: body}, nil
		case lead == 0:
			return Matcher{kind: Prefix, lit: body}, nil
		case !hadTrail:
			return Matcher{kind: Suffix, lit: body}, nil
		default:
			return Matcher{kind: Contains, lit: body}, nil
		}
	}
	var sb strings.Builder
	sb.WriteString("(?s)^")
	for _, r := range pat {
		switch r {
		case '%':
			sb.WriteString(".*")
		case '_':
			sb.WriteString(".")
		default:
			sb.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	sb.WriteString("$")
	re, err := regexp.Compile(sb.String())
	if err != nil {
		return Matcher{}, fmt.Errorf("like: bad pattern %q: %w", pat, err)
	}
	return Matcher{kind: Regex, re: re}, nil
}

// Match reports whether s matches the pattern.
func (m Matcher) Match(s string) bool {
	switch m.kind {
	case Exact:
		return s == m.lit
	case Prefix:
		return strings.HasPrefix(s, m.lit)
	case Suffix:
		return strings.HasSuffix(s, m.lit)
	case Contains:
		return strings.Contains(s, m.lit)
	default:
		return m.re.MatchString(s)
	}
}

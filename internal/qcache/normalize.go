package qcache

import (
	"strconv"
	"strings"
	"sync"

	"repro/internal/sql"
)

// scratch is pooled per-call lexing and key-building state, so steady-state
// cache lookups do not allocate token slices or builders per statement.
type scratch struct {
	toks []sql.Token
	key  strings.Builder
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// buildKey lexes sqlText once and renders the plan-cache key into sc.key:
//
//	db \x00 rowLimit \x00 normalized-text \x00 bind-list
//
// The normalized text joins tokens with single spaces, upper-cases
// keywords and lower-cases unquoted identifiers (the lexer already
// canonicalizes both), strips comments, and replaces every literal with
// '?'. Identifiers are written length-prefixed, because a quoted one can
// hold spaces, commas or a keyword's spelling: "s , a" is one column name
// and never the three tokens s , a. The extracted literals form the bind
// list, length-prefixed so values cannot collide across boundaries.
// Keying on (normalized text, bind list) means formatting differences
// never split cache entries while different statements never share one.
// The token stream stays in sc.toks for a parse-on-miss via
// sql.ParseTokens, so the lex is paid exactly once.
func buildKey(db, sqlText string, rowLimit int64, sc *scratch) (string, error) {
	toks, err := sql.LexInto(sqlText, sc.toks)
	sc.toks = toks
	if err != nil {
		return "", err
	}
	sb := &sc.key
	sb.Reset()
	sb.WriteString(db)
	sb.WriteByte(0)
	sb.WriteString(strconv.FormatInt(rowLimit, 10))
	sb.WriteByte(0)
	// A statement-terminating semicolon is cosmetic; drop it from the
	// normalized text (the parser skips it too).
	norm := toks
	if n := len(norm); n >= 2 && norm[n-1].Kind == sql.TokEOF &&
		norm[n-2].Kind == sql.TokSymbol && norm[n-2].Text == ";" {
		norm = norm[:n-2]
	}
	for i, t := range norm {
		if t.Kind == sql.TokEOF {
			continue
		}
		if i > 0 {
			sb.WriteByte(' ')
		}
		switch t.Kind {
		case sql.TokNumber, sql.TokString:
			sb.WriteByte('?')
		case sql.TokIdent:
			writePrefixed(sb, 'i', t.Text)
		default:
			sb.WriteString(t.Text)
		}
	}
	sb.WriteByte(0)
	for _, t := range toks {
		// Kind marker + length prefix: '1'/"1" and 1 vs 1,2 never collide.
		switch t.Kind {
		case sql.TokString:
			writePrefixed(sb, 's', t.Text)
		case sql.TokNumber:
			writePrefixed(sb, 'n', t.Text)
		}
	}
	return sb.String(), nil
}

// writePrefixed writes kind, len(text), ':' and text, so a rendered token's
// extent never depends on what it contains.
func writePrefixed(sb *strings.Builder, kind byte, text string) {
	sb.WriteByte(kind)
	var n [20]byte
	sb.Write(strconv.AppendInt(n[:0], int64(len(text)), 10))
	sb.WriteByte(':')
	sb.WriteString(text)
}

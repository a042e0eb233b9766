package sql

import (
	"strconv"
	"strings"

	"repro/internal/col"
)

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(input string) (Statement, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	return ParseTokens(toks)
}

// ParseTokens parses a single statement from an already-lexed token
// stream (as produced by Lex/LexInto, i.e. ending in TokEOF). It lets
// callers that lex once for normalization reuse the same tokens for the
// parse instead of lexing twice.
func ParseTokens(toks []Token) (Statement, error) {
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(TokSymbol, ";")
	if !p.at(TokEOF, "") {
		return nil, errf(p.peek().Pos, "unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

// ParseExpr parses a standalone expression (used by tests and the NL
// translator's slot filler).
func ParseExpr(input string) (Expr, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(TokEOF, "") {
		return nil, errf(p.peek().Pos, "unexpected %s after expression", p.peek())
	}
	return e, nil
}

type parser struct {
	toks  []Token
	pos   int
	depth int // levels of expression nesting open at pos (nest)
}

// MaxDepth bounds how deeply a statement's expressions nest: each NOT,
// unary sign and sub-expression (parenthesized, a function, CAST or CASE
// part, an IN item) inside another expression is one level. The binder,
// the plan printer and the CF fragment codec all recurse over the tree,
// and printing and encoding cost grows with the square of the depth, so
// the parser refuses deeper nesting and the codec refuses fragments
// deeper than the same bound.
const MaxDepth = 256

// nest opens one more level of expression nesting, or fails at the
// current token when the statement nests deeper than MaxDepth; unnest
// closes it.
func (p *parser) nest() error {
	if p.depth == MaxDepth {
		return errf(p.peek().Pos, "expression nests deeper than %d levels", MaxDepth)
	}
	p.depth++
	return nil
}

func (p *parser) unnest() { p.depth-- }

func (p *parser) peek() Token { return p.toks[p.pos] }

func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

// at reports whether the current token matches kind (and text, if given).
func (p *parser) at(kind TokenKind, text string) bool {
	t := p.peek()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *parser) atKeyword(kws ...string) bool {
	t := p.peek()
	if t.Kind != TokKeyword {
		return false
	}
	for _, k := range kws {
		if t.Text == k {
			return true
		}
	}
	return false
}

// accept consumes the current token if it matches, reporting success.
func (p *parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) acceptKeyword(kw string) bool { return p.accept(TokKeyword, kw) }

// expect consumes a required token or fails.
func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.advance(), nil
	}
	want := text
	if want == "" {
		switch kind {
		case TokIdent:
			want = "identifier"
		case TokNumber:
			want = "number"
		case TokString:
			want = "string"
		default:
			want = "token"
		}
	}
	return Token{}, errf(p.peek().Pos, "expected %s, found %s", want, p.peek())
}

func (p *parser) expectKeyword(kw string) error {
	_, err := p.expect(TokKeyword, kw)
	return err
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.atKeyword("SELECT"):
		return p.parseSelect()
	case p.atKeyword("CREATE"):
		return p.parseCreate()
	case p.atKeyword("DROP"):
		return p.parseDrop()
	case p.atKeyword("INSERT"):
		return p.parseInsert()
	case p.atKeyword("SHOW"):
		return p.parseShow()
	case p.atKeyword("DESCRIBE", "DESC"):
		p.advance()
		name, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		return &Describe{Table: name.Text}, nil
	case p.atKeyword("EXPLAIN"):
		p.advance()
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &Explain{Stmt: inner}, nil
	case p.atKeyword("USE"):
		p.advance()
		name, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		return &Use{Database: name.Text}, nil
	default:
		return nil, errf(p.peek().Pos, "expected a statement, found %s", p.peek())
	}
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{}
	if p.acceptKeyword("DISTINCT") {
		sel.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}

	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}

	if p.acceptKeyword("FROM") {
		first, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, FromItem{Table: first, Join: CrossJoin})
		for {
			switch {
			case p.accept(TokSymbol, ","):
				tr, err := p.parseTableRef()
				if err != nil {
					return nil, err
				}
				sel.From = append(sel.From, FromItem{Table: tr, Join: CrossJoin})
			case p.atKeyword("JOIN", "INNER", "LEFT", "CROSS"):
				item, err := p.parseJoin()
				if err != nil {
					return nil, err
				}
				sel.From = append(sel.From, item)
			default:
				goto fromDone
			}
		}
	}
fromDone:

	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.parseNonNegInt()
		if err != nil {
			return nil, err
		}
		sel.Limit = &n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.parseNonNegInt()
		if err != nil {
			return nil, err
		}
		sel.Offset = &n
	}
	return sel, nil
}

func (p *parser) parseNonNegInt() (int64, error) {
	tok, err := p.expect(TokNumber, "")
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(tok.Text, 10, 64)
	if err != nil || n < 0 {
		return 0, errf(tok.Pos, "expected a non-negative integer, found %s", tok.Text)
	}
	return n, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(TokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	// t.* form: identifier '.' '*'
	if p.at(TokIdent, "") && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokSymbol && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == TokSymbol && p.toks[p.pos+2].Text == "*" {
		tbl := p.advance()
		p.advance()
		p.advance()
		return SelectItem{Star: true, Table: tbl.Text}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expect(TokIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias.Text
	} else if p.at(TokIdent, "") {
		item.Alias = p.advance().Text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Name: name.Text}
	if p.acceptKeyword("AS") {
		alias, err := p.expect(TokIdent, "")
		if err != nil {
			return TableRef{}, err
		}
		tr.Alias = alias.Text
	} else if p.at(TokIdent, "") {
		tr.Alias = p.advance().Text
	}
	return tr, nil
}

func (p *parser) parseJoin() (FromItem, error) {
	jt := InnerJoin
	switch {
	case p.acceptKeyword("INNER"):
	case p.acceptKeyword("LEFT"):
		p.acceptKeyword("OUTER")
		jt = LeftJoin
	case p.acceptKeyword("CROSS"):
		jt = CrossJoin
	}
	if err := p.expectKeyword("JOIN"); err != nil {
		return FromItem{}, err
	}
	tr, err := p.parseTableRef()
	if err != nil {
		return FromItem{}, err
	}
	item := FromItem{Table: tr, Join: jt}
	if jt != CrossJoin {
		if err := p.expectKeyword("ON"); err != nil {
			return FromItem{}, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return FromItem{}, err
		}
		item.On = on
	}
	return item, nil
}

func (p *parser) parseCreate() (Statement, error) {
	p.advance() // CREATE
	switch {
	case p.acceptKeyword("DATABASE"):
		name, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		return &CreateDatabase{Name: name.Text}, nil
	case p.acceptKeyword("TABLE"):
		name, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		ct := &CreateTable{Name: name.Text}
		for {
			cn, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			tn, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			cd := ColumnDef{Name: cn.Text, Type: tn}
			if p.acceptKeyword("NOT") {
				if err := p.expectKeyword("NULL"); err != nil {
					return nil, err
				}
				cd.NotNull = true
			} else {
				p.acceptKeyword("NULL")
			}
			ct.Columns = append(ct.Columns, cd)
			if p.accept(TokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return ct, nil
	default:
		return nil, errf(p.peek().Pos, "expected DATABASE or TABLE after CREATE")
	}
}

// parseTypeName accepts an identifier or type-ish keyword (DATE,
// TIMESTAMP) with an optional parenthesized length, e.g. VARCHAR(32).
func (p *parser) parseTypeName() (col.Type, error) {
	t := p.peek()
	if t.Kind != TokIdent && t.Kind != TokKeyword {
		return col.UNKNOWN, errf(t.Pos, "expected a type name, found %s", t)
	}
	p.advance()
	name := t.Text
	if p.accept(TokSymbol, "(") {
		for !p.at(TokSymbol, ")") && !p.at(TokEOF, "") {
			p.advance()
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return col.UNKNOWN, err
		}
	}
	ct, ok := col.ParseType(name)
	if !ok {
		return col.UNKNOWN, errf(t.Pos, "unknown type %q", name)
	}
	return ct, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.advance() // DROP
	switch {
	case p.acceptKeyword("DATABASE"):
		name, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		return &DropDatabase{Name: name.Text}, nil
	case p.acceptKeyword("TABLE"):
		d := &DropTable{}
		if p.acceptKeyword("IF") {
			if err := p.expectKeyword("EXISTS"); err != nil {
				return nil, err
			}
			d.IfExists = true
		}
		name, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		d.Name = name.Text
		return d, nil
	default:
		return nil, errf(p.peek().Pos, "expected DATABASE or TABLE after DROP")
	}
}

func (p *parser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: name.Text}
	if p.accept(TokSymbol, "(") {
		for {
			cn, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, cn.Text)
			if p.accept(TokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(TokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.accept(TokSymbol, ",") {
			continue
		}
		break
	}
	return ins, nil
}

func (p *parser) parseShow() (Statement, error) {
	p.advance() // SHOW
	switch {
	case p.acceptKeyword("DATABASES"):
		return &ShowDatabases{}, nil
	case p.acceptKeyword("TABLES"):
		return &ShowTables{}, nil
	default:
		return nil, errf(p.peek().Pos, "expected DATABASES or TABLES after SHOW")
	}
}

// Expression parsing, lowest precedence first.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

// parseNested parses an expression inside another one, one level of
// nesting deeper.
func (p *parser) parseNested() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	return p.parseExpr()
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.atKeyword("NOT") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer p.unnest()
		p.advance()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(TokSymbol, "=") || p.at(TokSymbol, "<>") || p.at(TokSymbol, "!=") ||
			p.at(TokSymbol, "<") || p.at(TokSymbol, "<=") || p.at(TokSymbol, ">") || p.at(TokSymbol, ">="):
			op := p.advance().Text
			if op == "!=" {
				op = "<>"
			}
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: op, L: left, R: right}
		case p.atKeyword("IS"):
			p.advance()
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			left = &IsNull{X: left, Not: not}
		case p.atKeyword("BETWEEN"):
			p.advance()
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &Between{X: left, Lo: lo, Hi: hi}
		case p.atKeyword("IN"):
			p.advance()
			list, err := p.parseExprList()
			if err != nil {
				return nil, err
			}
			left = &In{X: left, List: list}
		case p.atKeyword("LIKE"):
			p.advance()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: "LIKE", L: left, R: right}
		case p.atKeyword("NOT"):
			// x NOT BETWEEN / NOT IN / NOT LIKE
			save := p.pos
			p.advance()
			switch {
			case p.atKeyword("BETWEEN"):
				p.advance()
				lo, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				if err := p.expectKeyword("AND"); err != nil {
					return nil, err
				}
				hi, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &Between{X: left, Lo: lo, Hi: hi, Not: true}
			case p.atKeyword("IN"):
				p.advance()
				list, err := p.parseExprList()
				if err != nil {
					return nil, err
				}
				left = &In{X: left, List: list, Not: true}
			case p.atKeyword("LIKE"):
				p.advance()
				right, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &Unary{Op: "NOT", X: &Binary{Op: "LIKE", L: left, R: right}}
			default:
				p.pos = save
				return left, nil
			}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseExprList() ([]Expr, error) {
	if _, err := p.expect(TokSymbol, "("); err != nil {
		return nil, err
	}
	var list []Expr
	for {
		e, err := p.parseNested()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if p.accept(TokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(TokSymbol, ")"); err != nil {
		return nil, err
	}
	return list, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.at(TokSymbol, "+") || p.at(TokSymbol, "-") {
		op := p.advance().Text
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(TokSymbol, "*") || p.at(TokSymbol, "/") || p.at(TokSymbol, "%") {
		op := p.advance().Text
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.at(TokSymbol, "-") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer p.unnest()
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative numeric literals immediately.
		if lit, ok := x.(*Literal); ok && lit.Val.Type == col.INT64 {
			return &Literal{Val: col.Int(-lit.Val.I)}, nil
		}
		if lit, ok := x.(*Literal); ok && lit.Val.Type == col.FLOAT64 {
			return &Literal{Val: col.Float(-lit.Val.F)}, nil
		}
		return &Unary{Op: "-", X: x}, nil
	}
	p.accept(TokSymbol, "+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.Kind == TokNumber:
		p.advance()
		if strings.Contains(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, errf(t.Pos, "bad number %q", t.Text)
			}
			return &Literal{Val: col.Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errf(t.Pos, "bad integer %q", t.Text)
		}
		return &Literal{Val: col.Int(n)}, nil

	case t.Kind == TokString:
		p.advance()
		return &Literal{Val: col.Str(t.Text)}, nil

	case t.Kind == TokKeyword:
		switch t.Text {
		case "NULL":
			p.advance()
			return &Literal{Val: col.NullValue(col.UNKNOWN)}, nil
		case "TRUE":
			p.advance()
			return &Literal{Val: col.Bool(true)}, nil
		case "FALSE":
			p.advance()
			return &Literal{Val: col.Bool(false)}, nil
		case "DATE":
			p.advance()
			s, err := p.expect(TokString, "")
			if err != nil {
				return nil, err
			}
			days, derr := col.ParseDate(s.Text)
			if derr != nil {
				return nil, errf(s.Pos, "bad DATE literal: %v", derr)
			}
			return &Literal{Val: col.Date(days)}, nil
		case "TIMESTAMP":
			p.advance()
			s, err := p.expect(TokString, "")
			if err != nil {
				return nil, err
			}
			us, terr := col.ParseTimestamp(s.Text)
			if terr != nil {
				return nil, errf(s.Pos, "bad TIMESTAMP literal: %v", terr)
			}
			return &Literal{Val: col.Timestamp(us)}, nil
		case "CAST":
			p.advance()
			if _, err := p.expect(TokSymbol, "("); err != nil {
				return nil, err
			}
			x, err := p.parseNested()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			to, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			return &Cast{X: x, To: to}, nil
		case "CASE":
			return p.parseCase()
		}
		return nil, errf(t.Pos, "unexpected keyword %s in expression", t.Text)

	case t.Kind == TokIdent:
		p.advance()
		// Function call?
		if p.at(TokSymbol, "(") {
			return p.parseFuncCall(strings.ToUpper(t.Text))
		}
		// Qualified column?
		if p.accept(TokSymbol, ".") {
			name, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.Text, Name: name.Text}, nil
		}
		return &ColumnRef{Name: t.Text}, nil

	case t.Kind == TokSymbol && t.Text == "(":
		p.advance()
		e, err := p.parseNested()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, errf(t.Pos, "unexpected %s in expression", t)
}

func (p *parser) parseFuncCall(name string) (Expr, error) {
	if _, err := p.expect(TokSymbol, "("); err != nil {
		return nil, err
	}
	f := &FuncCall{Name: name}
	if p.accept(TokSymbol, "*") {
		f.Star = true
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.acceptKeyword("DISTINCT") {
		f.Distinct = true
	}
	if !p.at(TokSymbol, ")") {
		for {
			a, err := p.parseNested()
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, a)
			if p.accept(TokSymbol, ",") {
				continue
			}
			break
		}
	}
	if _, err := p.expect(TokSymbol, ")"); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *parser) parseCase() (Expr, error) {
	p.advance() // CASE
	var operand Expr
	if !p.atKeyword("WHEN") {
		var err error
		operand, err = p.parseNested()
		if err != nil {
			return nil, err
		}
	}
	c := &Case{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseNested()
		if err != nil {
			return nil, err
		}
		if operand != nil {
			cond = &Binary{Op: "=", L: operand, R: cond}
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseNested()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, When{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, errf(p.peek().Pos, "CASE requires at least one WHEN arm")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseNested()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

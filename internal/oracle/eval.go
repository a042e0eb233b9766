// Package oracle is the row-at-a-time reference the equivalence tests
// compare the engine against: an interpreter for bound expressions
// (Evaluator), a boxed-value aggregation (Agg) and a plan runner (Run)
// built from them. It favours obviousness over speed — every node is
// evaluated over every row — and no production code imports it; a test in
// this package enforces that.
package oracle

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/col"
	"repro/internal/like"
	"repro/internal/plan"
)

// Evaluator evaluates bound expressions over batches. It keeps the LIKE
// patterns it has compiled.
type Evaluator struct {
	likes map[string]like.Matcher
}

// NewEvaluator returns an empty evaluator.
func NewEvaluator() *Evaluator {
	return &Evaluator{likes: make(map[string]like.Matcher)}
}

// Eval computes e over b, returning a vector of b.N rows.
func (ev *Evaluator) Eval(e plan.BoundExpr, b *col.Batch) (*col.Vector, error) {
	switch x := e.(type) {
	case *plan.BLit:
		return broadcast(x.Val, b.N)

	case *plan.BCol:
		if x.Ordinal < 0 || x.Ordinal >= len(b.Vecs) {
			return nil, fmt.Errorf("oracle: column ordinal %d out of range %d (%s)", x.Ordinal, len(b.Vecs), x.Name)
		}
		return b.Vecs[x.Ordinal], nil

	case *plan.BUnary:
		inner, err := ev.Eval(x.X, b)
		if err != nil {
			return nil, err
		}
		return evalUnary(x.Op, inner)

	case *plan.BBinary:
		return ev.evalBinary(x, b)

	case *plan.BIsNull:
		inner, err := ev.Eval(x.X, b)
		if err != nil {
			return nil, err
		}
		out := col.NewVector(col.BOOL, inner.N)
		for i := 0; i < inner.N; i++ {
			isNull := inner.IsNull(i)
			if x.Not {
				out.Bools[i] = !isNull
			} else {
				out.Bools[i] = isNull
			}
		}
		return out, nil

	case *plan.BIn:
		return ev.evalIn(x, b)

	case *plan.BFunc:
		return ev.evalFunc(x, b)

	case *plan.BCase:
		return ev.evalCase(x, b)

	case *plan.BCast:
		inner, err := ev.Eval(x.X, b)
		if err != nil {
			return nil, err
		}
		return evalCast(inner, x.To)

	default:
		return nil, fmt.Errorf("oracle: unknown expression node %T", e)
	}
}

// EvalBool evaluates a predicate and returns the selected row indexes
// (rows where the predicate is TRUE; NULL and FALSE are dropped).
func (ev *Evaluator) EvalBool(e plan.BoundExpr, b *col.Batch) ([]int, error) {
	v, err := ev.Eval(e, b)
	if err != nil {
		return nil, err
	}
	if v.Type != col.BOOL {
		return nil, fmt.Errorf("oracle: predicate evaluated to %s, want BOOLEAN", v.Type)
	}
	sel := make([]int, 0, v.N)
	for i := 0; i < v.N; i++ {
		if !v.IsNull(i) && v.Bools[i] {
			sel = append(sel, i)
		}
	}
	return sel, nil
}

func broadcast(v col.Value, n int) (*col.Vector, error) {
	if v.Type == col.UNKNOWN {
		return nil, fmt.Errorf("oracle: untyped literal %s", v)
	}
	out := col.NewVector(v.Type, n)
	if v.Null {
		out.Valid = make([]bool, n)
		return out, nil
	}
	for i := 0; i < n; i++ {
		out.Set(i, v)
	}
	return out, nil
}

func evalUnary(op string, in *col.Vector) (*col.Vector, error) {
	switch op {
	case "NOT":
		out := col.NewVector(col.BOOL, in.N)
		for i := 0; i < in.N; i++ {
			if in.IsNull(i) {
				out.SetNull(i)
				continue
			}
			out.Bools[i] = !in.Bools[i]
		}
		return out, nil
	case "-":
		out := col.NewVector(in.Type, in.N)
		for i := 0; i < in.N; i++ {
			if in.IsNull(i) {
				out.SetNull(i)
				continue
			}
			switch in.Type {
			case col.INT64:
				out.Ints[i] = -in.Ints[i]
			case col.FLOAT64:
				out.Floats[i] = -in.Floats[i]
			default:
				return nil, fmt.Errorf("oracle: unary - on %s", in.Type)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("oracle: unknown unary op %q", op)
	}
}

func (ev *Evaluator) evalBinary(x *plan.BBinary, b *col.Batch) (*col.Vector, error) {
	switch x.Op {
	case "AND", "OR":
		return ev.evalLogical(x, b)
	}
	l, err := ev.Eval(x.L, b)
	if err != nil {
		return nil, err
	}
	r, err := ev.Eval(x.R, b)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "+", "-", "*", "/", "%":
		return evalArith(x.Op, l, r, x.Ty)
	case "=", "<>", "<", "<=", ">", ">=":
		return evalCompare(x.Op, l, r)
	case "LIKE":
		return ev.evalLike(l, r)
	default:
		return nil, fmt.Errorf("oracle: unknown binary op %q", x.Op)
	}
}

// evalLogical implements SQL three-valued AND/OR.
func (ev *Evaluator) evalLogical(x *plan.BBinary, b *col.Batch) (*col.Vector, error) {
	l, err := ev.Eval(x.L, b)
	if err != nil {
		return nil, err
	}
	r, err := ev.Eval(x.R, b)
	if err != nil {
		return nil, err
	}
	out := col.NewVector(col.BOOL, l.N)
	for i := 0; i < l.N; i++ {
		ln, rn := l.IsNull(i), r.IsNull(i)
		var lv, rv bool
		if !ln {
			lv = l.Bools[i]
		}
		if !rn {
			rv = r.Bools[i]
		}
		if x.Op == "AND" {
			switch {
			case !ln && !lv, !rn && !rv:
				out.Bools[i] = false
			case ln || rn:
				out.SetNull(i)
			default:
				out.Bools[i] = true
			}
		} else { // OR
			switch {
			case !ln && lv, !rn && rv:
				out.Bools[i] = true
			case ln || rn:
				out.SetNull(i)
			default:
				out.Bools[i] = false
			}
		}
	}
	return out, nil
}

func evalArith(op string, l, r *col.Vector, resTy col.Type) (*col.Vector, error) {
	out := col.NewVector(resTy, l.N)
	for i := 0; i < l.N; i++ {
		if l.IsNull(i) || r.IsNull(i) {
			out.SetNull(i)
			continue
		}
		switch resTy {
		case col.INT64:
			a, b := l.Ints[i], r.Ints[i]
			switch op {
			case "+":
				out.Ints[i] = a + b
			case "-":
				out.Ints[i] = a - b
			case "*":
				out.Ints[i] = a * b
			case "%":
				if b == 0 {
					out.SetNull(i) // x % 0 is NULL, keeping execution total
				} else {
					out.Ints[i] = a % b
				}
			default:
				return nil, fmt.Errorf("oracle: op %s with INT64 result", op)
			}
		case col.FLOAT64:
			a, b := numAsFloat(l, i), numAsFloat(r, i)
			switch op {
			case "+":
				out.Floats[i] = a + b
			case "-":
				out.Floats[i] = a - b
			case "*":
				out.Floats[i] = a * b
			case "/":
				if b == 0 {
					out.SetNull(i) // x / 0 is NULL, keeping execution total
				} else {
					out.Floats[i] = a / b
				}
			default:
				return nil, fmt.Errorf("oracle: op %s with FLOAT64 result", op)
			}
		case col.DATE, col.TIMESTAMP:
			a, b := l.Ints[i], r.Ints[i]
			switch op {
			case "+":
				out.Ints[i] = a + b
			case "-":
				out.Ints[i] = a - b
			default:
				return nil, fmt.Errorf("oracle: op %s on %s", op, resTy)
			}
		default:
			return nil, fmt.Errorf("oracle: arithmetic with %s result", resTy)
		}
	}
	return out, nil
}

func numAsFloat(v *col.Vector, i int) float64 {
	if v.Type == col.FLOAT64 {
		return v.Floats[i]
	}
	return float64(v.Ints[i])
}

func evalCompare(op string, l, r *col.Vector) (*col.Vector, error) {
	out := col.NewVector(col.BOOL, l.N)
	for i := 0; i < l.N; i++ {
		if l.IsNull(i) || r.IsNull(i) {
			out.SetNull(i)
			continue
		}
		c, err := compareAt(l, r, i)
		if err != nil {
			return nil, err
		}
		switch op {
		case "=":
			out.Bools[i] = c == 0
		case "<>":
			out.Bools[i] = c != 0
		case "<":
			out.Bools[i] = c < 0
		case "<=":
			out.Bools[i] = c <= 0
		case ">":
			out.Bools[i] = c > 0
		case ">=":
			out.Bools[i] = c >= 0
		}
	}
	return out, nil
}

func compareAt(l, r *col.Vector, i int) (int, error) {
	if l.Type != r.Type && !(l.Type.Numeric() && r.Type.Numeric()) {
		return 0, fmt.Errorf("oracle: comparing %s with %s", l.Type, r.Type)
	}
	if l.Type.Numeric() && r.Type.Numeric() && l.Type != r.Type {
		a, b := numAsFloat(l, i), numAsFloat(r, i)
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	switch l.Type {
	case col.BOOL:
		a, b := l.Bools[i], r.Bools[i]
		switch {
		case a == b:
			return 0, nil
		case !a:
			return -1, nil
		default:
			return 1, nil
		}
	case col.INT64, col.DATE, col.TIMESTAMP:
		a, b := l.Ints[i], r.Ints[i]
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	case col.FLOAT64:
		a, b := l.Floats[i], r.Floats[i]
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	case col.STRING:
		return strings.Compare(l.Strs[i], r.Strs[i]), nil
	default:
		return 0, fmt.Errorf("oracle: comparing %s", l.Type)
	}
}

// evalIn implements SQL IN semantics: NULL input yields NULL; a non-match
// against a list containing NULL yields NULL.
func (ev *Evaluator) evalIn(x *plan.BIn, b *col.Batch) (*col.Vector, error) {
	in, err := ev.Eval(x.X, b)
	if err != nil {
		return nil, err
	}
	listHasNull := false
	for _, v := range x.List {
		if v.Null {
			listHasNull = true
		}
	}
	out := col.NewVector(col.BOOL, in.N)
	for i := 0; i < in.N; i++ {
		if in.IsNull(i) {
			out.SetNull(i)
			continue
		}
		val := in.Value(i)
		match := false
		for _, lv := range x.List {
			if lv.Null {
				continue
			}
			if val.Equal(lv) {
				match = true
				break
			}
		}
		switch {
		case match:
			out.Bools[i] = !x.Not
		case listHasNull:
			out.SetNull(i) // non-match against a NULL-bearing list is unknown
		default:
			out.Bools[i] = x.Not
		}
	}
	return out, nil
}

func (ev *Evaluator) evalLike(l, r *col.Vector) (*col.Vector, error) {
	out := col.NewVector(col.BOOL, l.N)
	for i := 0; i < l.N; i++ {
		if l.IsNull(i) || r.IsNull(i) {
			out.SetNull(i)
			continue
		}
		m, err := ev.likePattern(r.Strs[i])
		if err != nil {
			return nil, err
		}
		out.Bools[i] = m.Match(l.Strs[i])
	}
	return out, nil
}

// likePattern compiles a SQL LIKE pattern ('%' any run, '_' any single
// character) into a like.Matcher.
func (ev *Evaluator) likePattern(pat string) (like.Matcher, error) {
	if m, ok := ev.likes[pat]; ok {
		return m, nil
	}
	m, err := like.Compile(pat)
	if err != nil {
		return like.Matcher{}, fmt.Errorf("oracle: bad LIKE pattern %q: %w", pat, err)
	}
	ev.likes[pat] = m
	return m, nil
}

func (ev *Evaluator) evalCase(x *plan.BCase, b *col.Batch) (*col.Vector, error) {
	conds := make([]*col.Vector, len(x.Whens))
	results := make([]*col.Vector, len(x.Whens))
	for i, w := range x.Whens {
		c, err := ev.Eval(w.Cond, b)
		if err != nil {
			return nil, err
		}
		r, err := ev.Eval(w.Result, b)
		if err != nil {
			return nil, err
		}
		conds[i], results[i] = c, r
	}
	var els *col.Vector
	if x.Else != nil {
		v, err := ev.Eval(x.Else, b)
		if err != nil {
			return nil, err
		}
		els = v
	}
	out := col.NewVector(x.Ty, b.N)
	for i := 0; i < b.N; i++ {
		picked := false
		for w := range x.Whens {
			if !conds[w].IsNull(i) && conds[w].Bools[i] {
				setCoerced(out, i, results[w], x.Ty)
				picked = true
				break
			}
		}
		if !picked {
			if els != nil {
				setCoerced(out, i, els, x.Ty)
			} else {
				out.SetNull(i)
			}
		}
	}
	return out, nil
}

// setCoerced writes src[i] into dst[i], widening INT64 to FLOAT64 when the
// CASE result type demanded it.
func setCoerced(dst *col.Vector, i int, src *col.Vector, ty col.Type) {
	if src.IsNull(i) {
		dst.SetNull(i)
		return
	}
	if ty == col.FLOAT64 && src.Type == col.INT64 {
		dst.Floats[i] = float64(src.Ints[i])
		if dst.Valid != nil {
			dst.Valid[i] = true
		}
		return
	}
	dst.Set(i, src.Value(i))
}

func evalCast(in *col.Vector, to col.Type) (*col.Vector, error) {
	if in.Type == to {
		return in, nil
	}
	out := col.NewVector(to, in.N)
	for i := 0; i < in.N; i++ {
		if in.IsNull(i) {
			out.SetNull(i)
			continue
		}
		switch {
		case to == col.STRING:
			out.Strs[i] = in.Value(i).String()
		case in.Type == col.INT64 && to == col.FLOAT64:
			out.Floats[i] = float64(in.Ints[i])
		case in.Type == col.FLOAT64 && to == col.INT64:
			out.Ints[i] = int64(in.Floats[i])
		case in.Type == col.BOOL && to == col.INT64:
			if in.Bools[i] {
				out.Ints[i] = 1
			}
		case in.Type == col.DATE && to == col.TIMESTAMP:
			out.Ints[i] = in.Ints[i] * 86400 * 1e6
		case in.Type == col.TIMESTAMP && to == col.DATE:
			out.Ints[i] = in.Ints[i] / (86400 * 1e6)
		case in.Type == col.STRING:
			v, err := castString(in.Strs[i], to)
			if err != nil {
				return nil, err
			}
			out.Set(i, v)
		default:
			return nil, fmt.Errorf("oracle: cannot CAST %s to %s", in.Type, to)
		}
	}
	return out, nil
}

func castString(s string, to col.Type) (col.Value, error) {
	switch to {
	case col.INT64:
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return col.Value{}, fmt.Errorf("oracle: cannot CAST %q to BIGINT", s)
		}
		return col.Int(n), nil
	case col.FLOAT64:
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return col.Value{}, fmt.Errorf("oracle: cannot CAST %q to DOUBLE", s)
		}
		return col.Float(f), nil
	case col.DATE:
		d, err := col.ParseDate(strings.TrimSpace(s))
		if err != nil {
			return col.Value{}, fmt.Errorf("oracle: cannot CAST %q to DATE", s)
		}
		return col.Date(d), nil
	case col.TIMESTAMP:
		ts, err := col.ParseTimestamp(strings.TrimSpace(s))
		if err != nil {
			return col.Value{}, fmt.Errorf("oracle: cannot CAST %q to TIMESTAMP", s)
		}
		return col.Timestamp(ts), nil
	case col.BOOL:
		switch strings.ToLower(strings.TrimSpace(s)) {
		case "true", "t", "1":
			return col.Bool(true), nil
		case "false", "f", "0":
			return col.Bool(false), nil
		}
		return col.Value{}, fmt.Errorf("oracle: cannot CAST %q to BOOLEAN", s)
	default:
		return col.Value{}, fmt.Errorf("oracle: cannot CAST string to %s", to)
	}
}

func (ev *Evaluator) evalFunc(x *plan.BFunc, b *col.Batch) (*col.Vector, error) {
	args := make([]*col.Vector, len(x.Args))
	for i, a := range x.Args {
		v, err := ev.Eval(a, b)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	out := col.NewVector(x.Ty, b.N)
	for i := 0; i < b.N; i++ {
		if x.Name != "COALESCE" {
			nullArg := false
			for _, a := range args {
				if a.IsNull(i) {
					nullArg = true
					break
				}
			}
			if nullArg {
				out.SetNull(i)
				continue
			}
		}
		switch x.Name {
		case "ABS":
			if args[0].Type == col.FLOAT64 {
				out.Floats[i] = math.Abs(args[0].Floats[i])
			} else {
				v := args[0].Ints[i]
				if v < 0 {
					v = -v
				}
				out.Ints[i] = v
			}
		case "LOWER":
			out.Strs[i] = strings.ToLower(args[0].Strs[i])
		case "UPPER":
			out.Strs[i] = strings.ToUpper(args[0].Strs[i])
		case "LENGTH":
			out.Ints[i] = int64(len(args[0].Strs[i]))
		case "SUBSTR":
			out.Strs[i] = substr(args[0].Strs[i], args[1].Ints[i], optInt(args, 2, i, math.MaxInt32))
		case "CONCAT":
			var sb strings.Builder
			for _, a := range args {
				sb.WriteString(a.Strs[i])
			}
			out.Strs[i] = sb.String()
		case "COALESCE":
			set := false
			for _, a := range args {
				if !a.IsNull(i) {
					setCoerced(out, i, a, x.Ty)
					set = true
					break
				}
			}
			if !set {
				out.SetNull(i)
			}
		case "YEAR":
			out.Ints[i] = int64(dateOf(args[0], i).Year())
		case "MONTH":
			out.Ints[i] = int64(dateOf(args[0], i).Month())
		case "DAY":
			out.Ints[i] = int64(dateOf(args[0], i).Day())
		case "ROUND":
			prec := optInt(args, 1, i, 0)
			mult := math.Pow(10, float64(prec))
			out.Floats[i] = math.Round(numAsFloat(args[0], i)*mult) / mult
		case "FLOOR":
			out.Floats[i] = math.Floor(numAsFloat(args[0], i))
		case "CEIL":
			out.Floats[i] = math.Ceil(numAsFloat(args[0], i))
		default:
			return nil, fmt.Errorf("oracle: unknown function %s", x.Name)
		}
	}
	return out, nil
}

func optInt(args []*col.Vector, idx, row int, def int64) int64 {
	if idx >= len(args) {
		return def
	}
	return args[idx].Ints[row]
}

func substr(s string, start, length int64) string {
	// SQL SUBSTR is 1-based.
	if start < 1 {
		start = 1
	}
	from := int(start - 1)
	if from >= len(s) {
		return ""
	}
	to := len(s)
	if length < int64(to-from) {
		to = from + int(length)
	}
	if to < from {
		to = from
	}
	return s[from:to]
}

func dateOf(v *col.Vector, i int) time.Time {
	if v.Type == col.TIMESTAMP {
		return time.UnixMicro(v.Ints[i]).UTC()
	}
	return col.DaysToDate(v.Ints[i])
}

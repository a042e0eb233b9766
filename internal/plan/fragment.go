package plan

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"repro/internal/col"
	"repro/internal/sql"
)

// MaxFragmentBytes caps an encoded fragment. The largest worker fragment
// of the test and benchmark statements encodes to about 2 KB. The cap also
// bounds how deeply a hostile payload can nest: gob limits the nesting
// only of values it skips, so a worker checks the size before it decodes.
const MaxFragmentBytes = 64 << 10

// maxFragmentDepth bounds how deeply a fragment's nodes and expressions
// nest. Gob buffers every interface value it encodes and copies it into
// its parent's buffer, so encoding costs the sum over nesting levels of
// what lies below: quadratic in the depth (a 4,000-deep expression, 72 KB
// encoded, allocates about 160 MB). A fragment is checked before it is
// encoded; a bound plan nests about as deep as its longest AND or OR chain.
// It is the parser's bound on expression nesting, so one number bounds
// both ends.
const maxFragmentDepth = sql.MaxDepth

// fragment is the gob envelope of a plan: gob sends an interface value,
// and with it the concrete type's registered name, only as a field.
type fragment struct{ Root Node }

// EncodeFragment encodes a plan fragment for a CF worker: the plan itself,
// through encoding/gob, carrying every field its nodes and expressions
// hold. A scan's table goes along whole, files included, so a caller
// clears what the worker must not read. It refuses, before encoding, a
// fragment DecodeFragment would reject (fragmentCheck), and after it one
// over MaxFragmentBytes.
func EncodeFragment(n Node) ([]byte, error) {
	if err := checkFragment(n); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fragment{Root: n}); err != nil {
		return nil, fmt.Errorf("plan: encode fragment: %w", err)
	}
	if buf.Len() > MaxFragmentBytes {
		return nil, fmt.Errorf("plan: fragment of %d bytes exceeds %d", buf.Len(), MaxFragmentBytes)
	}
	return buf.Bytes(), nil
}

// DecodeFragment rebuilds what EncodeFragment wrote and checks it: the
// bytes come from another process, so a malformed or hostile payload
// returns an error, never a panic, and a plan it returns passes
// fragmentCheck. The plan shares nothing with any other.
func DecodeFragment(b []byte) (Node, error) {
	if len(b) > MaxFragmentBytes {
		return nil, fmt.Errorf("plan: fragment of %d bytes exceeds %d", len(b), MaxFragmentBytes)
	}
	var f fragment
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&f); err != nil {
		return nil, fmt.Errorf("plan: decode fragment: %w", err)
	}
	if err := checkFragment(f.Root); err != nil {
		return nil, err
	}
	return f.Root, nil
}

// checkFragment checks a fragment for what every bound worker plan holds
// (fragmentCheck) and that it nests no deeper than maxFragmentDepth and
// holds no more literal bytes than MaxFragmentBytes, so encoding it stays
// cheap.
func checkFragment(n Node) error {
	var c fragmentCheck
	if err := c.node(n); err != nil {
		return err
	}
	if c.literalBytes > MaxFragmentBytes {
		return fmt.Errorf("plan: fragment literals of %d bytes exceed %d", c.literalBytes, MaxFragmentBytes)
	}
	return nil
}

// fragmentCheck walks a fragment once. It requires each child, key and
// required expression present, as many names as expressions and as many
// right keys as left, scan ordinals inside their table, and only the kinds
// a worker runs — never a sort or a limit. On the way it tracks the
// nesting depth and the bytes the fragment's literals encode to, at least.
type fragmentCheck struct {
	depth        int // of the node or expression being checked
	literalBytes int
}

// node checks n and everything below it.
func (c *fragmentCheck) node(n Node) error {
	if c.depth++; c.depth > maxFragmentDepth {
		return fmt.Errorf("plan: fragment nests deeper than %d", maxFragmentDepth)
	}
	defer func() { c.depth-- }()
	switch x := n.(type) {
	case *ScanNode:
		if x.Table == nil {
			return fmt.Errorf("plan: scan %q has no table", x.Binding)
		}
		for _, i := range x.Cols {
			if i < 0 || i >= len(x.Table.Columns) {
				return fmt.Errorf("plan: scan ordinal %d out of range for table %s", i, x.Table.Name)
			}
		}
		for _, zp := range x.ZonePreds {
			if zp.Col < 0 || zp.Col >= len(x.Table.Columns) {
				return fmt.Errorf("plan: zone predicate ordinal %d out of range for table %s", zp.Col, x.Table.Name)
			}
			c.literal(zp.Val)
		}
		return c.optExpr(x.Filter)
	case *FilterNode:
		return errors.Join(c.node(x.Child), c.expr(x.Cond))
	case *ProjectNode:
		if len(x.Exprs) != len(x.Names) {
			return fmt.Errorf("plan: project has %d exprs, %d names", len(x.Exprs), len(x.Names))
		}
		return errors.Join(c.node(x.Child), c.exprs(x.Exprs))
	case *AggNode:
		if len(x.GroupBy) != len(x.GroupNames) {
			return fmt.Errorf("plan: agg has %d group exprs, %d names", len(x.GroupBy), len(x.GroupNames))
		}
		errs := []error{c.node(x.Child), c.exprs(x.GroupBy)}
		for _, sp := range x.Aggs {
			errs = append(errs, c.optExpr(sp.Arg))
		}
		return errors.Join(errs...)
	case *TopNNode:
		return c.node(x.Child)
	case *JoinNode:
		if len(x.LeftKeys) != len(x.RightKeys) {
			return fmt.Errorf("plan: join has %d left keys, %d right keys", len(x.LeftKeys), len(x.RightKeys))
		}
		return errors.Join(c.node(x.Left), c.node(x.Right),
			c.exprs(x.LeftKeys), c.exprs(x.RightKeys), c.optExpr(x.Residual))
	case nil:
		return errors.New("plan: fragment is missing a node")
	default:
		return fmt.Errorf("plan: a worker does not run %T", n)
	}
}

// exprs checks a list of required expressions.
func (c *fragmentCheck) exprs(es []BoundExpr) error {
	for _, e := range es {
		if err := c.expr(e); err != nil {
			return err
		}
	}
	return nil
}

// optExpr checks an optional expression: nil is allowed.
func (c *fragmentCheck) optExpr(e BoundExpr) error {
	if e == nil {
		return nil
	}
	return c.expr(e)
}

// expr checks a required expression and every operand it holds.
func (c *fragmentCheck) expr(e BoundExpr) error {
	if c.depth++; c.depth > maxFragmentDepth {
		return fmt.Errorf("plan: fragment nests deeper than %d", maxFragmentDepth)
	}
	defer func() { c.depth-- }()
	switch x := e.(type) {
	case *BLit:
		c.literal(x.Val)
		return nil
	case *BCol:
		return nil
	case *BUnary:
		return c.expr(x.X)
	case *BBinary:
		return errors.Join(c.expr(x.L), c.expr(x.R))
	case *BIsNull:
		return c.expr(x.X)
	case *BIn:
		for _, v := range x.List {
			c.literal(v)
		}
		return c.expr(x.X)
	case *BFunc:
		return c.exprs(x.Args)
	case *BCase:
		errs := []error{c.optExpr(x.Else)}
		for _, w := range x.Whens {
			errs = append(errs, c.expr(w.Cond), c.expr(w.Result))
		}
		return errors.Join(errs...)
	case *BCast:
		return c.expr(x.X)
	case nil:
		return errors.New("plan: fragment is missing an expression")
	default:
		return fmt.Errorf("plan: unknown expression %T", e)
	}
}

// literal counts the bytes a Value encodes to, at least: its fixed fields
// (col.Value.GobEncode) and its string.
func (c *fragmentCheck) literal(v col.Value) {
	c.literalBytes += 11 + len(v.S)
}

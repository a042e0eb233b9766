package plan

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/pixfile"
)

// fragmentScan is a one-column FLOAT64 scan for codec tests.
func fragmentScan() *ScanNode {
	return &ScanNode{
		DB: "db", Binding: "t", Cols: []int{0},
		Table: &catalog.Table{Name: "t", Columns: []catalog.Column{{Name: "x", Type: col.FLOAT64, Nullable: true}}},
	}
}

// TestFragmentKeepsValueBits: gob leaves out a field equal to zero, so a
// plain float field would arrive as +0 for -0. Every col.Value in a
// fragment — a literal, an IN list, a zone predicate — keeps all its bits:
// ±0, ±Inf, NaN payloads, NULL, extreme integers and arbitrary string bytes.
func TestFragmentKeepsValueBits(t *testing.T) {
	vals := []col.Value{
		col.Float(0), col.Float(math.Copysign(0, -1)), col.Float(math.Inf(1)), col.Float(math.Inf(-1)),
		col.Float(math.NaN()), col.Float(math.Float64frombits(0x7ff0000000000001)),
		col.Float(math.Float64frombits(0xfff8000000000123)), col.Float(-2.5), col.NullValue(col.FLOAT64),
		col.Int(math.MinInt64), col.Int(math.MaxInt64), col.Bool(true), col.Str("a\x00\xff'b"), col.Str(""),
		col.Date(-1), {Type: col.FLOAT64, Null: true, F: math.Copysign(0, -1)}, {},
	}
	scan := fragmentScan()
	x := &BCol{Name: "x", Ty: col.FLOAT64, Nullable: true}
	scan.Filter = &BIn{X: x, List: vals}
	var lits []BoundExpr
	var names []string
	for i, v := range vals {
		scan.ZonePreds = append(scan.ZonePreds, pixfile.ColPredicate{Col: 0, Op: pixfile.CmpLE, Val: v})
		lits = append(lits, &BLit{Val: v})
		names = append(names, strings.Repeat("c", i+1))
	}
	node := &ProjectNode{Child: scan, Exprs: lits, Names: names}

	data, err := EncodeFragment(node)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFragment(data)
	if err != nil {
		t.Fatal(err)
	}
	p := got.(*ProjectNode)
	s := p.Child.(*ScanNode)
	for i, want := range vals {
		for where, v := range map[string]col.Value{
			"literal":        p.Exprs[i].(*BLit).Val,
			"IN list":        s.Filter.(*BIn).List[i],
			"zone predicate": s.ZonePreds[i].Val,
		} {
			if v.Type != want.Type || v.Null != want.Null || v.B != want.B || v.I != want.I || v.S != want.S ||
				math.Float64bits(v.F) != math.Float64bits(want.F) {
				t.Errorf("%s %d: got %#v (F bits %#x), want %#v (F bits %#x)", where, i, v, math.Float64bits(v.F), want, math.Float64bits(want.F))
			}
		}
	}
}

// TestFragmentValueRejectsMalformed: a Value that GobEncode did not write
// fails to decode.
func TestFragmentValueRejectsMalformed(t *testing.T) {
	for _, b := range [][]byte{nil, {3}, {3, 4}, {3, 0, 0x80}, {3, 0, 2, 1, 2, 3}} {
		var v col.Value
		if err := v.GobDecode(b); err == nil {
			t.Errorf("GobDecode(%x) = %#v, want an error", b, v)
		}
	}
}

// TestFragmentBounds: a fragment that nests deeper than maxFragmentDepth,
// whose gob encoding would cost quadratic time and memory, or holds more
// literal bytes than MaxFragmentBytes is refused before it is encoded, and
// decoding refuses it too, as it does any payload over the cap.
func TestFragmentBounds(t *testing.T) {
	// nested is a projection of an expression depth levels deep, under
	// the node itself and its scan.
	nested := func(depth int) Node {
		var e BoundExpr = &BCol{Name: "x", Ty: col.FLOAT64}
		for range depth - 1 {
			e = &BUnary{Op: "-", X: e, Ty: col.FLOAT64}
		}
		return &ProjectNode{Child: fragmentScan(), Exprs: []BoundExpr{e}, Names: []string{"y"}}
	}
	deepest := nested(maxFragmentDepth - 1)
	data, err := EncodeFragment(deepest)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFragment(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, deepest) {
		t.Fatal("the deepest fragment allowed changed through the codec")
	}
	for _, depth := range []int{maxFragmentDepth, 100_000} {
		if _, err := EncodeFragment(nested(depth)); err == nil || !strings.Contains(err.Error(), "deeper") {
			t.Fatalf("encoding a %d-deep expression: %v, want the depth bound", depth, err)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fragment{Root: nested(1000)}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFragment(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "deeper") {
		t.Fatalf("decoding a %d-byte, 1,000-deep fragment: %v, want the depth bound", buf.Len(), err)
	}

	in := &FilterNode{Child: fragmentScan(), Cond: &BIn{X: &BCol{Name: "x", Ty: col.FLOAT64}, List: make([]col.Value, 6_000)}}
	if _, err := EncodeFragment(in); err == nil || !strings.Contains(err.Error(), "literals") {
		t.Fatalf("encoding a 6,000-value IN list: %v, want the literal bound", err)
	}
	if _, err := DecodeFragment(append(data, make([]byte, MaxFragmentBytes)...)); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("decoding an over-cap payload: %v, want the size cap", err)
	}
}

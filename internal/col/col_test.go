package col

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestParseType(t *testing.T) {
	cases := map[string]Type{
		"bigint":        INT64,
		"INT":           INT64,
		"Integer":       INT64,
		"double":        FLOAT64,
		"DECIMAL(15,2)": FLOAT64,
		"varchar(32)":   STRING,
		"text":          STRING,
		"boolean":       BOOL,
		"date":          DATE,
		"timestamp":     TIMESTAMP,
	}
	for in, want := range cases {
		got, ok := ParseType(in)
		if !ok || got != want {
			t.Errorf("ParseType(%q) = %v,%v want %v", in, got, ok, want)
		}
	}
	if _, ok := ParseType("blob"); ok {
		t.Errorf("ParseType(blob) unexpectedly ok")
	}
}

func TestTypeString(t *testing.T) {
	for _, tt := range []Type{BOOL, INT64, FLOAT64, STRING, DATE, TIMESTAMP} {
		got, ok := ParseType(tt.String())
		if !ok || got != tt {
			t.Errorf("round-trip of %v failed: got %v ok=%v", tt, got, ok)
		}
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(
		Field{Name: "a", Type: INT64},
		Field{Name: "b", Type: STRING, Nullable: true},
	)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Index("b") != 1 || s.Index("zzz") != -1 {
		t.Errorf("Index wrong: %d %d", s.Index("b"), s.Index("zzz"))
	}
	p := s.Project([]int{1})
	if p.Len() != 1 || p.Fields[0].Name != "b" {
		t.Errorf("Project wrong: %v", p)
	}
	c := s.Clone()
	if !c.Equal(s) {
		t.Errorf("Clone not equal")
	}
	c.Fields[0].Name = "x"
	if s.Fields[0].Name != "a" {
		t.Errorf("Clone aliases original")
	}
}

func TestDateConversions(t *testing.T) {
	d, err := ParseDate("1995-03-15")
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatDate(d); got != "1995-03-15" {
		t.Errorf("FormatDate = %q", got)
	}
	if d != DateToDays(1995, time.March, 15) {
		t.Errorf("DateToDays mismatch")
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Errorf("ParseDate accepted garbage")
	}
	ts, err := ParseTimestamp("1995-03-15 12:30:45")
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatTimestamp(ts); got != "1995-03-15 12:30:45" {
		t.Errorf("FormatTimestamp = %q", got)
	}
}

func TestDateRoundTripProperty(t *testing.T) {
	f := func(days int32) bool {
		// Keep within years 1~9999: "YYYY-MM-DD" formatting only round-trips
		// for 4-digit years.
		d := (int64(days)%2_900_000+2_900_000)%2_900_000 - 700_000
		parsed, err := ParseDate(FormatDate(d))
		return err == nil && parsed == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueCompare(t *testing.T) {
	if Int(1).Compare(Int(2)) != -1 || Int(2).Compare(Int(1)) != 1 || Int(3).Compare(Int(3)) != 0 {
		t.Errorf("int compare broken")
	}
	if Str("a").Compare(Str("b")) != -1 {
		t.Errorf("string compare broken")
	}
	if Bool(false).Compare(Bool(true)) != -1 {
		t.Errorf("bool compare broken")
	}
	if Int(2).Compare(Float(2.5)) != -1 {
		t.Errorf("mixed numeric compare broken")
	}
	if Float(2.5).Compare(Int(2)) != 1 {
		t.Errorf("mixed numeric compare broken (rev)")
	}
}

func TestValueEqualNulls(t *testing.T) {
	if !NullValue(INT64).Equal(NullValue(INT64)) {
		t.Errorf("NULL != NULL structurally")
	}
	if NullValue(INT64).Equal(Int(0)) {
		t.Errorf("NULL == 0")
	}
	if !Int(2).Equal(Float(2.0)) {
		t.Errorf("2 != 2.0")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(42), "42"},
		{Float(1.5), "1.5"},
		{Str("hi"), "hi"},
		{Bool(true), "true"},
		{NullValue(STRING), "NULL"},
		{Date(DateToDays(2020, time.May, 1)), "2020-05-01"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q want %q", got, c.want)
		}
	}
}

func TestVectorSetGet(t *testing.T) {
	for _, typ := range []Type{BOOL, INT64, FLOAT64, STRING, DATE, TIMESTAMP} {
		v := NewVector(typ, 3)
		vals := []Value{sample(typ, 1), NullValue(typ), sample(typ, 2)}
		for i, val := range vals {
			v.Set(i, val)
		}
		for i, want := range vals {
			got := v.Value(i)
			if !got.Equal(want) {
				t.Errorf("%s: row %d = %v want %v", typ, i, got, want)
			}
		}
	}
}

func sample(t Type, seed int64) Value {
	switch t {
	case BOOL:
		return Bool(seed%2 == 0)
	case INT64:
		return Int(seed * 7)
	case FLOAT64:
		return Float(float64(seed) * 1.5)
	case STRING:
		return Str(string(rune('a' + seed)))
	case DATE:
		return Date(seed * 30)
	case TIMESTAMP:
		return Timestamp(seed * 1e6)
	}
	panic("bad type")
}

func TestVectorGather(t *testing.T) {
	v := NewVector(INT64, 5)
	for i := range v.Ints {
		v.Ints[i] = int64(i * 10)
	}
	v.SetNull(3)
	g := v.Gather([]int{4, 3, 0})
	if g.N != 3 || g.Ints[0] != 40 || g.Ints[2] != 0 {
		t.Errorf("Gather values wrong: %+v", g)
	}
	if !g.IsNull(1) || g.IsNull(0) || g.IsNull(2) {
		t.Errorf("Gather null mask wrong: %+v", g.Valid)
	}
}

func TestVectorAppend(t *testing.T) {
	src := NewVector(STRING, 2)
	src.Strs = []string{"x", "y"}
	src.SetNull(1)
	dst := NewVector(STRING, 0)
	dst.Append(src, 0)
	dst.Append(src, 1)
	if dst.N != 2 || dst.Strs[0] != "x" {
		t.Errorf("Append values wrong: %+v", dst)
	}
	if dst.IsNull(0) || !dst.IsNull(1) {
		t.Errorf("Append null mask wrong: %+v", dst.Valid)
	}
}

func TestVectorSlice(t *testing.T) {
	v := NewVector(FLOAT64, 4)
	v.Floats = []float64{1, 2, 3, 4}
	s := v.Slice(1, 3)
	if s.N != 2 || s.Floats[0] != 2 || s.Floats[1] != 3 {
		t.Errorf("Slice wrong: %+v", s)
	}
}

func TestBatchRowAndGather(t *testing.T) {
	a := NewVector(INT64, 3)
	a.Ints = []int64{1, 2, 3}
	b := NewVector(STRING, 3)
	b.Strs = []string{"x", "y", "z"}
	batch := NewBatch(a, b)
	row := batch.Row(1)
	if !row[0].Equal(Int(2)) || !row[1].Equal(Str("y")) {
		t.Errorf("Row wrong: %v", row)
	}
	g := batch.Gather([]int{2, 0})
	if g.N != 2 || g.Vecs[1].Strs[0] != "z" {
		t.Errorf("Gather wrong: %+v", g)
	}
	s := batch.Slice(0, 1)
	if s.N != 1 || s.Vecs[0].Ints[0] != 1 {
		t.Errorf("Slice wrong: %+v", s)
	}
}

func TestNewBatchPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	NewBatch(NewVector(INT64, 1), NewVector(INT64, 2))
}

func TestEmptyBatch(t *testing.T) {
	s := NewSchema(Field{Name: "a", Type: INT64}, Field{Name: "b", Type: STRING})
	b := EmptyBatch(s)
	if b.N != 0 || len(b.Vecs) != 2 || b.Vecs[1].Type != STRING {
		t.Errorf("EmptyBatch wrong: %+v", b)
	}
}

func TestDictCodedVector(t *testing.T) {
	v := &Vector{Type: STRING, Dict: []string{"x", "", "yy"}, Codes: []uint32{2, 0, 1, 0}, N: 4}
	v.SetNull(2)
	if got := v.Strings(nil); fmt.Sprint(got) != "[yy x  x]" || v.Str(3) != "x" {
		t.Fatalf("Strings/Str wrong: %q", got)
	}
	if !v.Value(0).Equal(Str("yy")) || !v.Value(2).Null {
		t.Fatalf("Value wrong: %v %v", v.Value(0), v.Value(2))
	}
	g := v.Gather([]int{2, 0, 3})
	if g.Strs != nil || &g.Dict[0] != &v.Dict[0] || fmt.Sprint(g.Codes) != "[1 2 0]" || !g.IsNull(0) || g.IsNull(1) {
		t.Fatalf("Gather wrong: %+v", g)
	}
	if g := v.Gather([]int{0, 3}); g.Valid != nil || g.Str(1) != "x" {
		t.Fatalf("Gather without a NULL row kept a mask: %+v", g)
	}
	if s := v.Slice(1, 3); s.N != 2 || s.Str(0) != "x" || !s.IsNull(1) {
		t.Fatalf("Slice wrong: %+v", s)
	}
	dst := NewVector(STRING, 0)
	dst.Append(v, 0)
	dst.Append(v, 2)
	if dst.Codes != nil || dst.Strs[0] != "yy" || !dst.IsNull(1) {
		t.Fatalf("Append wrong: %+v", dst)
	}
}

package col

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// Value is a dynamically typed scalar. It is used for literals, statistics
// (zone maps) and materialized result rows; the hot execution path uses
// Vector instead.
type Value struct {
	Type Type
	Null bool
	B    bool
	I    int64 // INT64, DATE (days), TIMESTAMP (micros)
	F    float64
	S    string
}

// Typed constructors.

// Null value of the given type.
func NullValue(t Type) Value { return Value{Type: t, Null: true} }

// Bool wraps a BOOL value.
func Bool(b bool) Value { return Value{Type: BOOL, B: b} }

// Int wraps an INT64 value.
func Int(i int64) Value { return Value{Type: INT64, I: i} }

// Float wraps a FLOAT64 value.
func Float(f float64) Value { return Value{Type: FLOAT64, F: f} }

// Str wraps a STRING value.
func Str(s string) Value { return Value{Type: STRING, S: s} }

// Date wraps a DATE value (days since epoch).
func Date(days int64) Value { return Value{Type: DATE, I: days} }

// Timestamp wraps a TIMESTAMP value (micros since epoch).
func Timestamp(micros int64) Value { return Value{Type: TIMESTAMP, I: micros} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Null }

// String renders the value the way query results print it.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Type {
	case BOOL:
		if v.B {
			return "true"
		}
		return "false"
	case INT64:
		return strconv.FormatInt(v.I, 10)
	case FLOAT64:
		return FormatFloat(v.F)
	case STRING:
		return v.S
	case DATE:
		return FormatDate(v.I)
	case TIMESTAMP:
		return FormatTimestamp(v.I)
	default:
		return fmt.Sprintf("<?%d>", v.Type)
	}
}

// Compare orders two non-null values of the same type: -1, 0 or +1.
// Comparing values of different types or null values panics; callers must
// handle NULL semantics first.
func (v Value) Compare(o Value) int {
	if v.Null || o.Null {
		panic("col: Compare on NULL value")
	}
	if v.Type != o.Type {
		// Allow INT64 vs FLOAT64 comparison by widening.
		if v.Type.Numeric() && o.Type.Numeric() {
			return compareFloat(v.AsFloat(), o.AsFloat())
		}
		panic(fmt.Sprintf("col: Compare %s vs %s", v.Type, o.Type))
	}
	switch v.Type {
	case BOOL:
		switch {
		case v.B == o.B:
			return 0
		case !v.B:
			return -1
		default:
			return 1
		}
	case INT64, DATE, TIMESTAMP:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		default:
			return 0
		}
	case FLOAT64:
		return compareFloat(v.F, o.F)
	case STRING:
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		default:
			return 0
		}
	default:
		panic(fmt.Sprintf("col: Compare unsupported type %s", v.Type))
	}
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports value equality with NULL == NULL treated as true. It is a
// structural equality used by tests and group-by keys, not SQL equality.
func (v Value) Equal(o Value) bool {
	if v.Null || o.Null {
		return v.Null == o.Null
	}
	if v.Type != o.Type {
		if v.Type.Numeric() && o.Type.Numeric() {
			return v.AsFloat() == o.AsFloat()
		}
		return false
	}
	switch v.Type {
	case BOOL:
		return v.B == o.B
	case INT64, DATE, TIMESTAMP:
		return v.I == o.I
	case FLOAT64:
		return v.F == o.F
	case STRING:
		return v.S == o.S
	}
	return false
}

// AsFloat widens a numeric value to float64.
func (v Value) AsFloat() float64 {
	if v.Type == FLOAT64 {
		return v.F
	}
	return float64(v.I)
}

// AsInt returns the integer representation (INT64/DATE/TIMESTAMP) or
// truncates a FLOAT64.
func (v Value) AsInt() int64 {
	if v.Type == FLOAT64 {
		return int64(v.F)
	}
	return v.I
}

// GobEncode implements gob.GobEncoder. Gob leaves out a struct field that
// compares equal to zero, so a plain -0 float would arrive as +0; a Value
// therefore encodes itself: its type, a flag byte (bit 0 Null, bit 1 B), I
// as a varint, F's eight bytes as they are (±0, ±Inf and NaN payloads
// survive) and then S.
func (v Value) GobEncode() ([]byte, error) {
	b := make([]byte, 2, 2+binary.MaxVarintLen64+8+len(v.S))
	b[0] = byte(v.Type)
	if v.Null {
		b[1] |= 1
	}
	if v.B {
		b[1] |= 2
	}
	b = binary.AppendVarint(b, v.I)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F))
	return append(b, v.S...), nil
}

// GobDecode implements gob.GobDecoder, reading what GobEncode wrote.
func (v *Value) GobDecode(b []byte) error {
	if len(b) < 2 || b[1] > 3 {
		return errors.New("col: malformed encoded value")
	}
	i, n := binary.Varint(b[2:])
	if n <= 0 || len(b) < 2+n+8 {
		return errors.New("col: malformed encoded value")
	}
	rest := b[2+n:]
	*v = Value{
		Type: Type(b[0]),
		Null: b[1]&1 != 0,
		B:    b[1]&2 != 0,
		I:    i,
		F:    math.Float64frombits(binary.LittleEndian.Uint64(rest)),
		S:    string(rest[8:]),
	}
	return nil
}

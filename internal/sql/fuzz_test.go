package sql_test

import (
	"strings"
	"testing"

	"repro/internal/sql"
	"repro/internal/workload"
)

// FuzzParse feeds arbitrary text to the parser, seeded from the workload's
// query templates and DDL: Parse never panics, and every error it returns
// is a *sql.Error whose offset lies within the input.
func FuzzParse(f *testing.F) {
	gen := workload.NewQueryGen(1, 0.01)
	for _, kind := range workload.AllKinds() {
		f.Add(gen.Generate(kind))
	}
	for _, ddl := range workload.DDL {
		f.Add(ddl)
	}
	for _, q := range []string{
		"SELECT b_key FROM big ORDER BY b_val DESC LIMIT 5 OFFSET 2;",
		"SELECT DISTINCT a, COUNT(*) FROM t LEFT JOIN u ON t.x = u.y GROUP BY a HAVING COUNT(*) > 1",
		"SELECT CASE WHEN x IN (1, 2) THEN 'a' ELSE NULL END FROM t WHERE s LIKE 'x%' AND d BETWEEN DATE '1995-01-01' AND DATE '1996-01-01'",
		"INSERT INTO t VALUES (1, 'x', -2.5e3), (2, NULL, 0)",
		"EXPLAIN SELECT * FROM t",
		"DROP TABLE IF EXISTS t",
		"SELECT 'unterminated",
		"SELECT \"quoted ident\" FROM t -- comment",
		"SELECT 1 LIMIT 9223372036854775808",
		// Nesting at and past sql.MaxDepth.
		"SELECT " + strings.Repeat("- ", sql.MaxDepth) + "x FROM t",
		"SELECT x FROM t WHERE " + strings.Repeat("NOT (", sql.MaxDepth/2+1) + "x" + strings.Repeat(")", sql.MaxDepth/2+1),
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, input string) {
		_, err := sql.Parse(input)
		if err == nil {
			return
		}
		perr, ok := err.(*sql.Error)
		if !ok {
			t.Fatalf("Parse(%q): error %T %v is not a *sql.Error", input, err, err)
		}
		if perr.Pos < 0 || perr.Pos > len(input) {
			t.Fatalf("Parse(%q): error offset %d outside [0, %d]", input, perr.Pos, len(input))
		}
	})
}

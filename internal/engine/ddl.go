package engine

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/pixfile"
	"repro/internal/sql"
)

func (e *Engine) createTable(db string, s *sql.CreateTable) error {
	t := &catalog.Table{Name: s.Name}
	for _, cd := range s.Columns {
		t.Columns = append(t.Columns, catalog.Column{
			Name:     cd.Name,
			Type:     cd.Type,
			Nullable: !cd.NotNull,
		})
	}
	return e.cat.CreateTable(db, t)
}

func (e *Engine) dropTable(db string, s *sql.DropTable) error {
	err := e.cat.DropTable(db, s.Name)
	if err != nil && s.IfExists {
		return nil
	}
	if err != nil {
		return err
	}
	// Best-effort removal of the table's objects.
	infos, lerr := e.store.List(tableKeyPrefix(db, s.Name))
	if lerr != nil {
		return nil
	}
	for _, info := range infos {
		_ = e.store.Delete(info.Key)
	}
	return nil
}

func (e *Engine) insert(db string, s *sql.Insert) (int, error) {
	t, err := e.cat.GetTable(db, s.Table)
	if err != nil {
		return 0, err
	}
	schema := t.Schema()

	// Map insert columns onto the table schema.
	target := make([]int, 0, len(t.Columns))
	if len(s.Columns) == 0 {
		for i := range t.Columns {
			target = append(target, i)
		}
	} else {
		for _, name := range s.Columns {
			idx := schema.Index(name)
			if idx < 0 {
				return 0, fmt.Errorf("engine: column %q not in table %s", name, s.Table)
			}
			target = append(target, idx)
		}
	}

	batch := &col.Batch{Vecs: make([]*col.Vector, schema.Len()), N: len(s.Rows)}
	for i, f := range schema.Fields {
		batch.Vecs[i] = col.NewVector(f.Type, batch.N)
	}
	vals := make([]col.Value, schema.Len())
	for rn, row := range s.Rows {
		if len(row) != len(target) {
			return 0, fmt.Errorf("engine: row %d has %d values, want %d", rn+1, len(row), len(target))
		}
		for i := range vals {
			vals[i] = col.NullValue(schema.Fields[i].Type)
		}
		for i, expr := range row {
			lit, ok := expr.(*sql.Literal)
			if !ok {
				return 0, fmt.Errorf("engine: INSERT values must be literals, got %s", expr)
			}
			ci := target[i]
			v, err := coerceValue(lit.Val, schema.Fields[ci].Type)
			if err != nil {
				return 0, fmt.Errorf("engine: row %d column %s: %w", rn+1, schema.Fields[ci].Name, err)
			}
			vals[ci] = v
		}
		for ci, v := range vals {
			if v.Null && !schema.Fields[ci].Nullable {
				return 0, fmt.Errorf("engine: row %d: column %s is NOT NULL", rn+1, schema.Fields[ci].Name)
			}
			batch.Vecs[ci].Set(rn, v)
		}
	}
	if err := e.LoadBatch(db, s.Table, batch, pixfile.WriterOptions{}); err != nil {
		return 0, err
	}
	return batch.N, nil
}

// coerceValue converts a literal to the column type where SQL allows it.
func coerceValue(v col.Value, want col.Type) (col.Value, error) {
	if v.Null {
		return col.NullValue(want), nil
	}
	if v.Type == want {
		return v, nil
	}
	switch {
	case want == col.FLOAT64 && v.Type == col.INT64:
		return col.Float(float64(v.I)), nil
	case want == col.INT64 && v.Type == col.FLOAT64 && v.F == float64(int64(v.F)):
		return col.Int(int64(v.F)), nil
	case want == col.DATE && v.Type == col.STRING:
		d, err := col.ParseDate(v.S)
		if err != nil {
			return col.Value{}, err
		}
		return col.Date(d), nil
	case want == col.TIMESTAMP && v.Type == col.STRING:
		ts, err := col.ParseTimestamp(v.S)
		if err != nil {
			return col.Value{}, err
		}
		return col.Timestamp(ts), nil
	default:
		return col.Value{}, fmt.Errorf("cannot store %s into %s", v.Type, want)
	}
}

func (e *Engine) showDatabases() *Result {
	r := &Result{Columns: []string{"database"}, Types: []col.Type{col.STRING}}
	for _, name := range e.cat.ListDatabases() {
		r.Rows = append(r.Rows, []col.Value{col.Str(name)})
	}
	r.Stats.RowsReturned = int64(len(r.Rows))
	return r
}

func (e *Engine) showTables(db string) (*Result, error) {
	names, err := e.cat.ListTables(db)
	if err != nil {
		return nil, err
	}
	r := &Result{Columns: []string{"table"}, Types: []col.Type{col.STRING}}
	for _, name := range names {
		r.Rows = append(r.Rows, []col.Value{col.Str(name)})
	}
	r.Stats.RowsReturned = int64(len(r.Rows))
	return r, nil
}

func (e *Engine) describe(db, table string) (*Result, error) {
	t, err := e.cat.GetTable(db, table)
	if err != nil {
		return nil, err
	}
	r := &Result{
		Columns: []string{"column", "type", "nullable"},
		Types:   []col.Type{col.STRING, col.STRING, col.BOOL},
	}
	for _, c := range t.Columns {
		r.Rows = append(r.Rows, []col.Value{
			col.Str(c.Name), col.Str(c.Type.String()), col.Bool(c.Nullable),
		})
	}
	r.Stats.RowsReturned = int64(len(r.Rows))
	return r, nil
}

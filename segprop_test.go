package cods_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cods"
)

// TestSegmentedFlushPropertyVsModel drives a database through random
// interleavings of keyed DML, flushes, retention pruning and schema
// evolutions (DECOMPOSE/MERGE and PARTITION/UNION cycles) and checks it
// against segModel, a test-local model of each table's rows that shares
// no code with the engine. After every step the database and the model
// must agree on the table set, every table's schema and row multiset, and
// point-, range- and count-query results, and every statement must fail
// exactly when the model says it must. Row order is checked where the
// engine defines it: a Compact never changes a table's row sequence, and
// every evolution's output sequence is the one derived from the rows the
// database held just before the statement. Runs under -race via the root
// package's race-matrix entry.
func TestSegmentedFlushPropertyVsModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSegProp(t, seed, 140)
		})
	}
}

// segTable is one table of the model: its schema, declared key and rows.
type segTable struct {
	cols []string
	key  []string
	rows [][]string
}

// segModel maps table names to their modeled state.
type segModel map[string]*segTable

// segStmt pairs a statement with its effect on the model. srcs are the
// tables an evolution reads: their database rows are captured just
// before the statement and handed to apply as pre, which fixes the input
// order the outputs derive from. outs are the tables whose exact row
// sequence must then match the model. apply returns the error the model
// predicts and leaves the model unchanged when it fails.
type segStmt struct {
	sql   string
	srcs  []string
	outs  []string
	apply func(m segModel, pre map[string][][]string) error
}

// errUnmodeled marks a state the statement mix cannot reach (general
// MERGE needs both halves to repeat a key, and B is always keyed on K).
var errUnmodeled = errors.New("segModel: state not modeled")

func (m segModel) table(name string) (*segTable, error) {
	if tb, ok := m[name]; ok {
		return tb, nil
	}
	return nil, fmt.Errorf("segModel: no table %q", name)
}

func (m segModel) free(names ...string) error {
	for _, n := range names {
		if _, ok := m[n]; ok {
			return fmt.Errorf("segModel: table %q exists", n)
		}
	}
	return nil
}

// keyOf renders row's values at the named columns as one comparable key.
func keyOf(cols []string, row []string, names []string) string {
	k := ""
	for _, n := range names {
		v := row[slices.Index(cols, n)]
		k += fmt.Sprintf("%d:%s", len(v), v)
	}
	return k
}

func (m segModel) insert(name string, row []string) error {
	tb, err := m.table(name)
	if err != nil {
		return err
	}
	if len(row) != len(tb.cols) {
		return fmt.Errorf("segModel: %d values for %d columns", len(row), len(tb.cols))
	}
	if len(tb.key) > 0 {
		k := keyOf(tb.cols, row, tb.key)
		for _, r := range tb.rows {
			if keyOf(tb.cols, r, tb.key) == k {
				return fmt.Errorf("segModel: duplicate key in %s", name)
			}
		}
	}
	tb.rows = append(tb.rows, row)
	return nil
}

// update sets col to val on every row whose whereCol equals whereVal.
func (m segModel) update(name, col, val, whereCol, whereVal string) error {
	tb, err := m.table(name)
	if err != nil {
		return err
	}
	ci, wi := slices.Index(tb.cols, col), slices.Index(tb.cols, whereCol)
	if ci < 0 || wi < 0 {
		return fmt.Errorf("segModel: %s lacks %s or %s", name, col, whereCol)
	}
	if slices.Contains(tb.key, col) {
		return errUnmodeled
	}
	for i, r := range tb.rows {
		if r[wi] == whereVal {
			nr := slices.Clone(r)
			nr[ci] = val
			tb.rows[i] = nr
		}
	}
	return nil
}

// deleteWhere removes every row whose col equals val.
func (m segModel) deleteWhere(name, col, val string) error {
	tb, err := m.table(name)
	if err != nil {
		return err
	}
	ci := slices.Index(tb.cols, col)
	if ci < 0 {
		return fmt.Errorf("segModel: %s lacks %s", name, col)
	}
	tb.rows = slices.DeleteFunc(slices.Clone(tb.rows), func(r []string) bool { return r[ci] == val })
	return nil
}

// project keeps every row's values of the named columns, in order.
func project(cols []string, rows [][]string, names []string) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		for _, n := range names {
			out[i] = append(out[i], r[slices.Index(cols, n)])
		}
	}
	return out
}

// decompose models DECOMPOSE TABLE src INTO a (K, G), b (K, V) without
// FD validation: a is the projection of every row and keeps src's key; b
// holds the first row of each K, in input order, keyed on K.
func (m segModel) decompose(src, a, b string, pre [][]string) error {
	in, err := m.table(src)
	if err != nil {
		return err
	}
	if err := m.free(a, b); err != nil {
		return err
	}
	seen := make(map[string]bool)
	var first [][]string
	for _, r := range pre {
		if k := r[slices.Index(in.cols, "K")]; !seen[k] {
			seen[k] = true
			first = append(first, r)
		}
	}
	delete(m, src)
	m[a] = &segTable{cols: []string{"K", "G"}, key: in.key, rows: project(in.cols, pre, []string{"K", "G"})}
	m[b] = &segTable{cols: []string{"K", "V"}, key: []string{"K"}, rows: project(in.cols, first, []string{"K", "V"})}
	return nil
}

// merge models key–FK MERGE TABLES s, t INTO out on K: the fact side is s
// when t's K values are unique, else t when s's are. The output is the
// fact rows in fact order, extended with the dimension's other columns,
// and keeps the fact side's key. A fact K missing from the dimension is
// a foreign-key violation.
func (m segModel) merge(s, t, out string, pre map[string][][]string) error {
	st, err := m.table(s)
	if err != nil {
		return err
	}
	tt, err := m.table(t)
	if err != nil {
		return err
	}
	if err := m.free(out); err != nil {
		return err
	}
	uniqueK := func(tb *segTable, rows [][]string) map[string][]string {
		byK := make(map[string][]string, len(rows))
		for _, r := range rows {
			k := r[slices.Index(tb.cols, "K")]
			if _, dup := byK[k]; dup {
				return nil
			}
			byK[k] = r
		}
		return byK
	}
	fact, factRows, dim := st, pre[s], tt
	dimByK := uniqueK(tt, pre[t])
	if dimByK == nil {
		fact, factRows, dim = tt, pre[t], st
		if dimByK = uniqueK(st, pre[s]); dimByK == nil {
			return errUnmodeled
		}
	}
	extra := slices.DeleteFunc(slices.Clone(dim.cols), func(c string) bool { return c == "K" })
	rows := make([][]string, len(factRows))
	for i, r := range factRows {
		d, ok := dimByK[r[slices.Index(fact.cols, "K")]]
		if !ok {
			return fmt.Errorf("segModel: foreign-key violation")
		}
		rows[i] = append(slices.Clone(r), project(dim.cols, [][]string{d}, extra)[0]...)
	}
	delete(m, s)
	delete(m, t)
	m[out] = &segTable{cols: append(slices.Clone(fact.cols), extra...), key: fact.key, rows: rows}
	return nil
}

// partition models PARTITION TABLE src WHERE G != 'g' INTO yes, no: an
// order-preserving filter; both halves keep src's schema and key.
func (m segModel) partition(src, g, yes, no string, pre [][]string) error {
	in, err := m.table(src)
	if err != nil {
		return err
	}
	if err := m.free(yes, no); err != nil {
		return err
	}
	gi := slices.Index(in.cols, "G")
	y := &segTable{cols: in.cols, key: in.key}
	n := &segTable{cols: in.cols, key: in.key}
	for _, r := range pre {
		if r[gi] != g {
			y.rows = append(y.rows, r)
		} else {
			n.rows = append(n.rows, r)
		}
	}
	delete(m, src)
	m[yes], m[no] = y, n
	return nil
}

// union models UNION TABLES a, b INTO out: a's rows then b's, no key.
func (m segModel) union(a, b, out string, pre map[string][][]string) error {
	at, err := m.table(a)
	if err != nil {
		return err
	}
	bt, err := m.table(b)
	if err != nil {
		return err
	}
	if !slices.Equal(at.cols, bt.cols) {
		return fmt.Errorf("segModel: union schemas differ")
	}
	delete(m, a)
	delete(m, b)
	m[out] = &segTable{cols: at.cols, rows: append(slices.Clone(pre[a]), pre[b]...)}
	return nil
}

func runSegProp(t *testing.T, seed int64, nops int) {
	db := cods.Open(cods.Config{Parallelism: 2, AutoCompactPending: 16, RetainVersions: 8})

	seedRows := make([][]string, 20)
	for i := range seedRows {
		seedRows[i] = []string{fmt.Sprintf("k%04d", i), fmt.Sprintf("g%d", i%4), fmt.Sprintf("v%d", i%6)}
	}
	if err := db.CreateTableFromRows("T", []string{"K", "G", "V"}, []string{"K"}, seedRows); err != nil {
		t.Fatal(err)
	}
	model := segModel{"T": {cols: []string{"K", "G", "V"}, key: []string{"K"}, rows: slices.Clone(seedRows)}}

	insert := func(tab string, vals ...string) segStmt {
		return segStmt{
			sql:   fmt.Sprintf("INSERT INTO %s VALUES ('%s')", tab, strings.Join(vals, "', '")),
			apply: func(m segModel, _ map[string][][]string) error { return m.insert(tab, vals) },
		}
	}
	update := func(tab, v, k string) segStmt {
		return segStmt{
			sql:   fmt.Sprintf("UPDATE %s SET V = '%s' WHERE K = '%s'", tab, v, k),
			apply: func(m segModel, _ map[string][][]string) error { return m.update(tab, "V", v, "K", k) },
		}
	}
	deleteWhere := func(tab, col, val string) segStmt {
		return segStmt{
			sql:   fmt.Sprintf("DELETE FROM %s WHERE %s = '%s'", tab, col, val),
			apply: func(m segModel, _ map[string][][]string) error { return m.deleteWhere(tab, col, val) },
		}
	}

	rng := rand.New(rand.NewSource(seed))
	nextKey := 20
	// T cycles through three shapes: whole, decomposed into A (K, G) and
	// B (K, V), or partitioned into P1/P2 by a G predicate. DML routes to
	// whichever tables currently exist.
	decomposed := false
	partitioned := false
	partG := 0 // the G group PARTITION sent to P2
	okDML, okEvolve, okPartition := 0, 0, 0
	for step := 0; step < nops; step++ {
		var stmts []segStmt
		kind := "exec"
		evolve := "" // evolution target state: "decomposed" / "partitioned" / "whole"
		switch r := rng.Intn(100); {
		case r < 30: // insert, sometimes a deliberate duplicate key
			k := nextKey
			if !decomposed && rng.Intn(5) == 0 {
				k = rng.Intn(nextKey)
			} else {
				nextKey++
			}
			key, g := fmt.Sprintf("k%04d", k), fmt.Sprintf("g%d", rng.Intn(4))
			switch {
			case decomposed:
				// Keep the decomposition join-compatible: the same key
				// lands in both halves.
				stmts = []segStmt{insert("A", key, g), insert("B", key, fmt.Sprintf("v%d", rng.Intn(6)))}
			case partitioned:
				// Respect the partition predicate: the row goes to the
				// half its G group belongs to.
				target := "P1"
				if g == fmt.Sprintf("g%d", partG) {
					target = "P2"
				}
				stmts = []segStmt{insert(target, key, g, fmt.Sprintf("v%d", rng.Intn(6)))}
			default:
				stmts = []segStmt{insert("T", key, g, fmt.Sprintf("v%d", rng.Intn(6)))}
			}
		case r < 45:
			v, k := fmt.Sprintf("v%d", rng.Intn(6)), fmt.Sprintf("k%04d", rng.Intn(nextKey))
			for _, tgt := range updateTargets(decomposed, partitioned) {
				stmts = append(stmts, update(tgt, v, k))
			}
		case r < 55:
			k := fmt.Sprintf("k%04d", rng.Intn(nextKey))
			for _, tgt := range dmlTables(decomposed, partitioned) {
				stmts = append(stmts, deleteWhere(tgt, "K", k))
			}
		case r < 62:
			if decomposed {
				// A group-delete on one half would break the join's
				// foreign key; fall back to a keyed delete on both.
				k := fmt.Sprintf("k%04d", rng.Intn(nextKey))
				stmts = []segStmt{deleteWhere("A", "K", k), deleteWhere("B", "K", k)}
			} else {
				g := fmt.Sprintf("g%d", rng.Intn(8))
				for _, tgt := range dmlTables(false, partitioned) {
					stmts = append(stmts, deleteWhere(tgt, "G", g))
				}
			}
		case r < 75:
			kind = "compact"
		case r < 82:
			stmts = []segStmt{{
				sql:   fmt.Sprintf("PRUNE KEEP %d", 1+rng.Intn(4)),
				apply: func(segModel, map[string][][]string) error { return nil },
			}}
		case r < 90:
			switch {
			case decomposed:
				evolve = "whole"
				stmts = []segStmt{{
					sql: "MERGE TABLES A, B INTO T", srcs: []string{"A", "B"}, outs: []string{"T"},
					apply: func(m segModel, pre map[string][][]string) error { return m.merge("A", "B", "T", pre) },
				}}
			case partitioned:
				evolve = "whole"
				stmts = []segStmt{{
					sql: "UNION TABLES P1, P2 INTO T", srcs: []string{"P1", "P2"}, outs: []string{"T"},
					apply: func(m segModel, pre map[string][][]string) error { return m.union("P1", "P2", "T", pre) },
				}}
			case rng.Intn(2) == 0:
				evolve = "partitioned"
				partG = rng.Intn(4)
				g := fmt.Sprintf("g%d", partG)
				stmts = []segStmt{{
					sql: fmt.Sprintf("PARTITION TABLE T WHERE G != '%s' INTO P1, P2", g), srcs: []string{"T"}, outs: []string{"P1", "P2"},
					apply: func(m segModel, pre map[string][][]string) error { return m.partition("T", g, "P1", "P2", pre["T"]) },
				}}
			default:
				evolve = "decomposed"
				stmts = []segStmt{{
					sql: "DECOMPOSE TABLE T INTO A (K, G), B (K, V)", srcs: []string{"T"}, outs: []string{"A", "B"},
					apply: func(m segModel, pre map[string][][]string) error { return m.decompose("T", "A", "B", pre["T"]) },
				}}
			}
		case r < 95:
			src := "T"
			if decomposed {
				src = "A"
			} else if partitioned {
				src = "P1"
			}
			stmts = []segStmt{
				{sql: "COPY TABLE " + src + " TO Tmp", apply: func(m segModel, _ map[string][][]string) error {
					in, err := m.table(src)
					if err != nil {
						return err
					}
					if err := m.free("Tmp"); err != nil {
						return err
					}
					m["Tmp"] = &segTable{cols: in.cols, key: in.key, rows: slices.Clone(in.rows)}
					return nil
				}},
				{sql: "DROP TABLE Tmp", apply: func(m segModel, _ map[string][][]string) error {
					if _, err := m.table("Tmp"); err != nil {
						return err
					}
					delete(m, "Tmp")
					return nil
				}},
			}
		default:
			kind = "rows" // pure read step; comparison below does the work
		}

		switch kind {
		case "compact":
			checkCompactKeepsOrder(t, step, db)
		case "exec":
			for _, st := range stmts {
				pre := make(map[string][][]string, len(st.srcs))
				for _, src := range st.srcs {
					rows, err := db.Rows(src, 0, 0)
					if err != nil {
						t.Fatalf("step %d: rows(%s): %v", step, src, err)
					}
					pre[src] = rows
				}
				_, dbErr := db.Exec(st.sql)
				modelErr := st.apply(model, pre)
				if errors.Is(modelErr, errUnmodeled) {
					t.Fatalf("step %d: %q: %v", step, st.sql, modelErr)
				}
				if (dbErr == nil) != (modelErr == nil) {
					t.Fatalf("step %d: %q: database error %v, model error %v", step, st.sql, dbErr, modelErr)
				}
				if dbErr != nil {
					continue
				}
				for _, out := range st.outs {
					got, err := db.Rows(out, 0, 0)
					if err != nil {
						t.Fatalf("step %d: rows(%s): %v", step, out, err)
					}
					if want := model[out].rows; !rowsEqual(got, want) {
						t.Fatalf("step %d: %q: %s row sequence differs from the one derived from the input rows\ngot:  %v\nwant: %v", step, st.sql, out, got, want)
					}
				}
				if evolve == "decomposed" {
					checkDecomposeJoinOracle(t, step, db, pre["T"])
				}
				if evolve != "" {
					okEvolve++
					if evolve == "partitioned" {
						okPartition++
					}
					decomposed = evolve == "decomposed"
					partitioned = evolve == "partitioned"
				} else if st.sql[0] != 'P' { // everything but PRUNE is DML
					okDML++
				}
			}
		}

		compareModel(t, step, db, model, nextKey, rng)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	// Guard against the run silently degenerating into consistent errors:
	// the interleaving must have landed real DML, real evolutions, and at
	// least one PARTITION (so the UNION leg of the cycle ran too).
	if okDML < nops/4 || okEvolve < 2 || okPartition < 1 {
		t.Fatalf("degenerate run: %d successful DML, %d successful evolutions (%d partitions)", okDML, okEvolve, okPartition)
	}
}

// rowsEqual compares two row sequences, treating nil and empty alike.
func rowsEqual(a, b [][]string) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// dmlTables lists the tables a keyed statement must touch in the current
// shape: both halves of a decomposition or partition, T otherwise.
func dmlTables(decomposed, partitioned bool) []string {
	switch {
	case decomposed:
		return []string{"A", "B"}
	case partitioned:
		return []string{"P1", "P2"}
	}
	return []string{"T"}
}

// updateTargets lists the tables a V-column update must touch: only B has
// V while decomposed; a partitioned key lives in exactly one half, so the
// update runs against both (a no-op on the half without the key).
func updateTargets(decomposed, partitioned bool) []string {
	if decomposed {
		return []string{"B"}
	}
	if partitioned {
		return []string{"P1", "P2"}
	}
	return []string{"T"}
}

// checkCompactKeepsOrder asserts a flush never changes a table's row
// sequence: each table is read page by page with Rows before Compact —
// pages smaller than the table never flush the overlay — and must read
// back identically afterwards.
func checkCompactKeepsOrder(t *testing.T, step int, db *cods.DB) {
	t.Helper()
	before := make(map[string][][]string)
	for _, name := range db.Tables() {
		n, err := db.NumRows(name)
		if err != nil {
			t.Fatalf("step %d: numrows(%s): %v", step, name, err)
		}
		page := n/3 + 1
		var rows [][]string
		for off := uint64(0); off < n; off += page {
			p, err := db.Rows(name, off, page)
			if err != nil {
				t.Fatalf("step %d: rows(%s, %d, %d): %v", step, name, off, page, err)
			}
			rows = append(rows, p...)
		}
		before[name] = rows
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("step %d: compact: %v", step, err)
	}
	for name, want := range before {
		got, err := db.Rows(name, 0, 0)
		if err != nil {
			t.Fatalf("step %d: rows(%s): %v", step, name, err)
		}
		if !rowsEqual(got, want) {
			t.Fatalf("step %d: compact changed %s's row sequence\nbefore: %v\nafter:  %v", step, name, want, got)
		}
	}
}

// checkDecomposeJoinOracle asserts the evolution oracle right after a
// DECOMPOSE lands: SELECT joining the outputs on the shared key must be
// byte-identical — row set and aggregate results — to the scan of the
// pre-DECOMPOSE table. The equivalence is the lossless-join guarantee, so
// it only holds when the decomposition's FDs did: with a duplicate key in
// T the join legitimately fans out, and the check skips.
func checkDecomposeJoinOracle(t *testing.T, step int, db *cods.DB, pre [][]string) {
	t.Helper()
	seen := make(map[string]bool, len(pre))
	distinctG := make(map[string]bool)
	for _, r := range pre {
		if seen[r[0]] {
			return // duplicate key: decomposition was lossy by design
		}
		seen[r[0]] = true
		distinctG[r[1]] = true
	}
	rs, err := db.Select("SELECT K, G, V FROM A JOIN B ON (K)")
	if err != nil {
		t.Fatalf("step %d: join over decomposed outputs: %v", step, err)
	}
	if got, want := sortedRows(rs.Rows), sortedRows(pre); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: A⋈B (%d rows) diverged from pre-DECOMPOSE T (%d rows)",
			step, len(got), len(want))
	}
	ag, err := db.Select("SELECT count(*), count_distinct(G) FROM A JOIN B ON (K)")
	if err != nil {
		t.Fatalf("step %d: aggregates over decomposed outputs: %v", step, err)
	}
	want := [][]string{{fmt.Sprint(len(pre)), fmt.Sprint(len(distinctG))}}
	if !reflect.DeepEqual(ag.Rows, want) {
		t.Fatalf("step %d: join aggregates %v, want %v", step, ag.Rows, want)
	}
}

// compareModel asserts the database is observably the model: same
// tables, schemas and row multisets, and matching point-, range- and
// count-query results.
func compareModel(t *testing.T, step int, db *cods.DB, m segModel, nextKey int, rng *rand.Rand) {
	t.Helper()
	var names []string
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	if got := slices.Sorted(slices.Values(db.Tables())); !slices.Equal(got, names) {
		t.Fatalf("step %d: table sets differ: database %v, model %v", step, got, names)
	}
	for _, name := range names {
		tb := m[name]
		cols, err := db.Columns(name)
		if err != nil || !slices.Equal(cols, tb.cols) {
			t.Fatalf("step %d: %s columns %v (%v), model %v", step, name, cols, err, tb.cols)
		}
		rows, err := db.Rows(name, 0, 0)
		if err != nil {
			t.Fatalf("step %d: rows(%s): %v", step, name, err)
		}
		if got, want := sortedRows(rows), sortedRows(tb.rows); !slices.Equal(got, want) {
			t.Fatalf("step %d: %s row multisets differ\ndatabase: %v\nmodel:    %v", step, name, got, want)
		}
		// Point and range queries on the key and a count on a payload
		// column — these take the bitmap scan paths (EqBitmap fast path
		// for the non-integer key literal; predicate scans for the rest).
		// Keys are non-integer strings, so the range is lexicographic.
		ki, gi := slices.Index(tb.cols, "K"), slices.Index(tb.cols, "G")
		if ki < 0 {
			continue
		}
		k := rng.Intn(nextKey)
		lo, hi := fmt.Sprintf("k%04d", k), fmt.Sprintf("k%04d", k+10)
		for _, q := range []struct {
			cond string
			keep func(r []string) bool
		}{
			{fmt.Sprintf("K = '%s'", lo), func(r []string) bool { return r[ki] == lo }},
			{fmt.Sprintf("K >= '%s' AND K < '%s'", lo, hi), func(r []string) bool { return r[ki] >= lo && r[ki] < hi }},
		} {
			got, err := db.Query(name, q.cond)
			if err != nil {
				t.Fatalf("step %d: query %s %q: %v", step, name, q.cond, err)
			}
			want := slices.DeleteFunc(slices.Clone(tb.rows), func(r []string) bool { return !q.keep(r) })
			if !slices.Equal(sortedRows(got), sortedRows(want)) {
				t.Fatalf("step %d: query %s %q: database %v, model %v", step, name, q.cond, got, want)
			}
		}
		if gi >= 0 {
			g := fmt.Sprintf("g%d", rng.Intn(4))
			want := 0
			for _, r := range tb.rows {
				if r[gi] != g {
					want++
				}
			}
			got, err := db.Count(name, fmt.Sprintf("G != '%s'", g))
			if err != nil || got != uint64(want) {
				t.Fatalf("step %d: count %s G != %q: database %d (%v), model %d", step, name, g, got, err, want)
			}
		}
	}
}

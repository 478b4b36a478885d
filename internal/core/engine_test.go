package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cods/internal/smo"
	"cods/internal/workload"
)

func newEngineWithR(t *testing.T) *Engine {
	t.Helper()
	e := New(Config{ValidateFD: true})
	r, err := workload.EmployeeTable("R")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(r); err != nil {
		t.Fatal(err)
	}
	return e
}

func apply(t *testing.T, e *Engine, opText string) *Result {
	t.Helper()
	op, err := smo.Parse(opText)
	if err != nil {
		t.Fatalf("parse %q: %v", opText, err)
	}
	res, err := e.Apply(op)
	if err != nil {
		t.Fatalf("apply %q: %v", opText, err)
	}
	return res
}

func TestRegisterAndLookup(t *testing.T) {
	e := newEngineWithR(t)
	if _, err := e.Table("R"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Table("missing"); err == nil {
		t.Fatal("lookup of missing table should fail")
	}
	r, _ := e.Table("R")
	if err := e.Register(r); err == nil {
		t.Fatal("duplicate register should fail")
	}
	if got := e.Tables(); len(got) != 1 || got[0] != "R" {
		t.Fatalf("Tables()=%v", got)
	}
}

func TestFullEvolutionScenario(t *testing.T) {
	e := newEngineWithR(t)

	// The paper's schema 1 -> schema 2 evolution.
	res := apply(t, e, "DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)")
	if !reflect.DeepEqual(res.Created, []string{"S", "T"}) || !reflect.DeepEqual(res.Dropped, []string{"R"}) {
		t.Fatalf("catalog delta: +%v -%v", res.Created, res.Dropped)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no status steps recorded")
	}
	if got := e.Tables(); !reflect.DeepEqual(got, []string{"S", "T"}) {
		t.Fatalf("catalog=%v", got)
	}

	// And back: schema 2 -> schema 1.
	apply(t, e, "MERGE TABLES S, T INTO R")
	r, err := e.Table("R")
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 7 {
		t.Fatalf("merged rows=%d", r.NumRows())
	}
	orig, _ := workload.EmployeeTable("R")
	if !reflect.DeepEqual(r.TupleMultiset(), orig.TupleMultiset()) {
		t.Fatal("round trip lost tuples")
	}
	if e.Version() != 2 {
		t.Fatalf("version=%d", e.Version())
	}
	hist := e.History()
	if len(hist) != 2 || hist[0].Kind != "DECOMPOSE TABLE" || hist[1].Kind != "MERGE TABLES" {
		t.Fatalf("history=%v", hist)
	}
}

func TestCatalogOnlyOperators(t *testing.T) {
	e := newEngineWithR(t)
	apply(t, e, "RENAME TABLE R TO People")
	if _, err := e.Table("R"); err == nil {
		t.Fatal("R should be gone after rename")
	}
	apply(t, e, "COPY TABLE People TO People2")
	p, _ := e.Table("People")
	p2, _ := e.Table("People2")
	if p.NumRows() != p2.NumRows() {
		t.Fatal("copy row count mismatch")
	}
	apply(t, e, "RENAME COLUMN Skill TO Talent IN People")
	p, _ = e.Table("People")
	if !p.HasColumn("Talent") {
		t.Fatal("column not renamed")
	}
	// The copy must be unaffected (no aliasing of schema metadata).
	p2, _ = e.Table("People2")
	if p2.HasColumn("Talent") {
		t.Fatal("rename leaked into the copy")
	}
	apply(t, e, "DROP TABLE People2")
	if _, err := e.Table("People2"); err == nil {
		t.Fatal("table not dropped")
	}
}

func TestCreateInsertlessTableAndColumnOps(t *testing.T) {
	e := New(Config{})
	apply(t, e, "CREATE TABLE Empty (A, B) KEY (A)")
	tab, _ := e.Table("Empty")
	if tab.NumRows() != 0 || tab.NumColumns() != 2 {
		t.Fatalf("shape: %v", tab)
	}
	if got := tab.Key(); len(got) != 1 || got[0] != "A" {
		t.Fatalf("key=%v", got)
	}
}

func TestAddColumnDefaultAndDrop(t *testing.T) {
	e := newEngineWithR(t)
	apply(t, e, "ADD COLUMN Country TO R DEFAULT 'USA'")
	r, _ := e.Table("R")
	col, err := r.Column("Country")
	if err != nil {
		t.Fatal(err)
	}
	if v := col.Dict().Value(col.RowIDs()[3]); v != "USA" {
		t.Fatalf("default=%q", v)
	}
	apply(t, e, "DROP COLUMN Country FROM R")
	r, _ = e.Table("R")
	if r.HasColumn("Country") {
		t.Fatal("column still present")
	}
}

func TestAddColumnFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grades.txt")
	if err := os.WriteFile(path, []byte("A\nB\nA\nC\nB\nA\nC\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := newEngineWithR(t)
	apply(t, e, "ADD COLUMN Grade TO R FROM '"+path+"'")
	r, _ := e.Table("R")
	col, err := r.Column("Grade")
	if err != nil {
		t.Fatal(err)
	}
	if col.DistinctCount() != 3 {
		t.Fatalf("distinct=%d", col.DistinctCount())
	}
}

func TestPartitionAndUnion(t *testing.T) {
	e := newEngineWithR(t)
	apply(t, e, "PARTITION TABLE R WHERE Address = '425 Grant Ave' INTO Grant, Rest")
	g, _ := e.Table("Grant")
	rest, _ := e.Table("Rest")
	if g.NumRows() != 4 || rest.NumRows() != 3 {
		t.Fatalf("partition sizes %d/%d", g.NumRows(), rest.NumRows())
	}
	apply(t, e, "UNION TABLES Grant, Rest INTO R")
	r, _ := e.Table("R")
	orig, _ := workload.EmployeeTable("R")
	if !reflect.DeepEqual(r.TupleMultiset(), orig.TupleMultiset()) {
		t.Fatal("partition+union lost tuples")
	}
}

func TestAtomicityOnFailure(t *testing.T) {
	e := newEngineWithR(t)
	op, _ := smo.Parse("DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee)")
	if _, err := e.Apply(op); err == nil {
		t.Fatal("invalid decomposition should fail")
	}
	// Catalog untouched, version unchanged.
	if _, err := e.Table("R"); err != nil {
		t.Fatal("R lost after failed operator")
	}
	if _, err := e.Table("S"); err == nil {
		t.Fatal("S should not exist after failed operator")
	}
	if e.Version() != 0 {
		t.Fatalf("version=%d after failure", e.Version())
	}
}

func TestOutputNameConflicts(t *testing.T) {
	e := newEngineWithR(t)
	apply(t, e, "CREATE TABLE S (X)")
	op, _ := smo.Parse("DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)")
	if _, err := e.Apply(op); err == nil {
		t.Fatal("output name conflict should fail")
	}
	// Reusing the input's own name is allowed (it is being dropped).
	apply(t, e, "DROP TABLE S")
	apply(t, e, "DECOMPOSE TABLE R INTO R (Employee, Skill), T (Employee, Address)")
	if _, err := e.Table("R"); err != nil {
		t.Fatal(err)
	}
}

func TestApplyScript(t *testing.T) {
	e := newEngineWithR(t)
	ops, err := smo.ParseScript(`
DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)
MERGE TABLES S, T INTO R
`)
	if err != nil {
		t.Fatal(err)
	}
	results, err := e.ApplyScript(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results=%d", len(results))
	}
	// A failing script stops early and reports prior results.
	ops2, _ := smo.ParseScript("DROP TABLE Nope\nDROP TABLE R")
	partial, err := e.ApplyScript(ops2)
	if err == nil {
		t.Fatal("expected failure")
	}
	if len(partial) != 0 {
		t.Fatalf("partial results=%d", len(partial))
	}
	if _, err := e.Table("R"); err != nil {
		t.Fatal("R must survive the failed script")
	}
}

func TestConcurrentReadersDuringApply(t *testing.T) {
	e := New(Config{})
	r, err := workload.BuildColstore(workload.Spec{Rows: 5000, DistinctKeys: 100, Seed: 1}, "R")
	if err != nil {
		t.Fatal(err)
	}
	e.Register(r)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				names := e.Tables()
				for _, n := range names {
					if tab, err := e.Table(n); err == nil {
						_ = tab.NumRows()
					}
				}
			}
		}()
	}
	apply(t, e, "DECOMPOSE TABLE R INTO S (A, B), T (A, C)")
	apply(t, e, "MERGE TABLES S, T INTO R")
	close(stop)
	wg.Wait()
}

func TestStatusCallback(t *testing.T) {
	var events []string
	e := New(Config{Status: func(s string) { events = append(events, s) }})
	r, _ := workload.EmployeeTable("R")
	e.Register(r)
	apply(t, e, "DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)")
	if len(events) == 0 {
		t.Fatal("no status events delivered")
	}
	all := strings.Join(events, "\n")
	if !strings.Contains(all, "distinction") {
		t.Fatalf("missing distinction event: %s", all)
	}
}

// TestDMLOverlayLifecycle covers the engine face of the delta overlay:
// DML statements version the catalog with dirty overlays, evolutions
// flush them (with a status step), and Compact retires them without
// changing content or version.
func TestDMLOverlayLifecycle(t *testing.T) {
	e := newEngineWithR(t)
	res := apply(t, e, "INSERT INTO R VALUES ('Nguyen', 'Sailing', '9 Pier Ln')")
	if len(res.Created) != 0 || len(res.Dropped) != 0 {
		t.Fatalf("DML reported created=%v dropped=%v", res.Created, res.Dropped)
	}
	apply(t, e, "DELETE FROM R WHERE Employee = 'Roberts'")

	cat := e.Catalog()
	ov, err := cat.Overlay("R")
	if err != nil {
		t.Fatal(err)
	}
	if !ov.Dirty() || ov.PendingAdded() != 1 || ov.PendingDeleted() != 1 {
		t.Fatalf("overlay state: dirty=%v added=%d deleted=%d", ov.Dirty(), ov.PendingAdded(), ov.PendingDeleted())
	}
	if n := ov.NumRows(); n != 7 {
		t.Fatalf("NumRows = %d, want 7 (7 seed + 1 - 1)", n)
	}
	version := cat.Version()
	rowsBefore, err := cat.Table("R")
	if err != nil {
		t.Fatal(err)
	}
	before := rowsBefore.TupleMultiset()

	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	cat = e.Catalog()
	if got := cat.Version(); got != version {
		t.Fatalf("Compact changed version %d -> %d", version, got)
	}
	ov, err = cat.Overlay("R")
	if err != nil {
		t.Fatal(err)
	}
	if ov.Dirty() {
		t.Fatal("overlay still dirty after Compact")
	}
	tab, err := cat.Table("R")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tab.TupleMultiset(), before) {
		t.Fatal("Compact changed table content")
	}

	// An evolution over a dirty overlay flushes first and reports it.
	apply(t, e, "INSERT INTO R VALUES ('Park', 'Welding', '3 Dock Rd')")
	res = apply(t, e, "DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)")
	flushed := false
	for _, s := range res.Steps {
		if strings.HasPrefix(s, "delta flush: R") {
			flushed = true
		}
	}
	if !flushed {
		t.Fatalf("no delta-flush step in %v", res.Steps)
	}
	s, err := e.Catalog().Table("S")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range s.SortedTuples() {
		if row[0] == "Park" {
			found = true
		}
	}
	if !found {
		t.Fatal("decomposed S misses the inserted row")
	}
}

// TestCompactDoesNotAliasPublishedSnapshot is the regression for a map
// aliasing bug: Compact must give the writer working set and the
// stored/published snapshot distinct maps, or the next Apply mutates
// rollback history (and the published catalog) in place.
func TestCompactDoesNotAliasPublishedSnapshot(t *testing.T) {
	e := newEngineWithR(t)
	apply(t, e, "INSERT INTO R VALUES ('Nguyen', 'Sailing', '9 Pier Ln')")
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	compactedVersion := e.Version()

	apply(t, e, "DROP TABLE R")
	if _, err := e.Catalog().Overlay("R"); err == nil {
		t.Fatal("R still published after DROP")
	}
	if err := e.Rollback(compactedVersion); err != nil {
		t.Fatal(err)
	}
	tab, err := e.Catalog().Table("R")
	if err != nil {
		t.Fatalf("rollback to compacted version lost R: %v", err)
	}
	if n := tab.NumRows(); n != 8 {
		t.Fatalf("restored R has %d rows, want 8", n)
	}
}

// RENAME TABLE is metadata-only even with pending DML: the overlay
// carries over to the new name without a delta flush.
func TestRenameCarriesDeltaWithoutFlush(t *testing.T) {
	e := newEngineWithR(t)
	apply(t, e, "INSERT INTO R VALUES ('Nguyen', 'Sailing', '9 Pier Ln')")
	res := apply(t, e, "RENAME TABLE R TO R2")
	for _, s := range res.Steps {
		if strings.HasPrefix(s, "delta flush") {
			t.Fatalf("rename flushed the delta: %v", res.Steps)
		}
	}
	ov, err := e.Catalog().Overlay("R2")
	if err != nil {
		t.Fatal(err)
	}
	if !ov.Dirty() || ov.NumRows() != 8 {
		t.Fatalf("renamed overlay: dirty=%v rows=%d, want dirty with 8", ov.Dirty(), ov.NumRows())
	}
	if _, err := e.Catalog().Overlay("R"); err == nil {
		t.Fatal("old name still present")
	}
}

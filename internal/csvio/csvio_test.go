package csvio

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cods/internal/workload"
)

const sample = `Employee,Skill,Address
Jones,Typing,425 Grant Ave
Roberts,"Light Cleaning","747 Industrial Way"
Ellis,"Comma, Inc.",somewhere
`

func TestReadWriteRoundTrip(t *testing.T) {
	tab, err := Read(strings.NewReader(sample), "R", nil)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 3 || tab.NumColumns() != 3 {
		t.Fatalf("shape: %v", tab)
	}
	page, err := tab.Rows(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row := page[0]; row[1] != "Comma, Inc." {
		t.Fatalf("quoted field lost: %v", page)
	}
	var buf bytes.Buffer
	if err := Write(&buf, tab); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf, "R2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.TupleMultiset(), tab.TupleMultiset()) {
		t.Fatal("round trip changed tuples")
	}
}

func TestLoadSaveFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "emp.csv")
	emp, err := workload.EmployeeTable("E")
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(path, emp); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, "E", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.TupleMultiset(), emp.TupleMultiset()) {
		t.Fatal("file round trip changed tuples")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader(""), "R", nil); err == nil {
		t.Fatal("empty input should fail")
	}
	if _, err := Read(strings.NewReader("A,B\n1\n"), "R", nil); err == nil {
		t.Fatal("ragged row should fail")
	}
	if _, err := Read(strings.NewReader("A,A\n1,2\n"), "R", nil); err == nil {
		t.Fatal("duplicate header should fail")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "nope.csv"), "R", nil); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestKeyDeclaration(t *testing.T) {
	tab, err := Read(strings.NewReader("K,V\na,1\nb,2\n"), "T", []string{"K"})
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Key(); len(got) != 1 || got[0] != "K" {
		t.Fatalf("key=%v", got)
	}
	if _, err := Read(strings.NewReader("K,V\na,1\n"), "T", []string{"Zed"}); err == nil {
		t.Fatal("unknown key column should fail")
	}
}

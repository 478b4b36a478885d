package evolve

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cods/internal/colstore"
)

func buildTable(t *testing.T, name string, columns []string, key []string, rows [][]string) *colstore.Table {
	t.Helper()
	tb, err := colstore.NewTableBuilder(name, columns, key)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := tb.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := tb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// figure1R is the running example of the paper's §1.
func figure1R(t *testing.T) *colstore.Table {
	return buildTable(t, "R", []string{"Employee", "Skill", "Address"}, nil, [][]string{
		{"Jones", "Typing", "425 Grant Ave"},
		{"Jones", "Shorthand", "425 Grant Ave"},
		{"Roberts", "Light Cleaning", "747 Industrial Way"},
		{"Ellis", "Alchemy", "747 Industrial Way"},
		{"Jones", "Whittling", "425 Grant Ave"},
		{"Ellis", "Juggling", "747 Industrial Way"},
		{"Harrison", "Light Cleaning", "425 Grant Ave"},
	})
}

func assertSameTuples(t *testing.T, got, want *colstore.Table, label string) {
	t.Helper()
	g, w := got.TupleMultiset(), want.TupleMultiset()
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: tuple multisets differ\ngot:  %v\nwant: %v", label, got.SortedTuples(), want.SortedTuples())
	}
}

func TestDecomposeFigure1(t *testing.T) {
	r := figure1R(t)
	res, err := Decompose(r, DecomposeSpec{
		OutS: "S", SColumns: []string{"Employee", "Skill"},
		OutT: "T", TColumns: []string{"Employee", "Address"},
	}, Options{ValidateFD: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reused != "S" || res.Deduplicated != "T" {
		t.Fatalf("orientation: reused=%s dedup=%s", res.Reused, res.Deduplicated)
	}
	if res.S.NumRows() != 7 {
		t.Fatalf("S rows=%d want 7", res.S.NumRows())
	}
	// S shares R's columns: zero data movement (Property 1).
	rEmp, _ := r.Column("Employee")
	sEmp, _ := res.S.Column("Employee")
	if rEmp != sEmp {
		t.Fatal("S did not reuse R's Employee column")
	}
	// T is the paper's Figure 1 table T: 4 rows, one per employee.
	if res.T.NumRows() != 4 {
		t.Fatalf("T rows=%d want 4", res.T.NumRows())
	}
	wantT := buildTable(t, "T", []string{"Employee", "Address"}, nil, [][]string{
		{"Jones", "425 Grant Ave"},
		{"Roberts", "747 Industrial Way"},
		{"Ellis", "747 Industrial Way"},
		{"Harrison", "425 Grant Ave"},
	})
	assertSameTuples(t, res.T, wantT, "T")
	if err := res.T.Validate(); err != nil {
		t.Fatal(err)
	}
	// T is keyed by the common attribute.
	if got := res.T.Key(); len(got) != 1 || got[0] != "Employee" {
		t.Fatalf("T key=%v", got)
	}
	if err := res.T.ValidateKey(); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeOrientationSwap(t *testing.T) {
	// Declare the outputs the other way round: the FD Employee→Address
	// still puts the deduplicated side on the Employee+Address output.
	r := figure1R(t)
	res, err := Decompose(r, DecomposeSpec{
		OutS: "EA", SColumns: []string{"Employee", "Address"},
		OutT: "ES", TColumns: []string{"Employee", "Skill"},
	}, Options{ValidateFD: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reused != "ES" || res.Deduplicated != "EA" {
		t.Fatalf("orientation: reused=%s dedup=%s", res.Reused, res.Deduplicated)
	}
	if res.S.NumRows() != 4 || res.T.NumRows() != 7 {
		t.Fatalf("rows: S=%d T=%d", res.S.NumRows(), res.T.NumRows())
	}
}

func TestDecomposeLossyRejected(t *testing.T) {
	// Neither side's remainder is functionally determined by the common
	// attribute: both Skill and Address vary per Employee here.
	r := buildTable(t, "R", []string{"Employee", "Skill", "Address"}, nil, [][]string{
		{"Jones", "Typing", "addr1"},
		{"Jones", "Shorthand", "addr2"},
	})
	_, err := Decompose(r, DecomposeSpec{
		OutS: "S", SColumns: []string{"Employee", "Skill"},
		OutT: "T", TColumns: []string{"Employee", "Address"},
	}, Options{ValidateFD: true})
	if err == nil {
		t.Fatal("lossy decomposition should be rejected with ValidateFD")
	}
}

func TestDecomposeSpecValidation(t *testing.T) {
	r := figure1R(t)
	cases := []DecomposeSpec{
		{OutS: "S", SColumns: []string{"Employee", "Skill"}, OutT: "T", TColumns: []string{"Employee"}},            // Address not covered
		{OutS: "S", SColumns: []string{"Skill"}, OutT: "T", TColumns: []string{"Employee", "Address"}},             // no common attribute
		{OutS: "S", SColumns: []string{"Employee", "Nope"}, OutT: "T", TColumns: []string{"Employee", "Address"}},  // unknown column
		{OutS: "X", SColumns: []string{"Employee", "Skill"}, OutT: "X", TColumns: []string{"Employee", "Address"}}, // same output names
		{OutS: "", SColumns: []string{"Employee", "Skill"}, OutT: "T", TColumns: []string{"Employee", "Address"}},  // empty name
	}
	for i, spec := range cases {
		if _, err := Decompose(r, spec, Options{}); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMergeKeyFKFigure1RoundTrip(t *testing.T) {
	r := figure1R(t)
	res, err := Decompose(r, DecomposeSpec{
		OutS: "S", SColumns: []string{"Employee", "Skill"},
		OutT: "T", TColumns: []string{"Employee", "Address"},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeKeyFK(res.S, res.T, "R2", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Reused != "S" {
		t.Fatalf("reused=%s", merged.Reused)
	}
	if err := merged.Table.Validate(); err != nil {
		t.Fatal(err)
	}
	assertSameTuples(t, merged.Table, r, "decompose∘merge identity")
	// Fact columns shared, not copied.
	sEmp, _ := res.S.Column("Employee")
	mEmp, _ := merged.Table.Column("Employee")
	if sEmp != mEmp {
		t.Fatal("merge did not reuse S's columns")
	}
}

func TestMergeKeyFKSwappedArguments(t *testing.T) {
	// Passing (dimension, fact) must auto-orient.
	r := figure1R(t)
	res, err := Decompose(r, DecomposeSpec{
		OutS: "S", SColumns: []string{"Employee", "Skill"},
		OutT: "T", TColumns: []string{"Employee", "Address"},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeKeyFK(res.T, res.S, "R2", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Reused != "S" {
		t.Fatalf("reused=%s want S", merged.Reused)
	}
	assertSameTuples(t, merged.Table, r, "swapped merge")
}

func TestMergeKeyFKForeignKeyViolation(t *testing.T) {
	s := buildTable(t, "S", []string{"K", "B"}, nil, [][]string{
		{"k1", "b1"}, {"k2", "b2"},
	})
	tt := buildTable(t, "T", []string{"K", "C"}, []string{"K"}, [][]string{
		{"k1", "c1"}, // k2 missing
	})
	if _, err := MergeKeyFK(s, tt, "R", Options{}); err == nil {
		t.Fatal("expected foreign-key violation")
	}
}

func TestMergeKeyFKNotApplicable(t *testing.T) {
	s := buildTable(t, "S", []string{"K", "B"}, nil, [][]string{
		{"k1", "b1"}, {"k1", "b2"},
	})
	tt := buildTable(t, "T", []string{"K", "C"}, nil, [][]string{
		{"k1", "c1"}, {"k1", "c2"},
	})
	if _, err := MergeKeyFK(s, tt, "R", Options{}); err == nil {
		t.Fatal("expected ErrNotKeyFK")
	}
	// Merge falls back to the general algorithm: 2x2 = 4 output rows.
	res, err := Merge(s, tt, "R", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reused != "" {
		t.Fatalf("general merge reported reuse of %q", res.Reused)
	}
	if res.Table.NumRows() != 4 {
		t.Fatalf("rows=%d want 4", res.Table.NumRows())
	}
}

func TestMergeNoCommonColumns(t *testing.T) {
	a := buildTable(t, "A", []string{"X"}, nil, [][]string{{"1"}})
	b := buildTable(t, "B", []string{"Y"}, nil, [][]string{{"2"}})
	if _, err := Merge(a, b, "R", Options{}); err == nil {
		t.Fatal("expected error for join with no common attributes")
	}
}

// naiveJoin computes the expected equi-join result as a tuple multiset.
func naiveJoin(t *testing.T, s, tt *colstore.Table) map[string]int {
	t.Helper()
	common := intersect(s.ColumnNames(), tt.ColumnNames())
	tExtra := minus(tt.ColumnNames(), common)
	sRows, err := s.Rows(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tRows, err := tt.Rows(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sIdx := make(map[string]int)
	for i, c := range s.ColumnNames() {
		sIdx[c] = i
	}
	tIdx := make(map[string]int)
	for i, c := range tt.ColumnNames() {
		tIdx[c] = i
	}
	out := make(map[string]int)
	for _, sr := range sRows {
		for _, tr := range tRows {
			match := true
			for _, c := range common {
				if sr[sIdx[c]] != tr[tIdx[c]] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			tuple := append([]string{}, sr...)
			for _, c := range tExtra {
				tuple = append(tuple, tr[tIdx[c]])
			}
			out[strings.Join(tuple, "\x00")]++
		}
	}
	return out
}

// mergedMultiset reprojects the merge output to s's columns followed by
// t's extra columns so it can be compared with naiveJoin.
func mergedMultiset(t *testing.T, merged, s, tt *colstore.Table) map[string]int {
	t.Helper()
	common := intersect(s.ColumnNames(), tt.ColumnNames())
	order := append(append([]string{}, s.ColumnNames()...), minus(tt.ColumnNames(), common)...)
	proj, err := merged.Project("P", order, nil)
	if err != nil {
		t.Fatal(err)
	}
	return proj.TupleMultiset()
}

func TestMergeGeneralAgainstNaiveJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		nS, nT := rng.Intn(40)+1, rng.Intn(40)+1
		d := rng.Intn(6) + 1
		var sRows, tRows [][]string
		for i := 0; i < nS; i++ {
			sRows = append(sRows, []string{fmt.Sprintf("j%d", rng.Intn(d)), fmt.Sprintf("b%d", rng.Intn(5))})
		}
		for i := 0; i < nT; i++ {
			tRows = append(tRows, []string{fmt.Sprintf("j%d", rng.Intn(d)), fmt.Sprintf("c%d", rng.Intn(5))})
		}
		s := buildTable(t, "S", []string{"J", "B"}, nil, sRows)
		tt := buildTable(t, "T", []string{"J", "C"}, nil, tRows)
		merged, err := MergeGeneral(s, tt, "R", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := merged.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := mergedMultiset(t, merged, s, tt)
		want := naiveJoin(t, s, tt)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: join mismatch\ngot  %v\nwant %v", trial, got, want)
		}
	}
}

func TestMergeGeneralClusteredLayout(t *testing.T) {
	// The output must be clustered by join value: each join value's
	// bitmap is one contiguous run.
	s := buildTable(t, "S", []string{"J", "B"}, nil, [][]string{
		{"x", "b1"}, {"y", "b2"}, {"x", "b3"},
	})
	tt := buildTable(t, "T", []string{"J", "C"}, nil, [][]string{
		{"y", "c1"}, {"x", "c2"}, {"x", "c3"},
	})
	merged, err := MergeGeneral(s, tt, "R", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumRows() != 2*2+1*1 {
		t.Fatalf("rows=%d want 5", merged.NumRows())
	}
	j, _ := merged.Column("J")
	for id := 0; id < j.DistinctCount(); id++ {
		var nruns int
		j.BitmapForID(uint32(id)).Runs(func(start, length uint64) bool {
			nruns++
			return true
		})
		if nruns != 1 {
			t.Fatalf("join value %q occupies %d runs, want 1 (clustered)", j.Dict().Value(uint32(id)), nruns)
		}
	}
}

func TestMergeCompositeKeyFK(t *testing.T) {
	s := buildTable(t, "S", []string{"K1", "K2", "B"}, nil, [][]string{
		{"a", "x", "b1"}, {"a", "y", "b2"}, {"b", "x", "b3"}, {"a", "x", "b4"},
	})
	tt := buildTable(t, "T", []string{"K1", "K2", "C"}, nil, [][]string{
		{"a", "x", "c1"}, {"a", "y", "c2"}, {"b", "x", "c3"},
	})
	merged, err := MergeKeyFK(s, tt, "R", Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := mergedMultiset(t, merged.Table, s, tt)
	want := naiveJoin(t, s, tt)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("composite merge mismatch\ngot  %v\nwant %v", got, want)
	}
}

func TestDecomposeCompositeKey(t *testing.T) {
	// FD (K1,K2) → C with multiple B values per composite.
	r := buildTable(t, "R", []string{"K1", "K2", "B", "C"}, nil, [][]string{
		{"a", "x", "b1", "c-ax"},
		{"a", "x", "b2", "c-ax"},
		{"a", "y", "b3", "c-ay"},
		{"b", "x", "b4", "c-bx"},
		{"a", "x", "b5", "c-ax"},
	})
	res, err := Decompose(r, DecomposeSpec{
		OutS: "S", SColumns: []string{"K1", "K2", "B"},
		OutT: "T", TColumns: []string{"K1", "K2", "C"},
	}, Options{ValidateFD: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.T.NumRows() != 3 {
		t.Fatalf("T rows=%d want 3", res.T.NumRows())
	}
	merged, err := MergeKeyFK(res.S, res.T, "R2", Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameTuples(t, merged.Table, r, "composite decompose∘merge identity")
}

func TestQuickDecomposeMergeIdentity(t *testing.T) {
	// Property: for any table with FD K→C, decompose(K,B | K,C) followed
	// by key-FK merge reproduces the original tuple multiset.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(300) + 1
		d := rng.Intn(20) + 1
		addr := make(map[string]string)
		var rows [][]string
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k%d", rng.Intn(d))
			if _, ok := addr[k]; !ok {
				addr[k] = fmt.Sprintf("c%d", rng.Intn(5))
			}
			rows = append(rows, []string{k, fmt.Sprintf("b%d", rng.Intn(10)), addr[k]})
		}
		r := buildTable(t, "R", []string{"K", "B", "C"}, nil, rows)
		res, err := Decompose(r, DecomposeSpec{
			OutS: "S", SColumns: []string{"K", "B"},
			OutT: "T", TColumns: []string{"K", "C"},
		}, Options{ValidateFD: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if uint64(len(addr)) != res.T.NumRows() {
			t.Fatalf("trial %d: T rows=%d want %d", trial, res.T.NumRows(), len(addr))
		}
		merged, err := MergeKeyFK(res.S, res.T, "R2", Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertSameTuples(t, merged.Table, r, fmt.Sprintf("trial %d", trial))
	}
}

func TestUnion(t *testing.T) {
	a := buildTable(t, "A", []string{"X", "Y"}, nil, [][]string{
		{"1", "p"}, {"2", "q"},
	})
	b := buildTable(t, "B", []string{"X", "Y"}, nil, [][]string{
		{"2", "q"}, {"3", "r"},
	})
	u, err := Union(a, b, "U", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if u.NumRows() != 4 {
		t.Fatalf("rows=%d want 4 (bag union keeps duplicates)", u.NumRows())
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	want := buildTable(t, "W", []string{"X", "Y"}, nil, [][]string{
		{"1", "p"}, {"2", "q"}, {"2", "q"}, {"3", "r"},
	})
	assertSameTuples(t, u, want, "union")
	// Order: a's rows then b's rows.
	rows, _ := u.Rows(0, 0)
	if rows[0][0] != "1" || rows[3][0] != "3" {
		t.Fatalf("union order wrong: %v", rows)
	}
}

func TestUnionSchemaMismatch(t *testing.T) {
	a := buildTable(t, "A", []string{"X", "Y"}, nil, [][]string{{"1", "p"}})
	b := buildTable(t, "B", []string{"X", "Z"}, nil, [][]string{{"1", "p"}})
	if _, err := Union(a, b, "U", Options{}); err == nil {
		t.Fatal("expected schema mismatch error")
	}
	c := buildTable(t, "C", []string{"X"}, nil, [][]string{{"1"}})
	if _, err := Union(a, c, "U", Options{}); err == nil {
		t.Fatal("expected column count mismatch error")
	}
}

func TestPartition(t *testing.T) {
	r := figure1R(t)
	yes, no, err := Partition(r, "Address = '425 Grant Ave'", "P1", "P2", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if yes.NumRows() != 4 || no.NumRows() != 3 {
		t.Fatalf("partition sizes %d/%d want 4/3", yes.NumRows(), no.NumRows())
	}
	// Partition then union restores the table.
	u, err := Union(yes, no, "U", Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameTuples(t, u, r, "partition∘union identity")
	if _, _, err := Partition(r, "bogus ~ 3", "a", "b", Options{}); err == nil {
		t.Fatal("bad condition should fail")
	}
	if _, _, err := Partition(r, "Missing = 'x'", "a", "b", Options{}); err == nil {
		t.Fatal("unknown column should fail")
	}
}

func TestAddDropColumn(t *testing.T) {
	r := figure1R(t)
	withGrade, err := AddColumnValues(r, "Grade", []string{"A", "B", "A", "C", "B", "A", "C"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if withGrade.NumColumns() != 4 {
		t.Fatalf("columns=%d", withGrade.NumColumns())
	}
	if _, err := AddColumnValues(r, "Bad", []string{"x"}, Options{}); err == nil {
		t.Fatal("wrong value count should fail")
	}

	withDefault, err := AddColumnDefault(r, "Country", "USA", Options{})
	if err != nil {
		t.Fatal(err)
	}
	col, _ := withDefault.Column("Country")
	if col.DistinctCount() != 1 {
		t.Fatalf("default column distinct=%d", col.DistinctCount())
	}
	if v := col.Dict().Value(col.RowIDs()[6]); v != "USA" {
		t.Fatalf("default value=%q", v)
	}

	dropped, err := DropColumn(withDefault, "Country", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dropped.HasColumn("Country") {
		t.Fatal("column not dropped")
	}
	if _, err := DropColumn(r, "Missing", Options{}); err == nil {
		t.Fatal("dropping missing column should fail")
	}
}

func TestCopyShares(t *testing.T) {
	r := figure1R(t)
	c, err := Copy(r, "RCopy", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "RCopy" || c.NumRows() != r.NumRows() {
		t.Fatalf("copy: %v", c)
	}
	rc, _ := r.Column("Skill")
	cc, _ := c.Column("Skill")
	if rc != cc {
		t.Fatal("copy duplicated column data")
	}
}

func TestStatusTracing(t *testing.T) {
	r := figure1R(t)
	var steps []string
	opt := Options{Status: func(s string) { steps = append(steps, s) }}
	if _, err := Decompose(r, DecomposeSpec{
		OutS: "S", SColumns: []string{"Employee", "Skill"},
		OutT: "T", TColumns: []string{"Employee", "Address"},
	}, opt); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(steps, "\n")
	for _, want := range []string{"distinction", "bitmap filtering", "reuse"} {
		if !strings.Contains(joined, want) {
			t.Errorf("status trace missing %q:\n%s", want, joined)
		}
	}
}

func TestParallelismMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var rows [][]string
	addr := map[string]string{}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(200))
		if _, ok := addr[k]; !ok {
			addr[k] = fmt.Sprintf("c%d", rng.Intn(20))
		}
		rows = append(rows, []string{k, fmt.Sprintf("b%d", rng.Intn(50)), addr[k]})
	}
	r := buildTable(t, "R", []string{"K", "B", "C"}, nil, rows)
	spec := DecomposeSpec{OutS: "S", SColumns: []string{"K", "B"}, OutT: "T", TColumns: []string{"K", "C"}}
	serial, err := Decompose(r, spec, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Decompose(r, spec, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	assertSameTuples(t, serial.T, parallel.T, "parallel vs serial decompose")
}

package expr

import (
	"testing"

	"cods/internal/colstore"
)

func sampleTable(t *testing.T) *colstore.Table {
	t.Helper()
	tb, err := colstore.NewTableBuilder("T", []string{"name", "age", "city"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]string{
		{"ann", "30", "sf"},
		{"bob", "25", "ny"},
		{"carol", "41", "sf"},
		{"dave", "7", "la"},
		{"erin", "30", "ny"},
	}
	for _, r := range rows {
		tb.AppendRow(r)
	}
	tab, err := tb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func evalCount(t *testing.T, tab *colstore.Table, pred string) uint64 {
	t.Helper()
	n, err := Parse(pred)
	if err != nil {
		t.Fatalf("Parse(%q): %v", pred, err)
	}
	b, err := n.Eval(tab)
	if err != nil {
		t.Fatalf("Eval(%q): %v", pred, err)
	}
	if b.Len() != tab.NumRows() {
		t.Fatalf("Eval(%q) bitmap covers %d rows, table has %d", pred, b.Len(), tab.NumRows())
	}
	return b.Count()
}

func TestComparisons(t *testing.T) {
	tab := sampleTable(t)
	cases := []struct {
		pred string
		want uint64
	}{
		{"city = 'sf'", 2},
		{"city != 'sf'", 3},
		{"city <> 'sf'", 3},
		{"name = ann", 1},
		{"age = 30", 2},
		{"age < 30", 2}, // 25, 7: numeric, not lexicographic
		{"age <= 30", 4},
		{"age > 30", 1},
		{"age >= 41", 1},
		{"name >= 'carol'", 3}, // lexicographic on strings
		{"age = 99", 0},
	}
	for _, c := range cases {
		if got := evalCount(t, tab, c.pred); got != c.want {
			t.Errorf("%q: count=%d want %d", c.pred, got, c.want)
		}
	}
}

func TestNumericVsLexicographic(t *testing.T) {
	// "7" < "30" numerically but "30" < "7" lexicographically; the
	// numeric path must win when both sides are integers.
	if !OpLt.Compare("7", "30") {
		t.Fatal("7 < 30 should hold numerically")
	}
	if OpLt.Compare("7a", "30") {
		t.Fatal("non-integers sort after all integers: '7a' > '30'")
	}
}

// Compare must be one total order — integers numerically, before every
// non-integer; non-integers lexicographically — with antisymmetry and
// transitivity over mixed values.
func TestCompareTotalOrder(t *testing.T) {
	ordered := []string{"-12", "-1", "0", "7", "9", "10", "123", "", " 3", "10x", "7a", "abc"}
	for i, a := range ordered {
		if Compare(a, a) != 0 {
			t.Errorf("Compare(%q, %q) = %d, want 0", a, a, Compare(a, a))
		}
		for _, b := range ordered[i+1:] {
			if Compare(a, b) >= 0 {
				t.Errorf("Compare(%q, %q) = %d, want < 0", a, b, Compare(a, b))
			}
			if Compare(b, a) <= 0 {
				t.Errorf("Compare(%q, %q) = %d, want > 0", b, a, Compare(b, a))
			}
		}
	}
	// Transitivity over every triple of the (distinct-valued) pool.
	for _, a := range ordered {
		for _, b := range ordered {
			for _, c := range ordered {
				if Compare(a, b) < 0 && Compare(b, c) < 0 && Compare(a, c) >= 0 {
					t.Errorf("transitivity violated: %q < %q < %q but Compare(%q, %q) = %d",
						a, b, c, a, c, Compare(a, c))
				}
			}
		}
	}
}

// Range predicates on the bitmap index must follow the Compare total
// order on mixed integer and non-integer values: split comparators
// (lexicographic for some pairs, numeric for others) are not monotonic
// there and select wrong row sets.
func TestRangePredicatesMixedValuesTotalOrder(t *testing.T) {
	tb, err := colstore.NewTableBuilder("T", []string{"V"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"10x", "9", "abc", "10", "2"} {
		if err := tb.AppendRow([]string{v}); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := tb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Integers sort first: [2 9 10], then [10x abc].
	for _, c := range []struct {
		pred string
		want uint64
	}{
		{"V >= '10'", 3},                 // 10, 10x, abc; 9 and 2 excluded
		{"V <= '9'", 2},                  // 2, 9
		{"V >= '10x' AND V <= 'abc'", 2}, // 10x, abc
	} {
		if got := evalCount(t, tab, c.pred); got != c.want {
			t.Errorf("%s: %d rows, want %d", c.pred, got, c.want)
		}
	}
}

func TestEvalRowMatchesBitmapEval(t *testing.T) {
	tab := sampleTable(t)
	rows, err := tab.Rows(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cols := tab.ColumnNames()
	for _, pred := range []string{
		"city = 'sf' AND age > 30",
		"NOT (name >= 'carol' OR age < 30)",
		"age <= 30 AND city != 'la'",
	} {
		node, err := Parse(pred)
		if err != nil {
			t.Fatal(err)
		}
		bm, err := node.Eval(tab)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			get := func(col string) (string, bool) {
				for ci, cn := range cols {
					if cn == col {
						return row[ci], true
					}
				}
				return "", false
			}
			got, err := node.EvalRow(get)
			if err != nil {
				t.Fatal(err)
			}
			if want := bm.Get(uint64(i)); got != want {
				t.Errorf("%q row %d: EvalRow=%v, bitmap=%v", pred, i, got, want)
			}
		}
	}
}

func TestEvalRowUnknownColumn(t *testing.T) {
	node, err := Parse("age > 30 OR ghost = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	// Even when the known side alone decides the result, the unknown
	// column must surface.
	if _, err := node.EvalRow(func(col string) (string, bool) {
		if col == "age" {
			return "99", true
		}
		return "", false
	}); err == nil {
		t.Fatal("EvalRow with unknown column returned no error")
	}
}

func TestLogicalOperators(t *testing.T) {
	tab := sampleTable(t)
	cases := []struct {
		pred string
		want uint64
	}{
		{"city = 'sf' AND age > 30", 1},
		{"city = 'sf' OR city = 'ny'", 4},
		{"NOT city = 'sf'", 3},
		{"NOT (city = 'sf' OR city = 'ny')", 1},
		{"city = 'sf' AND age > 30 OR name = dave", 2}, // AND binds tighter
		{"city = 'sf' AND (age > 30 OR name = dave)", 1},
		{"not city = 'la' and not city = 'ny'", 2}, // case-insensitive keywords
	}
	for _, c := range cases {
		if got := evalCount(t, tab, c.pred); got != c.want {
			t.Errorf("%q: count=%d want %d", c.pred, got, c.want)
		}
	}
}

func TestQuotedLiterals(t *testing.T) {
	tb, _ := colstore.NewTableBuilder("T", []string{"v"}, nil)
	tb.AppendRow([]string{"it's"})
	tb.AppendRow([]string{"plain"})
	tab, _ := tb.Finish()
	if got := evalCount(t, tab, "v = 'it''s'"); got != 1 {
		t.Fatalf("escaped quote literal: count=%d", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"city",
		"city =",
		"= 'sf'",
		"city = 'sf' AND",
		"(city = 'sf'",
		"city ~ 'sf'",
		"city = 'sf' extra",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestEvalUnknownColumn(t *testing.T) {
	tab := sampleTable(t)
	n, err := Parse("missing = 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Eval(tab); err == nil {
		t.Fatal("expected unknown-column error")
	}
}

func TestColumnsCollection(t *testing.T) {
	n, err := Parse("a = 1 AND (b > 2 OR NOT c <= 3)")
	if err != nil {
		t.Fatal(err)
	}
	got := n.Columns(nil)
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("columns=%v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("columns=%v want %v", got, want)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	n, err := Parse("a = 1 AND NOT b < 'x'")
	if err != nil {
		t.Fatal(err)
	}
	re, err := Parse(n.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", n.String(), err)
	}
	if re.String() != n.String() {
		t.Fatalf("not stable: %q vs %q", n.String(), re.String())
	}
}

package evolve

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cods/internal/colstore"
	"cods/internal/queryevolve"
)

// The tests in this file check the segment-wise operators against
// references that share no code with them: the query-level path in
// package queryevolve (decompress, materialize tuples, re-compress) and
// expectations the tests derive from their own input rows.

// buildSegmentedTable assembles a table whose base is one segment per row
// chunk, so the segment-wise operator paths have real segment boundaries
// to cross (dictionaries overlap between chunks whenever values repeat).
func buildSegmentedTable(t *testing.T, name string, columns []string, key []string, chunks [][][]string) *colstore.Table {
	t.Helper()
	var segs []*colstore.Segment
	for _, rows := range chunks {
		segs = append(segs, buildTable(t, name, columns, nil, rows).Segments()...)
	}
	tab, err := colstore.NewSegmented(name, columns, segs, key)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// rowsOf reads a table's full row sequence.
func rowsOf(t *testing.T, tab *colstore.Table) [][]string {
	t.Helper()
	rows, err := tab.Rows(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// assertIdenticalRows asserts both tables hold byte-identical row
// sequences over the same schema — not just the same multiset.
func assertIdenticalRows(t *testing.T, got, want *colstore.Table, label string) {
	t.Helper()
	if !reflect.DeepEqual(got.ColumnNames(), want.ColumnNames()) {
		t.Fatalf("%s: schemas differ: %v vs %v", label, got.ColumnNames(), want.ColumnNames())
	}
	assertRowSequence(t, got, rowsOf(t, want), label)
}

// assertRowSequence asserts got holds exactly the rows of want, in order.
func assertRowSequence(t *testing.T, got *colstore.Table, want [][]string, label string) {
	t.Helper()
	if g := rowsOf(t, got); !reflect.DeepEqual(g, want) {
		t.Fatalf("%s: row sequences differ\ngot:  %v\nwant: %v", label, g, want)
	}
}

// colIndexes maps each named column to its position in cols.
func colIndexes(cols, names []string) []int {
	pos := make(map[string]int, len(cols))
	for i, c := range cols {
		pos[c] = i
	}
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = pos[n]
	}
	return out
}

// tupleKey renders the values of row at the given positions as one map key.
func tupleKey(row []string, idx []int) string {
	var sb strings.Builder
	for _, i := range idx {
		sb.WriteString(row[i])
		sb.WriteByte(0)
	}
	return sb.String()
}

// fdHoldsRows reports whether det → dep holds over rows laid out as cols.
func fdHoldsRows(cols []string, rows [][]string, det, dep []string) bool {
	di, pi := colIndexes(cols, det), colIndexes(cols, dep)
	seen := make(map[string]string, len(rows))
	for _, r := range rows {
		k, v := tupleKey(r, di), tupleKey(r, pi)
		if prev, ok := seen[k]; ok && prev != v {
			return false
		}
		seen[k] = v
	}
	return true
}

// uniqueOn reports whether the given columns identify every row.
func uniqueOn(cols []string, rows [][]string, on []string) bool {
	idx := colIndexes(cols, on)
	seen := make(map[string]bool, len(rows))
	for _, r := range rows {
		k := tupleKey(r, idx)
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

// firstOccurrence projects rows onto out, keeping only the first row for
// each value of common — DECOMPOSE's deduplicated side, derived from the
// input rows alone.
func firstOccurrence(cols []string, rows [][]string, common, out []string) [][]string {
	ci, oi := colIndexes(cols, common), colIndexes(cols, out)
	seen := make(map[string]bool, len(rows))
	var res [][]string
	for _, r := range rows {
		k := tupleKey(r, ci)
		if seen[k] {
			continue
		}
		seen[k] = true
		p := make([]string, len(oi))
		for j, i := range oi {
			p[j] = r[i]
		}
		res = append(res, p)
	}
	return res
}

// wantDecompose derives a validated DECOMPOSE's expected outputs without
// the operator: the orientation from checking the functional dependency
// on r's rows (T is deduplicated when common → T holds, else S), the
// tables from the query-level path (projection and SELECT DISTINCT).
// ok is false when the FD holds on neither side: the spec is lossy.
func wantDecompose(t *testing.T, r *colstore.Table, spec DecomposeSpec) (s, tt *colstore.Table, dedup string, ok bool) {
	t.Helper()
	rows := rowsOf(t, r)
	common := intersect(spec.SColumns, spec.TColumns)
	switch {
	case fdHoldsRows(r.ColumnNames(), rows, common, minus(spec.TColumns, common)):
		s, tt, err := queryevolve.Decompose(r, spec.OutS, spec.SColumns, spec.OutT, spec.TColumns)
		if err != nil {
			t.Fatal(err)
		}
		return s, tt, spec.OutT, true
	case fdHoldsRows(r.ColumnNames(), rows, common, minus(spec.SColumns, common)):
		tt, s, err := queryevolve.Decompose(r, spec.OutT, spec.TColumns, spec.OutS, spec.SColumns)
		if err != nil {
			t.Fatal(err)
		}
		return s, tt, spec.OutS, true
	}
	return nil, nil, "", false
}

// checkDecompose runs a validated DECOMPOSE and asserts its outputs and
// orientation equal wantDecompose's, returning the operator's result.
func checkDecompose(t *testing.T, r *colstore.Table, spec DecomposeSpec, label string) *DecomposeResult {
	t.Helper()
	wantS, wantT, dedup, ok := wantDecompose(t, r, spec)
	if !ok {
		t.Fatalf("%s: test premise broken: spec is lossy on the input rows", label)
	}
	res, err := Decompose(r, spec, Options{ValidateFD: true})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assertIdenticalRows(t, res.S, wantS, label+": "+spec.OutS)
	assertIdenticalRows(t, res.T, wantT, label+": "+spec.OutT)
	if res.Deduplicated != dedup {
		t.Fatalf("%s: deduplicated %q, want %q (from the FD on the input rows)", label, res.Deduplicated, dedup)
	}
	return res
}

// wantKeyFKMerge derives key–FK MERGE's expected output without the
// operator: the fact side is s when t's rows are unique on the common
// attributes, else t when s's are; the rows are the query-level join in
// fact order. keyFK is false when neither side is keyed by the data.
func wantKeyFKMerge(t *testing.T, s, tt *colstore.Table, out string) (want *colstore.Table, fact string, keyFK bool) {
	t.Helper()
	common := intersect(s.ColumnNames(), tt.ColumnNames())
	f, d := s, tt
	switch {
	case uniqueOn(tt.ColumnNames(), rowsOf(t, tt), common):
	case uniqueOn(s.ColumnNames(), rowsOf(t, s), common):
		f, d = tt, s
	default:
		return nil, "", false
	}
	want, err := queryevolve.Merge(f, d, out)
	if err != nil {
		t.Fatal(err)
	}
	return want, f.Name(), true
}

// figure1Segmented is figure1R split into three segments with the
// duplicate employees straddling segment boundaries, so distinction must
// dedup across segments.
func figure1Segmented(t *testing.T) *colstore.Table {
	return buildSegmentedTable(t, "R", []string{"Employee", "Skill", "Address"}, nil, [][][]string{
		{
			{"Jones", "Typing", "425 Grant Ave"},
			{"Jones", "Shorthand", "425 Grant Ave"},
			{"Roberts", "Light Cleaning", "747 Industrial Way"},
		},
		{
			{"Ellis", "Alchemy", "747 Industrial Way"},
			{"Jones", "Whittling", "425 Grant Ave"},
		},
		{
			{"Ellis", "Juggling", "747 Industrial Way"},
			{"Harrison", "Light Cleaning", "425 Grant Ave"},
		},
	})
}

func TestDecomposeSegmentedMatchesQueryLevel(t *testing.T) {
	spec := DecomposeSpec{
		OutS: "S", SColumns: []string{"Employee", "Skill"},
		OutT: "T", TColumns: []string{"Employee", "Address"},
	}
	res := checkDecompose(t, figure1Segmented(t), spec, "figure 1")
	if res.Reused != "S" {
		t.Fatalf("reused %q, want S", res.Reused)
	}
	// The deduplicated output must stay segmented: every input segment
	// that contributed a surviving representative yields an output
	// segment, rather than the whole table being restitched. All three
	// input segments contribute first occurrences here.
	if res.T.NumSegments() != 3 {
		t.Fatalf("deduplicated output has %d segments, want 3 (segment-wise path must not restitch)", res.T.NumSegments())
	}
}

func TestDecomposeSegmentedCompositeCommon(t *testing.T) {
	cols := []string{"A", "B", "C", "D"}
	r := buildSegmentedTable(t, "R", cols, nil, [][][]string{
		{{"a1", "b1", "c1", "d1"}, {"a1", "b2", "c2", "d2"}},
		{{"a1", "b1", "c1", "d3"}, {"a2", "b1", "c3", "d4"}},
		{{"a2", "b1", "c3", "d5"}},
	})
	spec := DecomposeSpec{
		OutS: "S", SColumns: []string{"A", "B", "C"},
		OutT: "T", TColumns: []string{"A", "B", "D"},
	}
	// (A, B) determines C but not D: S is the deduplicated side.
	res := checkDecompose(t, r, spec, "composite")
	if res.Deduplicated != "S" {
		t.Fatalf("deduplicated %q, want S", res.Deduplicated)
	}
}

func TestDecomposeSegmentedLossyErrorParity(t *testing.T) {
	// Address does not determine Skill, and Address does not determine
	// Employee either: the spec must be rejected under ValidateFD, with
	// segment boundaries not hiding the cross-segment FD violation
	// (425 Grant Ave maps to two employees in different segments).
	spec := DecomposeSpec{
		OutS: "S", SColumns: []string{"Address", "Skill"},
		OutT: "T", TColumns: []string{"Address", "Employee"},
	}
	r := figure1Segmented(t)
	if _, _, _, ok := wantDecompose(t, r, spec); ok {
		t.Fatal("test premise broken: spec is lossless on the input rows")
	}
	if _, err := Decompose(r, spec, Options{ValidateFD: true}); err == nil {
		t.Fatal("lossy decomposition accepted")
	}
}

// segmentedDimFact builds a keyed multi-segment dimension table and a
// multi-segment fact table referencing it.
func segmentedDimFact(t *testing.T) (dim, fact *colstore.Table) {
	dim = buildSegmentedTable(t, "Emp", []string{"Employee", "Address"}, []string{"Employee"}, [][][]string{
		{{"Jones", "425 Grant Ave"}, {"Roberts", "747 Industrial Way"}},
		{{"Ellis", "747 Industrial Way"}},
		{{"Harrison", "425 Grant Ave"}},
	})
	fact = buildSegmentedTable(t, "Skills", []string{"Employee", "Skill"}, nil, [][][]string{
		{{"Jones", "Typing"}, {"Jones", "Shorthand"}},
		{{"Roberts", "Light Cleaning"}, {"Ellis", "Alchemy"}, {"Jones", "Whittling"}},
		{{"Ellis", "Juggling"}, {"Harrison", "Light Cleaning"}},
	})
	return dim, fact
}

func TestMergeKeyFKSegmentedMatchesQueryLevel(t *testing.T) {
	dim, fact := segmentedDimFact(t)
	want, wantFact, keyFK := wantKeyFKMerge(t, fact, dim, "R")
	if !keyFK || wantFact != fact.Name() {
		t.Fatalf("test premise broken: fact side %q (key-FK %v)", wantFact, keyFK)
	}
	res, err := MergeKeyFK(fact, dim, "R", Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalRows(t, res.Table, want, "merged")
	if res.Reused != fact.Name() {
		t.Fatalf("reused %q, want the fact side %q", res.Reused, fact.Name())
	}
	// The segment-wise merge maps each fact segment independently: the
	// output must keep the fact table's segmentation instead of being
	// rebuilt as one segment.
	if got, want := res.Table.NumSegments(), fact.NumSegments(); got != want {
		t.Fatalf("merged output has %d segments, want %d (one per fact segment)", got, want)
	}
	if err := res.Table.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeKeyFKSegmentedForeignKeyViolationParity(t *testing.T) {
	dim, _ := segmentedDimFact(t)
	// "Nobody" appears only in the fact's last segment — the violation
	// must surface even though earlier segments are clean.
	fact := buildSegmentedTable(t, "Skills", []string{"Employee", "Skill"}, nil, [][][]string{
		{{"Jones", "Typing"}, {"Ellis", "Alchemy"}},
		{{"Nobody", "Loafing"}},
	})
	dimKeys := make(map[string]bool)
	for _, r := range rowsOf(t, dim) {
		dimKeys[r[0]] = true
	}
	dangling := 0
	for _, r := range rowsOf(t, fact) {
		if !dimKeys[r[0]] {
			dangling++
		}
	}
	if dangling != 1 {
		t.Fatalf("test premise broken: %d dangling fact rows, want 1", dangling)
	}
	if _, err := MergeKeyFK(fact, dim, "R", Options{}); err == nil {
		t.Fatal("foreign-key violation missed")
	}
}

func TestMergeKeyFKSegmentedCompositeKey(t *testing.T) {
	dim := buildSegmentedTable(t, "D", []string{"A", "B", "X"}, []string{"A", "B"}, [][][]string{
		{{"a1", "b1", "x1"}, {"a1", "b2", "x2"}},
		{{"a2", "b1", "x3"}},
	})
	fact := buildSegmentedTable(t, "F", []string{"A", "B", "Y"}, nil, [][][]string{
		{{"a1", "b2", "y1"}, {"a1", "b1", "y2"}},
		{{"a2", "b1", "y3"}, {"a1", "b1", "y4"}},
	})
	want, wantFact, keyFK := wantKeyFKMerge(t, fact, dim, "R")
	if !keyFK || wantFact != fact.Name() {
		t.Fatalf("test premise broken: fact side %q (key-FK %v)", wantFact, keyFK)
	}
	res, err := MergeKeyFK(fact, dim, "R", Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalRows(t, res.Table, want, "composite merged")
}

// checkGeneralMerge asserts a general MERGE equals the query-level join as
// a multiset and is clustered by join value: every join value's rows are
// contiguous.
func checkGeneralMerge(t *testing.T, s, tt *colstore.Table, label string) {
	t.Helper()
	got, err := MergeGeneral(s, tt, "R", Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := queryevolve.Merge(s, tt, "R")
	if err != nil {
		t.Fatal(err)
	}
	if g, w := mergedMultiset(t, got, s, tt), want.TupleMultiset(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: tuple multisets differ\ngot:  %v\nwant: %v", label, got.SortedTuples(), want.SortedTuples())
	}
	ci := colIndexes(got.ColumnNames(), intersect(s.ColumnNames(), tt.ColumnNames()))
	done := make(map[string]bool)
	prev := ""
	for i, r := range rowsOf(t, got) {
		k := tupleKey(r, ci)
		if i > 0 && k != prev {
			done[prev] = true
		}
		if done[k] {
			t.Fatalf("%s: join value %q is not contiguous (row %d)", label, k, i)
		}
		prev = k
	}
}

func TestMergeGeneralSegmentedMatchesQueryLevel(t *testing.T) {
	// Address is a key of neither side, so Merge must take the general
	// two-pass algorithm.
	s := buildSegmentedTable(t, "S", []string{"Employee", "Address"}, nil, [][][]string{
		{{"Jones", "425 Grant Ave"}, {"Roberts", "747 Industrial Way"}},
		{{"Ellis", "747 Industrial Way"}, {"Harrison", "425 Grant Ave"}},
	})
	tt := buildSegmentedTable(t, "T", []string{"Address", "Rent"}, nil, [][][]string{
		{{"425 Grant Ave", "1200"}},
		{{"747 Industrial Way", "800"}, {"425 Grant Ave", "1250"}},
	})
	checkGeneralMerge(t, s, tt, "general merged")
}

func TestMergeGeneralSegmentedCompositeJoin(t *testing.T) {
	s := buildSegmentedTable(t, "S", []string{"A", "B", "X"}, nil, [][][]string{
		{{"a1", "b1", "x1"}, {"a1", "b1", "x2"}},
		{{"a2", "b2", "x3"}, {"a1", "b1", "x4"}},
	})
	tt := buildSegmentedTable(t, "T", []string{"A", "B", "Y"}, nil, [][][]string{
		{{"a1", "b1", "y1"}, {"a2", "b2", "y2"}},
		{{"a1", "b1", "y3"}},
	})
	checkGeneralMerge(t, s, tt, "composite general merged")
}

func TestUnionSegmentedAdoptsSegments(t *testing.T) {
	cols := []string{"K", "V"}
	aChunks := [][][]string{
		{{"k1", "v1"}, {"k2", "v2"}},
		{{"k3", "v1"}},
	}
	bChunks := [][][]string{
		{{"k4", "v3"}},
		{{"k5", "v1"}, {"k6", "v2"}},
		{{"k7", "v4"}},
	}
	a := buildSegmentedTable(t, "A", cols, nil, aChunks)
	b := buildSegmentedTable(t, "B", cols, nil, bChunks)
	u, err := Union(a, b, "U", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// a's rows, then b's.
	var want [][]string
	for _, c := range append(aChunks, bChunks...) {
		want = append(want, c...)
	}
	assertRowSequence(t, u, want, "union")
	// The segment-wise union is pure metadata: both inputs' segments are
	// adopted unchanged.
	if got, want := u.NumSegments(), a.NumSegments()+b.NumSegments(); got != want {
		t.Fatalf("union has %d segments, want %d (segment adoption)", got, want)
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionSegmentedStaysSegmented(t *testing.T) {
	chunks := [][][]string{
		{{"k1", "g1"}, {"k2", "g2"}},
		{{"k3", "g1"}, {"k4", "g1"}},
		{{"k5", "g2"}},
	}
	r := buildSegmentedTable(t, "R", []string{"K", "G"}, nil, chunks)
	yes, no, err := Partition(r, "G != 'g2'", "P1", "P2", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// An order-preserving filter of the input rows.
	var wantYes, wantNo [][]string
	for _, c := range chunks {
		for _, row := range c {
			if row[1] != "g2" {
				wantYes = append(wantYes, row)
			} else {
				wantNo = append(wantNo, row)
			}
		}
	}
	assertRowSequence(t, yes, wantYes, "P1")
	assertRowSequence(t, no, wantNo, "P2")
	// Each input segment with surviving rows yields one output segment.
	if yes.NumSegments() != 2 || no.NumSegments() != 2 {
		t.Fatalf("partition outputs have %d/%d segments, want 2/2", yes.NumSegments(), no.NumSegments())
	}
}

// TestQuickSegmentedEvolutionParity randomizes tables, segment splits and
// decompose/merge round trips. Unvalidated DECOMPOSE must keep the first
// row of each key, derived from the input rows; validated DECOMPOSE and
// every MERGE must reproduce the query-level outputs exactly.
func TestQuickSegmentedEvolutionParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 25; iter++ {
		nrows := 5 + rng.Intn(40)
		var rows [][]string
		for i := 0; i < nrows; i++ {
			k := fmt.Sprintf("k%03d", rng.Intn(nrows)) // duplicates likely
			rows = append(rows, []string{k, "g" + k[1:], fmt.Sprintf("v%d", rng.Intn(5))})
		}
		// Random segment split of the same row sequence.
		var chunks [][][]string
		for start := 0; start < len(rows); {
			end := start + 1 + rng.Intn(8)
			if end > len(rows) {
				end = len(rows)
			}
			chunks = append(chunks, rows[start:end])
			start = end
		}
		cols := []string{"K", "G", "V"}
		r := buildSegmentedTable(t, "R", cols, nil, chunks)
		spec := DecomposeSpec{
			OutS: "A", SColumns: []string{"K", "G"},
			OutT: "B", TColumns: []string{"K", "V"},
		}
		label := fmt.Sprintf("iter %d", iter)

		res, err := Decompose(r, spec, Options{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertRowSequence(t, res.S, project(cols, rows, spec.SColumns), label+": A")
		assertRowSequence(t, res.T, firstOccurrence(cols, rows, []string{"K"}, spec.TColumns), label+": B")
		checkMergeRoundTrip(t, res, label)

		checkMergeRoundTrip(t, checkDecompose(t, r, spec, label+" validated"), label+" validated")
	}
}

// project projects rows laid out as cols onto out, keeping every row.
func project(cols []string, rows [][]string, out []string) [][]string {
	oi := colIndexes(cols, out)
	res := make([][]string, len(rows))
	for i, r := range rows {
		res[i] = make([]string, len(oi))
		for j, c := range oi {
			res[i][j] = r[c]
		}
	}
	return res
}

// checkMergeRoundTrip merges a decomposition's outputs back and asserts
// the result equals the query-level join: exactly, in fact order, when
// one side is keyed by the data, and as a multiset otherwise.
func checkMergeRoundTrip(t *testing.T, d *DecomposeResult, label string) {
	t.Helper()
	got, err := Merge(d.S, d.T, "R2", Options{})
	if err != nil {
		t.Fatalf("%s: merge: %v", label, err)
	}
	if want, _, keyFK := wantKeyFKMerge(t, d.S, d.T, "R2"); keyFK {
		assertIdenticalRows(t, got.Table, want, label+": merged")
	} else {
		want, err := queryevolve.Merge(d.S, d.T, "R2")
		if err != nil {
			t.Fatal(err)
		}
		if g, w := mergedMultiset(t, got.Table, d.S, d.T), want.TupleMultiset(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: merged multiset differs from the query-level join", label)
		}
	}
	if err := got.Table.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

package storage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cods/internal/colstore"
	"cods/internal/evolve"
)

// buildSegmented constructs a three-segment table with overlapping
// dictionaries across segments.
func buildSegmented(t *testing.T) *colstore.Table {
	t.Helper()
	seg := func(lo, hi int) *colstore.Segment {
		var ks, vs []string
		for i := lo; i < hi; i++ {
			ks = append(ks, fmt.Sprintf("k%03d", i))
			vs = append(vs, fmt.Sprintf("v%d", i%5))
		}
		s, err := colstore.NewSegment([]*colstore.Column{
			colstore.NewColumnFromValues("K", ks),
			colstore.NewColumnFromValues("V", vs),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	tbl, err := colstore.NewSegmented("S", []string{"K", "V"},
		[]*colstore.Segment{seg(0, 40), seg(40, 47), seg(47, 50)}, []string{"K"})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestSaveLoadSegmentedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tbl := buildSegmented(t)
	if err := Save(dir, []*colstore.Table{tbl}); err != nil {
		t.Fatal(err)
	}
	// The on-disk layout must keep one directory per segment.
	for k := 0; k < 3; k++ {
		if _, err := os.Stat(filepath.Join(dir, "S", segDirName(k), "0.col")); err != nil {
			t.Fatalf("segment %d missing: %v", k, err)
		}
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("loaded %d tables", len(got))
	}
	lt := got[0]
	if lt.NumSegments() != 3 {
		t.Fatalf("segments=%d after load", lt.NumSegments())
	}
	a, _ := tbl.Rows(0, 0)
	b, _ := lt.Rows(0, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("rows differ across save/load")
	}
	if !reflect.DeepEqual(lt.Key(), []string{"K"}) {
		t.Fatalf("key lost: %v", lt.Key())
	}
	if err := lt.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadFlatFormatCompat writes a format-1 (pre-segmentation) layout by
// hand and checks Load still reads it as a single-segment table.
func TestLoadFlatFormatCompat(t *testing.T) {
	dir := t.TempDir()
	tdir := filepath.Join(dir, "F")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		t.Fatal(err)
	}
	cols := []*colstore.Column{
		colstore.NewColumnFromValues("A", []string{"x", "y", "x"}),
		colstore.NewColumnFromValues("B", []string{"1", "2", "3"}),
	}
	for i, c := range cols {
		if err := writeColumnFile(filepath.Join(tdir, fmt.Sprintf("%d.col", i)), c); err != nil {
			t.Fatal(err)
		}
	}
	cat := catalogFile{Format: formatFlat, Tables: []catalogTable{{
		Name: "F", Columns: []string{"A", "B"}, Rows: 3,
	}}}
	data, err := json.Marshal(cat)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, catalogName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	tables, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].NumSegments() != 1 || tables[0].NumRows() != 3 {
		t.Fatalf("flat load: %v", tables)
	}
	page, err := tables[0].Rows(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(page, [][]string{{"x", "3"}}) {
		t.Fatalf("row 2 = %v", page)
	}
}

func TestLoadRejectsSegmentRowMismatch(t *testing.T) {
	dir := t.TempDir()
	tbl := buildSegmented(t)
	if err := Save(dir, []*colstore.Table{tbl}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the manifest's per-segment row counts (keeping the total) —
	// Load must notice the disagreement with the segment files.
	path := filepath.Join(dir, catalogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cat catalogFile
	if err := json.Unmarshal(data, &cat); err != nil {
		t.Fatal(err)
	}
	cat.Tables[0].Segments = []uint64{39, 8, 3}
	data, err = json.Marshal(cat)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("segment row mismatch not detected")
	}
}

func TestSnapshotSegmentedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tbl := buildSegmented(t)
	published, err := SaveSnapshot(dir, []*colstore.Table{tbl}, 4)
	if err != nil || !published {
		t.Fatalf("published=%v err=%v", published, err)
	}
	tables, epoch, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 4 || len(tables) != 1 || tables[0].NumSegments() != 3 {
		t.Fatalf("epoch=%d tables=%d", epoch, len(tables))
	}
	a, _ := tbl.Rows(0, 0)
	b, _ := tables[0].Rows(0, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("rows differ across snapshot round trip")
	}
}

// TestCrashPointHook checks each barrier fires exactly once per
// checkpoint, in write order.
func TestCrashPointHook(t *testing.T) {
	dir := t.TempDir()
	var seen []string
	CrashPoint = func(p string) { seen = append(seen, p) }
	defer func() { CrashPoint = nil }()
	if _, err := SaveSnapshot(dir, []*colstore.Table{buildSegmented(t)}, 1); err != nil {
		t.Fatal(err)
	}
	want := []string{"segment-written", "manifest-written", "current-swapped"}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("crash points fired: %v, want %v", seen, want)
	}
}

// TestEvolutionOutputRoundTrip persists multi-segment evolution outputs
// through the existing format-2 manifest unchanged: a segment-wise UNION
// (segment adoption) and a segment-wise key–FK MERGE both save and load
// with their segment layout and exact row sequences intact.
func TestEvolutionOutputRoundTrip(t *testing.T) {
	dir := t.TempDir()

	mkSeg := func(rows [][]string) *colstore.Segment {
		var ks, vs []string
		for _, r := range rows {
			ks, vs = append(ks, r[0]), append(vs, r[1])
		}
		s, err := colstore.NewSegment([]*colstore.Column{
			colstore.NewColumnFromValues("K", ks),
			colstore.NewColumnFromValues("V", vs),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, err := colstore.NewSegmented("A", []string{"K", "V"}, []*colstore.Segment{
		mkSeg([][]string{{"k1", "v1"}, {"k2", "v2"}}),
		mkSeg([][]string{{"k3", "v1"}}),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := colstore.NewSegmented("B", []string{"K", "V"}, []*colstore.Segment{
		mkSeg([][]string{{"k4", "v3"}}),
		mkSeg([][]string{{"k5", "v2"}, {"k6", "v1"}}),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	union, err := evolve.Union(a, b, "U", evolve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dim, err := colstore.NewSegmented("D", []string{"V", "Label"}, []*colstore.Segment{
		func() *colstore.Segment {
			s, err := colstore.NewSegment([]*colstore.Column{
				colstore.NewColumnFromValues("V", []string{"v1", "v2"}),
				colstore.NewColumnFromValues("Label", []string{"one", "two"}),
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}(),
		func() *colstore.Segment {
			s, err := colstore.NewSegment([]*colstore.Column{
				colstore.NewColumnFromValues("V", []string{"v3"}),
				colstore.NewColumnFromValues("Label", []string{"three"}),
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}(),
	}, []string{"V"})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := evolve.MergeKeyFK(union, dim, "M", evolve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if union.NumSegments() < 2 || merged.Table.NumSegments() < 2 {
		t.Fatalf("evolution outputs not multi-segment: union=%d merged=%d",
			union.NumSegments(), merged.Table.NumSegments())
	}

	if err := Save(dir, []*colstore.Table{union, merged.Table}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 {
		t.Fatalf("loaded %d tables", len(loaded))
	}
	for i, want := range []*colstore.Table{union, merged.Table} {
		got := loaded[i]
		if got.NumSegments() != want.NumSegments() {
			t.Fatalf("%s: segments=%d after load, want %d", want.Name(), got.NumSegments(), want.NumSegments())
		}
		gr, _ := got.Rows(0, 0)
		wr, _ := want.Rows(0, 0)
		if !reflect.DeepEqual(gr, wr) {
			t.Fatalf("%s: rows differ across round trip", want.Name())
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

package colstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// gatherRows generates rows whose columns exercise every WAH word shape
// the gather's probe branches on: "run" holds long sorted runs (one
// fills), "few" a handful of values in random order (literal words), "key"
// a value per row (zero fills around one set bit) and "mid" a hundred
// values (zero fills and literals mixed).
func gatherRows(rng *rand.Rand, n int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{
			fmt.Sprintf("r%d", i/97),
			fmt.Sprintf("f%d", rng.Intn(3)),
			fmt.Sprintf("k%d", i),
			fmt.Sprintf("m%d", rng.Intn(100)),
		}
	}
	return rows
}

// gatherTable builds a table from rows split into segments of the given
// sizes (the last takes the rest), each through its own builder.
func gatherTable(t *testing.T, rows [][]string, sizes []int) *Table {
	t.Helper()
	schema := []string{"run", "few", "key", "mid"}
	var segs []*Segment
	for start := 0; start < len(rows); {
		end := len(rows)
		if len(segs) < len(sizes) {
			end = min(start+sizes[len(segs)], len(rows))
		}
		tb, err := NewTableBuilder("g", schema, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows[start:end] {
			if err := tb.AppendRow(r); err != nil {
				t.Fatal(err)
			}
		}
		part, err := tb.Finish()
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, part.Segments()...)
		start = end
	}
	tab, err := NewSegmented("g", schema, segs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestGatherMatchesBuilderInput checks Table.Gather, Segment.Gather and
// Rows against the rows the builders were given, never against another
// read path: multi-segment tables whose segment lengths leave partial
// active words (1, 31, 69, 500 rows and the rest), under empty, single,
// all, random and contiguous-page selections, and repeated column
// indices.
func TestGatherMatchesBuilderInput(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		n := 700 + rng.Intn(300)
		rows := gatherRows(rng, n)
		tab := gatherTable(t, rows, []int{1, 31, 69, 500})
		if tab.NumSegments() != 5 {
			t.Fatalf("seed %d: %d segments, want 5", seed, tab.NumSegments())
		}
		if err := tab.Validate(); err != nil {
			t.Fatal(err)
		}

		var random []uint64
		for p := 0; p < n; p++ {
			if rng.Intn(7) == 0 {
				random = append(random, uint64(p))
			}
		}
		page := make([]uint64, 150)
		for i := range page {
			page[i] = uint64(20 + i) // crosses the 1/31/69-row boundaries
		}
		all := make([]uint64, n)
		for i := range all {
			all[i] = uint64(i)
		}
		selections := map[string][]uint64{
			"empty":  {},
			"one":    {uint64(rng.Intn(n))},
			"first":  {0},
			"last":   {uint64(n - 1)},
			"all":    all,
			"random": random,
			"page":   page,
		}
		for name, positions := range selections {
			got := tab.Gather(positions)
			if len(got) != len(positions) {
				t.Fatalf("seed %d %s: %d rows, want %d", seed, name, len(got), len(positions))
			}
			for i, p := range positions {
				if !reflect.DeepEqual(got[i], rows[p]) {
					t.Fatalf("seed %d %s: row at %d = %v, want %v", seed, name, p, got[i], rows[p])
				}
			}
		}

		// Pages through Rows, which gathers segment by segment.
		for _, pg := range [][2]uint64{{0, 0}, {0, 1}, {30, 2}, {31, 70}, {599, 1000}, {uint64(n), 5}} {
			got, err := tab.Rows(pg[0], pg[1])
			if err != nil {
				t.Fatal(err)
			}
			end := uint64(n)
			if pg[1] > 0 {
				end = min(end, pg[0]+pg[1])
			}
			if want := rows[pg[0]:end]; !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Rows(%d, %d) = %d rows differing from the input", seed, pg[0], pg[1], len(got))
			}
		}

		// Segment-local gathers with a repeated, reordered projection.
		cols := []int{2, 0, 2, 3}
		var off uint64
		for si, s := range tab.Segments() {
			var local []uint64
			for p := uint64(0); p < s.NumRows(); p += uint64(1 + rng.Intn(40)) {
				local = append(local, p)
			}
			got := s.Gather(local, cols)
			for i, p := range local {
				src := rows[off+p]
				want := []string{src[2], src[0], src[2], src[3]}
				if !reflect.DeepEqual(got[i], want) {
					t.Fatalf("seed %d segment %d: row at %d = %v, want %v", seed, si, p, got[i], want)
				}
			}
			off += s.NumRows()
		}
	}
}

// TestGatherRowsAreOwned checks that gathered rows are independent: a
// caller writing into or appending to one row changes no other row and no
// later read.
func TestGatherRowsAreOwned(t *testing.T) {
	tab := figure1R(t)
	got := tab.Gather([]uint64{0, 1, 2})
	got[0][1] = "changed"
	got[1] = append(got[1], "extra")
	if got[2][0] != "Roberts" || len(got[2]) != 3 {
		t.Fatalf("writes to rows 0 and 1 reached row 2: %v", got[2])
	}
	again := tab.Gather([]uint64{0, 1})
	if !reflect.DeepEqual(again, figure1Rows[:2]) {
		t.Fatalf("re-read after caller writes = %v, want %v", again, figure1Rows[:2])
	}
}

package wah

import (
	"reflect"
	"testing"
)

// The fuzz targets decode each input into bitmaps via a run-length
// interpretation of the bytes, so even random inputs produce the mix of
// fill words, literal words and partial active words that the WAH kernels
// branch on. Each target checks the kernel against a plain []bool
// reference model.

// bitmapFromBytes decodes data into a bitmap plus its []bool reference:
// each byte contributes a run of (b&0x3f)+1 bits of value b>>7; bit 6
// selects bit-at-a-time appends vs one AppendRun call, covering both
// construction paths.
func bitmapFromBytes(data []byte) (*Bitmap, []bool) {
	bm := New()
	var ref []bool
	for _, by := range data {
		bit := uint32(by >> 7)
		n := uint64(by&0x3f) + 1
		if by&0x40 != 0 {
			bm.AppendRun(bit, n)
		} else {
			for range n {
				bm.AppendBit(bit)
			}
		}
		for range n {
			ref = append(ref, bit == 1)
		}
	}
	return bm, ref
}

// splitInput cuts the fuzz payload into two bitmap encodings.
func splitInput(data []byte) (a, b []byte) {
	if len(data) == 0 {
		return nil, nil
	}
	cut := int(data[0]) % len(data)
	return data[1 : 1+cut], data[1+cut:]
}

func boolBinop(x, y []bool, f func(a, b bool) bool) []bool {
	n := max(len(x), len(y))
	out := make([]bool, n)
	for i := range out {
		var a, b bool
		if i < len(x) {
			a = x[i]
		}
		if i < len(y) {
			b = y[i]
		}
		out[i] = f(a, b)
	}
	return out
}

func checkAgainstRef(t *testing.T, name string, got *Bitmap, want []bool) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: invalid result: %v", name, err)
	}
	if got.Len() != uint64(len(want)) {
		t.Fatalf("%s: len=%d want %d", name, got.Len(), len(want))
	}
	count := uint64(0)
	for i, w := range want {
		if got.Get(uint64(i)) != w {
			t.Fatalf("%s: bit %d = %v want %v", name, i, got.Get(uint64(i)), w)
		}
		if w {
			count++
		}
	}
	if got.Count() != count {
		t.Fatalf("%s: Count=%d want %d", name, got.Count(), count)
	}
}

// FuzzBinop exercises the shared fill/literal-merging binop kernel behind
// And/Or/Xor/AndNot against the bool-slice model.
func FuzzBinop(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0xff, 0x01, 0x80, 0x3f})
	f.Add([]byte{5, 0xc0, 0xc0, 0x40, 0x40, 0x9f, 0x1f, 0xff, 0x00})
	f.Add([]byte{1, 0xfe, 0xfe, 0xfe, 0x7e, 0x7e})
	f.Fuzz(func(t *testing.T, data []byte) {
		da, db := splitInput(data)
		x, rx := bitmapFromBytes(da)
		y, ry := bitmapFromBytes(db)
		checkAgainstRef(t, "and", And(x, y), boolBinop(rx, ry, func(a, b bool) bool { return a && b }))
		checkAgainstRef(t, "or", Or(x, y), boolBinop(rx, ry, func(a, b bool) bool { return a || b }))
		checkAgainstRef(t, "xor", Xor(x, y), boolBinop(rx, ry, func(a, b bool) bool { return a != b }))
		checkAgainstRef(t, "andnot", AndNot(x, y), boolBinop(rx, ry, func(a, b bool) bool { return a && !b }))
	})
}

// FuzzOrAllP checks the parallel multi-way OR against both the sequential
// OrAll and the reference model, across worker counts.
func FuzzOrAllP(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 2, 0x80, 0x40, 1, 0xc5})
	f.Add([]byte{7, 7, 7, 7, 0x87, 0x87, 0x47, 0x47})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Chop the payload into up to 8 operand encodings.
		var ms []*Bitmap
		var want []bool
		for len(data) > 0 && len(ms) < 8 {
			n := int(data[0])%16 + 1
			data = data[1:]
			if n > len(data) {
				n = len(data)
			}
			bm, ref := bitmapFromBytes(data[:n])
			data = data[n:]
			ms = append(ms, bm)
			want = boolBinop(want, ref, func(a, b bool) bool { return a || b })
		}
		seq := OrAll(ms)
		checkAgainstRef(t, "orall", seq, want)
		for _, workers := range []int{1, 2, 3, 8} {
			par := OrAllP(ms, workers)
			if !Equal(seq, par) {
				t.Fatalf("OrAllP(%d workers) != OrAll", workers)
			}
		}
	})
}

// FuzzRunsDecode drives the run-skipping decoder paths: Runs must tile
// [0, Len) with alternating runs matching the reference, the derived
// accessors (Ones, AppendPositionsTo, Count, Slice, Concat round trip)
// must agree, and the galloping Probe and FilterPositions must read the
// reference's bits at increasing positions derived from the input.
func FuzzRunsDecode(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0xff, 0x40, 0x80, 0x00}, uint16(3))
	f.Add([]byte{0x7f, 0x7f, 0xc3, 0x03, 0x83}, uint16(40))
	// Probe gallops over two zero fills onto the only set bits.
	f.Add([]byte("07\xff"), uint16(73))
	f.Fuzz(func(t *testing.T, data []byte, cut16 uint16) {
		bm, ref := bitmapFromBytes(data)
		if err := bm.Validate(); err != nil {
			t.Fatalf("construction: %v", err)
		}
		// Runs yields exactly the maximal 1-runs, in ascending order.
		var pos, covered uint64
		bm.Runs(func(start, length uint64) bool {
			if start < pos || length == 0 {
				t.Fatalf("run (%d,%d) out of order at %d", start, length, pos)
			}
			if start > 0 && ref[start-1] {
				t.Fatalf("run (%d,%d) is not left-maximal", start, length)
			}
			end := start + length
			if end > uint64(len(ref)) {
				t.Fatalf("run (%d,%d) exceeds length %d", start, length, len(ref))
			}
			for i := start; i < end; i++ {
				if !ref[i] {
					t.Fatalf("run covers zero bit %d", i)
				}
			}
			if end < uint64(len(ref)) && ref[end] {
				t.Fatalf("run (%d,%d) is not right-maximal", start, length)
			}
			pos = end
			covered += length
			return true
		})
		if covered != bm.Count() {
			t.Fatalf("runs cover %d bits, Count=%d", covered, bm.Count())
		}
		// Ones agrees with the reference.
		idx := 0
		var onesRef []uint64
		for i, v := range ref {
			if v {
				onesRef = append(onesRef, uint64(i))
			}
		}
		bm.Ones(func(p uint64) bool {
			if idx >= len(onesRef) || onesRef[idx] != p {
				t.Fatalf("Ones yields %d at index %d", p, idx)
			}
			idx++
			return true
		})
		if idx != len(onesRef) {
			t.Fatalf("Ones yielded %d positions, want %d", idx, len(onesRef))
		}
		if got := bm.AppendPositionsTo(nil); len(got) != len(onesRef) || (len(got) > 0 && !reflect.DeepEqual(got, onesRef)) {
			t.Fatalf("AppendPositionsTo = %v, want %v", got, onesRef)
		}
		// Slice + Concat reproduce the original at an arbitrary cut.
		var cut uint64
		if bm.Len() > 0 {
			cut = uint64(cut16) % (bm.Len() + 1)
		}
		left, right := bm.Slice(0, cut), bm.Slice(cut, bm.Len())
		joined := left.Clone()
		joined.Concat(right)
		joined.Extend(bm.Len())
		if !Equal(joined, bm) {
			t.Fatalf("slice at %d + concat != original", cut)
		}
		// Probe reads a contiguous window arithmetically and any other
		// list from memory; check both shapes.
		window := make([]uint64, int(cut16>>8)%70+1)
		for i := range window {
			window[i] = cut + uint64(i)
		}
		for _, positions := range [][]uint64{positionsFromBytes(data, cut16, uint64(len(ref))), window} {
			want := make([]bool, len(positions))
			var wantHits []int
			for i, p := range positions {
				if p < uint64(len(ref)) && ref[p] {
					want[i] = true
					wantHits = append(wantHits, i)
				}
			}
			var hits []int
			bm.Probe(positions, func(i int) { hits = append(hits, i) })
			if !reflect.DeepEqual(hits, wantHits) {
				t.Fatalf("Probe at %v: hits %v, want %v", positions, hits, wantHits)
			}
			checkAgainstRef(t, "filterpositions", FilterPositions(bm, positions), want)
		}
	})
}

// positionsFromBytes derives a strictly increasing position list from a
// fuzz input: each byte picks a step among moves inside one 31-bit group
// (contiguous runs included) and jumps across whole groups, starting at
// an offset taken from seed and running up to a group past n, so
// positions beyond the bitmap's length are covered too.
func positionsFromBytes(data []byte, seed uint16, n uint64) []uint64 {
	steps := [...]uint64{1, 1, 1, 2, 3, 7, 31, 40, 93, 250}
	var out []uint64
	p := uint64(seed % 97)
	for i := 0; p < n+GroupBits && len(out) < 4*len(data)+8; i++ {
		out = append(out, p)
		var by byte
		if len(data) > 0 {
			by = data[i%len(data)] ^ byte(i/len(data))
		}
		p += steps[int(by^byte(seed>>8))%len(steps)]
	}
	return out
}

package wah

import (
	"math/bits"

	"cods/internal/par"
)

// decoder walks a compressed bitmap as a stream of 31-bit groups. Once the
// encoded words and the active word are exhausted it yields zero fills
// forever, which gives all binary operations implicit zero-padding
// semantics for bitmaps of unequal length.
type decoder struct {
	words      []uint32
	i          int
	active     uint32
	nactive    uint32
	usedActive bool

	isFill bool
	val    uint32 // 0 or allOnes for fills, the word itself for literals
	n      uint64 // groups remaining in the current run
}

func newDecoder(b *Bitmap) *decoder {
	return &decoder{words: b.words, active: b.active, nactive: b.nactive}
}

func (d *decoder) load() {
	if d.n > 0 {
		return
	}
	if d.i < len(d.words) {
		w := d.words[d.i]
		d.i++
		if w&fillFlag != 0 {
			d.isFill = true
			d.n = uint64(w & fillCountMask)
			if w&fillValueBit != 0 {
				d.val = allOnes
			} else {
				d.val = 0
			}
		} else {
			d.isFill = false
			d.val = w
			d.n = 1
		}
		return
	}
	if !d.usedActive && d.nactive > 0 {
		d.usedActive = true
		d.isFill = false
		d.val = d.active
		d.n = 1
		return
	}
	// Implicit zero padding beyond the end.
	d.isFill = true
	d.val = 0
	d.n = 1 << 62
}

// peek returns the value of the current group and how many identical
// groups are available (1 for literals).
func (d *decoder) peek() (val uint32, n uint64) {
	d.load()
	return d.val, d.n
}

// consume advances past n groups, which must not exceed the run length
// returned by peek.
func (d *decoder) consume(n uint64) { d.n -= n }

// skip advances past n groups regardless of run boundaries.
func (d *decoder) skip(n uint64) {
	for n > 0 {
		d.load()
		take := min(n, d.n)
		d.n -= take
		n -= take
	}
}

// absorbing reports whether an operand group value v forces the operator's
// result regardless of the other operand: f(v, 0) and f(v, allOnes) agree and
// are a pure fill value. Zero fills absorb under AND, one fills under OR.
func absorbing(r0, r1 uint32) (bit uint32, ok bool) {
	r0 &= allOnes
	r1 &= allOnes
	if r0 == r1 && (r0 == 0 || r0 == allOnes) {
		return r0 & 1, true
	}
	return 0, false
}

func binop(x, y *Bitmap, f func(a, b uint32) uint32) *Bitmap {
	n := max(x.nbits, y.nbits)
	out := New()
	dx, dy := newDecoder(x), newDecoder(y)
	remaining := n / GroupBits
	for remaining > 0 {
		vx, nx := dx.peek()
		vy, ny := dy.peek()
		// Run-vs-run fast path: when one operand sits in a fill whose value
		// determines the result on its own (zero fill under AND, ones fill
		// under OR), emit a single output fill spanning the whole run and
		// skip the other operand across its run boundaries, instead of
		// combining word at a time.
		if dx.isFill {
			if bit, ok := absorbing(f(vx, 0), f(vx, allOnes)); ok {
				take := min(nx, remaining)
				out.appendFillGroups(bit, take)
				dx.consume(take)
				dy.skip(take)
				remaining -= take
				continue
			}
		}
		if dy.isFill {
			if bit, ok := absorbing(f(0, vy), f(allOnes, vy)); ok {
				take := min(ny, remaining)
				out.appendFillGroups(bit, take)
				dy.consume(take)
				dx.skip(take)
				remaining -= take
				continue
			}
		}
		take := min(nx, ny, remaining)
		v := f(vx, vy) & allOnes
		if dx.isFill && dy.isFill {
			switch v {
			case 0:
				out.appendFillGroups(0, take)
			case allOnes:
				out.appendFillGroups(1, take)
			default:
				// Cannot happen: fills only combine to fills.
				for i := uint64(0); i < take; i++ {
					out.appendGroupWord(v)
				}
			}
		} else {
			take = 1
			out.appendGroupWord(v)
		}
		dx.consume(take)
		dy.consume(take)
		remaining -= take
	}
	if rem := n % GroupBits; rem > 0 {
		vx, _ := dx.peek()
		vy, _ := dy.peek()
		mask := (uint32(1) << rem) - 1
		out.active = f(vx, vy) & mask
		out.nactive = uint32(rem)
		out.nbits += uint64(rem)
	}
	return out
}

// Or returns the bitwise OR of the two bitmaps. If lengths differ the
// shorter operand is zero-padded; the result has the longer length.
func Or(x, y *Bitmap) *Bitmap { return binop(x, y, func(a, b uint32) uint32 { return a | b }) }

// And returns the bitwise AND of the two bitmaps (zero-padding the shorter
// operand).
func And(x, y *Bitmap) *Bitmap { return binop(x, y, func(a, b uint32) uint32 { return a & b }) }

// Xor returns the bitwise XOR of the two bitmaps.
func Xor(x, y *Bitmap) *Bitmap { return binop(x, y, func(a, b uint32) uint32 { return a ^ b }) }

// AndNot returns x AND NOT y.
func AndNot(x, y *Bitmap) *Bitmap { return binop(x, y, func(a, b uint32) uint32 { return a &^ b }) }

// Not returns the complement of b within its length.
func (b *Bitmap) Not() *Bitmap {
	out := New()
	out.words = make([]uint32, 0, len(b.words))
	for _, w := range b.words {
		if w&fillFlag != 0 {
			out.words = append(out.words, w^fillValueBit)
			out.nbits += uint64(w&fillCountMask) * GroupBits
		} else {
			out.appendGroupWordRaw(^w & allOnes)
		}
	}
	if b.nactive > 0 {
		out.active = ^b.active & ((uint32(1) << b.nactive) - 1)
		out.nactive = b.nactive
		out.nbits += uint64(b.nactive)
	}
	return out
}

// appendGroupWordRaw appends a literal group during Not without the
// fill-conversion bookkeeping of appendGroupWord (complemented literals
// are never all-zero or all-one: those would have been fills).
func (b *Bitmap) appendGroupWordRaw(w uint32) {
	b.words = append(b.words, w)
	b.nbits += GroupBits
}

// OrAll returns the OR of all bitmaps using balanced pairwise merging,
// which keeps intermediate results small when many sparse vectors are
// combined (key–foreign-key mergence, paper §2.5.1).
func OrAll(ms []*Bitmap) *Bitmap {
	switch len(ms) {
	case 0:
		return New()
	case 1:
		return ms[0].Clone()
	}
	work := make([]*Bitmap, len(ms))
	copy(work, ms)
	for len(work) > 1 {
		var next []*Bitmap
		for i := 0; i+1 < len(work); i += 2 {
			next = append(next, Or(work[i], work[i+1]))
		}
		if len(work)%2 == 1 {
			next = append(next, work[len(work)-1])
		}
		work = next
	}
	return work[0]
}

// OrAllP is OrAll with tree-structured parallelism: the vector list is split
// into contiguous chunks, each chunk is OR-combined by one worker with
// balanced pairwise merging, and the at-most-`parallelism` chunk partials are
// merged in chunk order. OR is associative, so the result is bit-identical to
// OrAll at any parallelism. parallelism <= 0 means GOMAXPROCS.
func OrAllP(ms []*Bitmap, parallelism int) *Bitmap {
	// Below two vectors per worker the spawn overhead cannot pay off.
	workers := min(par.Workers(parallelism), len(ms)/2)
	if workers <= 1 {
		return OrAll(ms)
	}
	partials := par.Map(workers, workers, func(w int) *Bitmap {
		return OrAll(ms[w*len(ms)/workers : (w+1)*len(ms)/workers])
	})
	return OrAll(partials)
}

// Filter implements the paper's "bitmap filtering" primitive (§2.4 step
// 2): it returns the bitmap consisting of b's bits at the positions where
// mask is set, renumbered consecutively. The result length equals
// mask.Count(). Zero-fill regions of the mask skip whole regions of b on
// the compressed form, so sparse masks (few distinct values in many rows)
// filter in time proportional to the compressed size, not the row count.
//
// b is implicitly zero-padded to the mask's length when shorter.
func Filter(b, mask *Bitmap) *Bitmap {
	out := New()
	db, dm := newDecoder(b), newDecoder(mask)
	remaining := (mask.nbits + GroupBits - 1) / GroupBits
	tailBits := mask.nbits % GroupBits
	for remaining > 0 {
		mv, mn := dm.peek()
		bv, bn := db.peek()
		isLastGroup := remaining == 1 && tailBits > 0
		switch {
		case dm.isFill && mv == 0:
			take := min(mn, bn, remaining)
			dm.consume(take)
			db.skip(take)
			remaining -= take
		case dm.isFill && mv == allOnes && !isLastGroup:
			if db.isFill {
				take := min(mn, bn, remaining)
				out.AppendRun(bv&1, take*GroupBits)
				dm.consume(take)
				db.consume(take)
				remaining -= take
			} else {
				out.appendBits(bv, GroupBits)
				dm.consume(1)
				db.consume(1)
				remaining--
			}
		default:
			// Mask literal (or the final partial group): select bits one
			// by one.
			m := mv
			if isLastGroup {
				m &= (uint32(1) << tailBits) - 1
			}
			w := bv
			for m != 0 {
				o := uint32(bits.TrailingZeros32(m))
				out.AppendBit((w >> o) & 1)
				m &= m - 1
			}
			dm.consume(1)
			db.consume(1)
			remaining--
		}
	}
	return out
}

// FilterPositions is the position-list form of bitmap filtering (§2.4:
// "we shrink their bitmap in R by only taking the bits specified in the
// position list"): it returns a bitmap of length len(positions) whose i-th
// bit is b's bit at positions[i]. positions must be strictly increasing.
// It is Probe with the hits appended, so its cost is Probe's.
func FilterPositions(b *Bitmap, positions []uint64) *Bitmap {
	out := New()
	b.Probe(positions, func(i int) { out.Add(uint64(i)) })
	out.Extend(uint64(len(positions)))
	return out
}

// Probe calls hit(i), in increasing i, for every index i whose position
// positions[i] is set in b; positions at or beyond Len read as zero.
// positions must be strictly increasing. The position list is galloped
// over zero fills and toward the next set bit of a literal, so the cost
// is O(compressed words + hits) up to a logarithmic factor per skip, not
// O(len(positions)) — what lets a row gather probe every value bitmap of
// a column at a handful of positions.
func (b *Bitmap) Probe(positions []uint64, hit func(i int)) {
	if len(positions) == 0 {
		return
	}
	c := newCursor(positions)
	lo := 0
	var base uint64
	for _, w := range b.words {
		if lo = c.seek(lo, base); lo == c.n {
			return
		}
		if w&fillFlag == 0 {
			lo = c.probeLiteral(lo, base, w, hit)
			base += GroupBits
			continue
		}
		end := base + uint64(w&fillCountMask)*GroupBits
		if w&fillValueBit != 0 {
			for ; lo < c.n && c.at(lo) < end; lo++ {
				hit(lo)
			}
		}
		base = end
	}
	if b.nactive > 0 {
		// Bits of the active word above nactive are zero, so positions
		// past Len never hit.
		c.probeLiteral(c.seek(lo, base), base, b.active, hit)
	}
}

// cursor reads a strictly increasing position list for Probe. A list
// that is one contiguous run (a page, a full scan) is read by arithmetic
// instead of from memory: a probe jumps around the list once per set bit,
// and on a long list every such jump would otherwise be a cache miss.
type cursor struct {
	positions []uint64
	n         int
	first     uint64
	run       bool // positions[i] == first+i for every i
}

func newCursor(positions []uint64) cursor {
	n := len(positions)
	return cursor{positions: positions, n: n, first: positions[0], run: positions[n-1]-positions[0] == uint64(n-1)}
}

func (c *cursor) at(i int) uint64 {
	if c.run {
		return c.first + uint64(i)
	}
	return c.positions[i]
}

// probeLiteral reports the positions from lo on that fall on a set bit of
// the group w starting at bit base, and returns the index of the first
// position it did not consume. c.at(lo) >= base must hold. Each step
// either reports a hit or jumps to the next set bit, so a literal costs
// O(min(set bits, positions in the group)) seeks plus its hits.
func (c *cursor) probeLiteral(lo int, base uint64, w uint32, hit func(i int)) int {
	for w != 0 && lo < c.n && c.at(lo) < base+GroupBits {
		off := uint32(c.at(lo) - base)
		w &^= uint32(1)<<off - 1
		switch next := uint32(bits.TrailingZeros32(w)); {
		case w == 0:
		case next == off:
			hit(lo)
			lo++
		default:
			lo = c.seek(lo, base+uint64(next))
		}
	}
	return lo
}

// seek returns the smallest index i >= lo with c.at(i) >= target, or c.n
// when there is none, galloping (doubling steps, then a binary search)
// so that skipping k positions costs O(log k).
func (c *cursor) seek(lo int, target uint64) int {
	if lo >= c.n || c.at(lo) >= target {
		return lo
	}
	// Strictly increasing positions put the answer at most
	// target-c.at(lo) places ahead, and exactly there on a run.
	ub := c.n
	if d := target - c.at(lo); d < uint64(c.n-lo) {
		ub = lo + int(d)
	}
	if c.run || c.at(ub-1) < target {
		return ub
	}
	// Invariant: c.at(lo) < target, and hi is ub or c.at(hi) >= target.
	step := 1
	for lo+step < ub && c.at(lo+step) < target {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, ub)
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if c.at(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Concat appends the entire contents of other after the current end of b,
// in place. This is the storage-level operation behind UNION TABLES: the
// second table's bitmap vectors are appended at a row offset without
// decompression.
func (b *Bitmap) Concat(other *Bitmap) {
	if b.nactive == 0 {
		// Word-aligned fast path: splice the word stream.
		for _, w := range other.words {
			if w&fillFlag != 0 {
				bit := uint32(0)
				if w&fillValueBit != 0 {
					bit = 1
				}
				b.appendFillGroups(bit, uint64(w&fillCountMask))
			} else {
				b.appendGroupWord(w)
			}
		}
		if other.nactive > 0 {
			b.active = other.active
			b.nactive = other.nactive
			b.nbits += uint64(other.nactive)
		}
		return
	}
	d := newDecoder(other)
	remaining := other.nbits / GroupBits
	for remaining > 0 {
		v, n := d.peek()
		if d.isFill {
			take := min(n, remaining)
			b.AppendRun(v&1, take*GroupBits)
			d.consume(take)
			remaining -= take
		} else {
			b.appendBits(v, GroupBits)
			d.consume(1)
			remaining--
		}
	}
	if rem := other.nbits % GroupBits; rem > 0 {
		v, _ := d.peek()
		b.appendBits(v&((uint32(1)<<rem)-1), uint32(rem))
	}
}

// Ones calls yield for each set bit position in ascending order, stopping
// early if yield returns false. With Go 1.23 range-over-func this supports
// `for p := range bm.Ones`.
func (b *Bitmap) Ones(yield func(uint64) bool) {
	var base uint64
	for _, w := range b.words {
		if w&fillFlag != 0 {
			n := uint64(w&fillCountMask) * GroupBits
			if w&fillValueBit != 0 {
				for p := base; p < base+n; p++ {
					if !yield(p) {
						return
					}
				}
			}
			base += n
		} else {
			for m := w; m != 0; m &= m - 1 {
				if !yield(base + uint64(bits.TrailingZeros32(m))) {
					return
				}
			}
			base += GroupBits
		}
	}
	for m := b.active; m != 0; m &= m - 1 {
		if !yield(base + uint64(bits.TrailingZeros32(m))) {
			return
		}
	}
}

// Runs calls yield once per maximal run of consecutive set bits with its
// start position and length, in ascending order.
func (b *Bitmap) Runs(yield func(start, length uint64) bool) {
	var base, runStart, runLen uint64
	inRun := false
	flush := func() bool {
		if inRun {
			inRun = false
			return yield(runStart, runLen)
		}
		return true
	}
	emitGroup := func(w uint32, nbits uint64) bool {
		for i := uint64(0); i < nbits; i++ {
			if w&(1<<i) != 0 {
				if !inRun {
					inRun, runStart, runLen = true, base+i, 1
				} else {
					runLen++
				}
			} else if !flush() {
				return false
			}
		}
		base += nbits
		return true
	}
	for _, w := range b.words {
		if w&fillFlag != 0 {
			n := uint64(w&fillCountMask) * GroupBits
			if w&fillValueBit != 0 {
				if !inRun {
					inRun, runStart, runLen = true, base, n
				} else {
					runLen += n
				}
			} else if !flush() {
				return
			}
			base += n
		} else {
			if !emitGroup(w, GroupBits) {
				return
			}
		}
	}
	if b.nactive > 0 && !emitGroup(b.active, uint64(b.nactive)) {
		return
	}
	flush()
}

// Slice returns a new bitmap of length end-start whose bit i is b's bit
// start+i. end is clamped to Len(); start >= end yields an empty bitmap.
// This is Concat's inverse at the storage level: it re-bases a vertical
// stripe of a bitmap vector so a table can be split into row segments
// without decompressing to positions. Cost is O(set runs overlapping the
// window) plus the compressed output size.
func (b *Bitmap) Slice(start, end uint64) *Bitmap {
	out := New()
	if end > b.nbits {
		end = b.nbits
	}
	if start >= end {
		return out
	}
	b.Runs(func(rs, rl uint64) bool {
		re := rs + rl
		if re <= start {
			return true
		}
		if rs >= end {
			return false
		}
		lo, hi := max(rs, start), min(re, end)
		out.Extend(lo - start)
		out.AppendRun(1, hi-lo)
		return re < end
	})
	out.Extend(end - start)
	return out
}

// AppendPositionsTo appends all set bit positions to dst and returns the
// extended slice. It walks the words itself rather than through Ones, so
// a one fill (a whole-table selection) appends without a call per bit.
func (b *Bitmap) AppendPositionsTo(dst []uint64) []uint64 {
	var base uint64
	for _, w := range b.words {
		n := uint64(GroupBits)
		switch {
		case w&fillFlag == 0:
			dst = appendLiteralPositions(dst, base, w)
		case w&fillValueBit != 0:
			n = uint64(w&fillCountMask) * GroupBits
			for p := base; p < base+n; p++ {
				dst = append(dst, p)
			}
		default:
			n = uint64(w&fillCountMask) * GroupBits
		}
		base += n
	}
	return appendLiteralPositions(dst, base, b.active)
}

func appendLiteralPositions(dst []uint64, base uint64, w uint32) []uint64 {
	for ; w != 0; w &= w - 1 {
		dst = append(dst, base+uint64(bits.TrailingZeros32(w)))
	}
	return dst
}

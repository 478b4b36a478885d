package main

import (
	"fmt"
	"math/rand"
)

// tableSize is the shape of one generated table R(A, B, C): rows tuples
// over keys distinct values of A, drawn zipfian when zipf > 1 and
// uniformly otherwise. C depends functionally on A (A→C), with keys/10+1
// distinct values; B is a per-row attribute with rows/10+1 distinct
// values. This is the synthetic shape of the paper's evaluation (§2.6).
type tableSize struct {
	rows, keys int
	zipf       float64
}

func (s tableSize) scaled(f float64) tableSize {
	s.rows = max(int(float64(s.rows)*f), 200)
	s.keys = max(int(float64(s.keys)*f), 20)
	return s
}

func (s tableSize) String() string {
	dist := "uniform"
	if s.zipf > 1 {
		dist = fmt.Sprintf("zipf %.1f", s.zipf)
	}
	return fmt.Sprintf("%d rows, %d keys, %s", s.rows, s.keys, dist)
}

// columns is R's schema.
var columns = []string{"A", "B", "C"}

// dataset is one generated table plus the value pools it was drawn
// from. The engine only ever receives rows (or statements built from the
// pools); every oracle is derived from these fields.
type dataset struct {
	size      tableSize
	keys      []string // A values, "k0000042"
	bs        []string // B values, "b0000042"
	cs        []string // C values, "c0000042"
	cOf       []int    // key index -> C index: the FD A→C
	rows      [][]string
	rowsOfKey [][]int32 // key index -> row indices
	rowsOfC   [][]int32 // C index -> row indices
	userBytes uint64    // CSV bytes of all rows, header included
	allFP     fingerprint
}

// generate draws a dataset reproducibly from seed.
func generate(size tableSize, seed int64) *dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{
		size: size,
		keys: pool("k", size.keys),
		bs:   pool("b", size.rows/10+1),
		cs:   pool("c", size.keys/10+1),
		cOf:  make([]int, size.keys),
	}
	for i := range d.cOf {
		d.cOf[i] = rng.Intn(len(d.cs))
	}
	var zipf *rand.Zipf
	if size.zipf > 1 {
		zipf = rand.NewZipf(rng, size.zipf, 1, uint64(size.keys-1))
	}
	d.rows = make([][]string, size.rows)
	d.rowsOfKey = make([][]int32, size.keys)
	d.rowsOfC = make([][]int32, len(d.cs))
	d.userBytes = csvBytes(columns)
	backing := make([]string, 3*size.rows)
	for i := range d.rows {
		var k int
		if zipf != nil {
			k = int(zipf.Uint64())
		} else {
			k = rng.Intn(size.keys)
		}
		row := backing[3*i : 3*i+3 : 3*i+3]
		row[0], row[1], row[2] = d.keys[k], d.bs[rng.Intn(len(d.bs))], d.cs[d.cOf[k]]
		d.rows[i] = row
		d.rowsOfKey[k] = append(d.rowsOfKey[k], int32(i))
		d.rowsOfC[d.cOf[k]] = append(d.rowsOfC[d.cOf[k]], int32(i))
		d.userBytes += csvBytes(row)
		d.allFP.add(row)
	}
	return d
}

func pool(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%07d", prefix, i)
	}
	return out
}

// csvBytes is the size of one row written as a CSV line.
func csvBytes(row []string) uint64 {
	n := uint64(len(row)) // separators plus the newline
	for _, v := range row {
		n += uint64(len(v))
	}
	return n
}

// fingerprint is an order-independent digest of a row multiset: the row
// count plus the wrapping sum of a 64-bit hash of each row. A dropped,
// duplicated or altered row changes it.
type fingerprint struct {
	n   uint64
	sum uint64
}

func (f *fingerprint) add(row []string) {
	f.n++
	f.sum += rowHash(row)
}

func (f *fingerprint) remove(row []string) {
	f.n--
	f.sum -= rowHash(row)
}

func (f fingerprint) String() string { return fmt.Sprintf("%d rows/%016x", f.n, f.sum) }

func fingerprintOf(rows [][]string) fingerprint {
	var f fingerprint
	for _, r := range rows {
		f.add(r)
	}
	return f
}

func rowHash(row []string) uint64 {
	// FNV-1a over the fields, each followed by a 0 separator.
	x := uint64(14695981039346656037)
	for _, v := range row {
		for i := 0; i < len(v); i++ {
			x = (x ^ uint64(v[i])) * 1099511628211
		}
		x *= 1099511628211
	}
	// splitmix64 finalizer: spreads FNV's weakly mixed bits so the
	// wrapping sum does not cancel structured differences.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyFP is the fingerprint of the rows holding key index k.
func (d *dataset) keyFP(k int) fingerprint {
	var f fingerprint
	for _, i := range d.rowsOfKey[k] {
		f.add(d.rows[i])
	}
	return f
}

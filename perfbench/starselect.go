package main

import (
	"math/rand"
	"strconv"
	"time"

	"cods"
)

func init() {
	register(&workload{
		name:    "star-select",
		why:     "main=join SELECTs over S, T made by DECOMPOSE, side=GROUP BY on the kept R (200k rows): smo, plan cache hits, semi-join, hash join, scan; no delta/evolve/storage/server; tail=p95",
		size:    tableSize{rows: 200_000, keys: 20_000},
		main:    "select",
		side:    "scan",
		tailPct: 95,
		newInstance: func(e *env) (instance, error) {
			s := &starSelect{memDB: memDB{e: e, data: generate(e.size, e.cfg.seed), cfg: memConfig}}
			s.live = liveCs(s.data)
			e.echof("setup: CreateTableFromRows R, COPY TABLE R TO R2, DECOMPOSE TABLE R2 INTO S (A, B), T (A, C); R is kept")
			e.echof("load: one closed-loop client, DB.Select cycle [join count, join rows, join count, GROUP BY scan] with a seeded rotating C")
			return s, nil
		},
	})
}

// starSelect runs SELECT text over a schema evolution produced: joins of
// the decomposed S and T, and a GROUP BY scan of the kept original R.
type starSelect struct {
	memDB
	live []int // C indices that occur in R
}

// liveCs lists the C values present in the generated rows.
func liveCs(d *dataset) []int {
	var out []int
	for c, rows := range d.rowsOfC {
		if len(rows) > 0 {
			out = append(out, c)
		}
	}
	return out
}

const (
	joinCountSQL = "SELECT count(*) FROM S JOIN T ON (A) WHERE C = '"
	joinRowsSQL  = "SELECT A, B FROM S JOIN T ON (A) WHERE C = '"
	scanSQL      = "SELECT count(*) FROM R GROUP BY C"
)

func (s *starSelect) setup() error {
	if err := s.load(); err != nil {
		return err
	}
	for _, stmt := range []string{
		"COPY TABLE R TO R2",
		"DECOMPOSE TABLE R2 INTO S (A, B), T (A, C)",
	} {
		if _, err := s.db.Exec(stmt); err != nil {
			return err
		}
	}
	return nil
}

// starOp is one op of the seeded sequence.
type starOp struct {
	kind string // "count", "rows" or "scan"
	c    int    // C index for the joins
}

func (o starOp) stmt(d *dataset) string {
	switch o.kind {
	case "count":
		return joinCountSQL + d.cs[o.c] + "'"
	case "rows":
		return joinRowsSQL + d.cs[o.c] + "'"
	}
	return scanSQL
}

func (o starOp) class() string {
	if o.kind == "scan" {
		return "scan"
	}
	return "select"
}

// starOps cycles join count, join rows, join count, scan, drawing the
// join predicate's C uniformly from the values present.
type starOps struct {
	rng  *rand.Rand
	live []int
	i    int
}

func newStarOps(live []int, seed int64) *starOps {
	return &starOps{rng: rand.New(rand.NewSource(seed + 1)), live: live}
}

func (o *starOps) next() starOp {
	kind := [...]string{"count", "rows", "count", "scan"}[o.i%4]
	o.i++
	return starOp{kind: kind, c: o.live[o.rng.Intn(len(o.live))]}
}

func (s *starSelect) measure() error {
	ops := newStarOps(s.live, s.e.cfg.seed)
	s.e.closedLoop(func(record bool) time.Duration {
		op := ops.next()
		d, err := s.op(op)
		s.e.rec.done(op.class(), d, err, record)
		return d
	})
	return nil
}

// op runs one SELECT through the facade and checks its answer.
func (s *starSelect) op(op starOp) (time.Duration, error) {
	stmt := op.stmt(s.data)
	start := time.Now()
	rs, err := s.db.Select(stmt)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	return d, s.check(op, stmt, rs)
}

// check compares a SELECT's answer with the generator-derived one; a
// join count must also equal Count on the kept R.
func (s *starSelect) check(op starOp, stmt string, rs *cods.ResultSet) error {
	switch op.kind {
	case "count":
		want := uint64(len(s.data.rowsOfC[op.c]))
		got, err := singleCount(rs)
		if err != nil {
			return wrongf("%s: %v", stmt, err)
		}
		if got != want {
			return wrongf("%s = %d, want %d", stmt, got, want)
		}
		onR, err := s.db.Count("R", "C = '"+s.data.cs[op.c]+"'")
		if err != nil {
			return err
		}
		if onR != got {
			return wrongf("%s = %d but Count on R = %d", stmt, got, onR)
		}
	case "rows":
		var want fingerprint
		for _, i := range s.data.rowsOfC[op.c] {
			want.add(s.data.rows[i][:2])
		}
		if got := fingerprintOf(rs.Rows); got != want {
			return wrongf("%s returned %v, want %v", stmt, got, want)
		}
	case "scan":
		if len(rs.Rows) != len(s.live) {
			return wrongf("%s returned %d groups, want %d", stmt, len(rs.Rows), len(s.live))
		}
		for _, row := range rs.Rows {
			c, ok := cIndex(row[0])
			if !ok || c >= len(s.data.cs) {
				return wrongf("%s returned group %q", stmt, row[0])
			}
			if n, err := strconv.Atoi(row[len(row)-1]); err != nil || n != len(s.data.rowsOfC[c]) {
				return wrongf("%s: group %s counts %s, want %d", stmt, row[0], row[len(row)-1], len(s.data.rowsOfC[c]))
			}
		}
	}
	return nil
}

// singleCount reads the one value of a count(*) result.
func singleCount(rs *cods.ResultSet) (uint64, error) {
	if len(rs.Rows) != 1 || len(rs.Rows[0]) != 1 {
		return 0, wrongf("want one count cell, got %d rows", len(rs.Rows))
	}
	return strconv.ParseUint(rs.Rows[0][0], 10, 64)
}

// cIndex parses a generated C value ("c0000042") back to its index.
func cIndex(v string) (int, bool) {
	if len(v) != 8 || v[0] != 'c' {
		return 0, false
	}
	n, err := strconv.Atoi(v[1:])
	return n, err == nil
}

func (s *starSelect) finish() error {
	return s.saveAndRecover(s.data.userBytes, func(db *cods.DB) error {
		if err := checkTableFP(db, "R", s.data.allFP); err != nil {
			return err
		}
		var sFP, tFP fingerprint
		for k, rows := range s.data.rowsOfKey {
			for _, i := range rows {
				sFP.add(s.data.rows[i][:2])
			}
			if len(rows) > 0 {
				tFP.add([]string{s.data.keys[k], s.data.cs[s.data.cOf[k]]})
			}
		}
		if err := checkTableFP(db, "S", sFP); err != nil {
			return err
		}
		return checkTableFP(db, "T", tFP)
	})
}

func (s *starSelect) traced(tr *tracer) error {
	rp, err := newReplica(s.data.rows, memConfig, "COPY TABLE R TO R2", "DECOMPOSE TABLE R2 INTO S (A, B), T (A, C)")
	if err != nil {
		return err
	}
	s.e.rec.check("replica", rp.checkSegments(s.db))
	pr := newProber(s.e, s.data, rp, s.db)
	sT, tT, err := pr.starTables()
	if err != nil {
		return err
	}
	r, err := rp.table("R")
	if err != nil {
		return err
	}
	return s.e.tracedRun(tr, func() opRunner {
		ops := newStarOps(s.live, s.e.cfg.seed)
		return func(tr *tracer) (string, time.Duration, error) {
			op := ops.next()
			if tr == nil {
				d, err := s.op(op)
				return op.class(), d, err
			}
			root := tr.root("op:" + op.class())
			defer tr.end(root)
			facade, d, err := tr.timed(root, "cods.DB.Select", func() (time.Duration, error) { return s.op(op) })
			if err != nil {
				return op.class(), d, err
			}
			parse, run, err := traceSelect(tr, root, rp, pr.cache, op.stmt(s.data), s.db.Version())
			tr.adopt(facade, parse, run)
			if err != nil {
				return op.class(), d, err
			}
			from := tr.mark()
			if op.kind == "scan" {
				err = traceGroupBy(tr, root, r, rp.par)
			} else {
				err = traceJoin(tr, root, sT, tT, s.data.cs[op.c], rp.par)
			}
			tr.adoptSince(run, from, root)
			return op.class(), d, err
		}
	}, pr)
}

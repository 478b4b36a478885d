package main

import (
	"math/rand"
	"time"

	"cods"
)

func init() {
	register(&workload{
		name:    "point-read",
		why:     "main=DB.Query, side=DB.Count (3:1, zipf keys) on a clean 100k-row base: colstore materialization via wah.FilterPositions; no planner, join, evolve, WAL or HTTP; tail=p95",
		size:    tableSize{rows: 100_000, keys: 10_000, zipf: 1.2},
		main:    "query",
		side:    "count",
		tailPct: 95,
		newInstance: func(e *env) (instance, error) {
			p := &pointRead{memDB: memDB{e: e, data: generate(e.size, e.cfg.seed), cfg: memConfig}}
			p.keyFP = make([]fingerprint, e.size.keys)
			for k := range p.keyFP {
				p.keyFP[k] = p.data.keyFP(k)
			}
			e.echof("load: one closed-loop client, DB.Query : DB.Count = 3 : 1 on A = '<zipf %.1f key>'", e.size.zipf)
			return p, nil
		},
	})
}

// pointRead issues point reads of zipf-drawn keys against a clean base:
// three Query calls for every Count, one closed-loop client.
type pointRead struct {
	memDB
	keyFP []fingerprint // oracle: rows of each key
}

func (p *pointRead) setup() error { return p.load() }

// pointOps is the seeded op sequence: op i reads key keys[i]; every
// fourth op is a Count, the rest are Query.
type pointOps struct {
	zipf *rand.Zipf
	i    int
}

func newPointOps(size tableSize, seed int64) *pointOps {
	rng := rand.New(rand.NewSource(seed + 1))
	return &pointOps{zipf: rand.NewZipf(rng, size.zipf, 1, uint64(size.keys-1))}
}

func (o *pointOps) next() (key int, count bool) {
	o.i++
	return int(o.zipf.Uint64()), o.i%4 == 0
}

func (p *pointRead) measure() error {
	ops := newPointOps(p.e.size, p.e.cfg.seed)
	p.e.closedLoop(func(record bool) time.Duration {
		k, count := ops.next()
		d, err := p.op(k, count)
		name := "query"
		if count {
			name = "count"
		}
		p.e.rec.done(name, d, err, record)
		return d
	})
	return nil
}

// op runs one point read through the facade and checks it.
func (p *pointRead) op(k int, count bool) (time.Duration, error) {
	cond := "A = '" + p.data.keys[k] + "'"
	want := p.keyFP[k]
	if count {
		start := time.Now()
		n, err := p.db.Count("R", cond)
		d := time.Since(start)
		if err == nil && n != want.n {
			err = wrongf("Count(%s) = %d, want %d", cond, n, want.n)
		}
		return d, err
	}
	start := time.Now()
	rows, err := p.db.Query("R", cond)
	d := time.Since(start)
	if err == nil {
		if got := fingerprintOf(rows); got != want {
			err = wrongf("Query(%s) returned %v, want %v", cond, got, want)
		}
	}
	return d, err
}

func (p *pointRead) finish() error {
	return p.saveAndRecover(p.data.userBytes, func(db *cods.DB) error {
		return checkTableFP(db, "R", p.data.allFP)
	})
}

func (p *pointRead) traced(tr *tracer) error {
	rp, err := newReplica(p.data.rows, memConfig)
	if err != nil {
		return err
	}
	p.e.rec.check("replica", rp.checkSegments(p.db))
	ov, err := rp.overlay("R")
	if err != nil {
		return err
	}
	return p.e.tracedRun(tr, func() opRunner {
		ops := newPointOps(p.e.size, p.e.cfg.seed)
		return func(tr *tracer) (string, time.Duration, error) {
			k, count := ops.next()
			class, facadeName := "query", "cods.DB.Query"
			if count {
				class, facadeName = "count", "cods.DB.Count"
			}
			if tr == nil {
				d, err := p.op(k, count)
				return class, d, err
			}
			root := tr.root("op:" + class)
			defer tr.end(root)
			facade, d, err := tr.timed(root, facadeName, func() (time.Duration, error) { return p.op(k, count) })
			if err != nil {
				return class, d, err
			}
			cond := "A = '" + p.data.keys[k] + "'"
			var parse, inner int
			if count {
				parse, inner, err = traceCount(tr, root, ov, cond)
			} else {
				parse, inner, err = tracePointQuery(tr, root, ov, cond, rp.par)
			}
			tr.adopt(facade, parse, inner)
			return class, d, err
		}
	}, newProber(p.e, p.data, rp, p.db))
}

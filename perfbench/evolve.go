package main

import (
	"math/rand"
	"time"

	"cods"
	"cods/internal/delta"
)

func init() {
	register(&workload{
		name:    "evolve",
		why:     "main=DECOMPOSE R then MERGE back (1M rows, 100k keys: the Figure 3 knee), side=point Count after each MERGE: evolve, wah binops, dict; tail=p50 (about 30 cycles a run)",
		size:    tableSize{rows: 1_000_000, keys: 100_000},
		main:    "evolve",
		side:    "count",
		tailPct: 50,
		newInstance: func(e *env) (instance, error) {
			e.echof("load: one closed-loop client alternating DECOMPOSE TABLE R INTO S (A, B), T (A, C) and MERGE TABLES S, T INTO R; %d seeded point Counts check R after each MERGE", countsPerMerge)
			return &evolveLoad{memDB: memDB{e: e, data: generate(e.size, e.cfg.seed), cfg: memConfig}}, nil
		},
	})
}

const (
	decomposeSQL = "DECOMPOSE TABLE R INTO S (A, B), T (A, C)"
	mergeSQL     = "MERGE TABLES S, T INTO R"
	// countsPerMerge is how many sampled keys are counted after each
	// MERGE: a cycle yields one evolve sample but five Count samples, so
	// side_p50_ms rests on about a hundred of them.
	countsPerMerge = 5
)

// evolveLoad round-trips R through DECOMPOSE and the inverse MERGE.
type evolveLoad struct {
	memDB
}

func (v *evolveLoad) setup() error { return v.load() }

func (v *evolveLoad) measure() error {
	rng := rand.New(rand.NewSource(v.e.cfg.seed + 1))
	v.e.closedLoop(func(record bool) time.Duration {
		d, err := v.cycle()
		v.e.rec.done("evolve", d, err, record)
		if err != nil {
			return d
		}
		for i := 0; i < countsPerMerge; i++ {
			cd, err := v.countCheck(rng.Intn(len(v.data.keys)))
			v.e.rec.done("count", cd, err, record)
			d += cd
		}
		return d
	})
	return nil
}

// cycle runs one DECOMPOSE and the inverse MERGE through the facade.
func (v *evolveLoad) cycle() (time.Duration, error) {
	start := time.Now()
	if _, err := v.db.Exec(decomposeSQL); err != nil {
		return time.Since(start), err
	}
	_, err := v.db.Exec(mergeSQL)
	return time.Since(start), err
}

// countCheck verifies the merged R against set-up: its row count and a
// sampled point predicate's count. The point Count is timed.
func (v *evolveLoad) countCheck(k int) (time.Duration, error) {
	cond := "A = '" + v.data.keys[k] + "'"
	start := time.Now()
	n, err := v.db.Count("R", cond)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	if want := uint64(len(v.data.rowsOfKey[k])); n != want {
		return d, wrongf("after MERGE, Count(%s) = %d, want %d", cond, n, want)
	}
	rows, err := v.db.NumRows("R")
	if err != nil {
		return d, err
	}
	if rows != uint64(len(v.data.rows)) {
		return d, wrongf("after MERGE, R has %d rows, want %d", rows, len(v.data.rows))
	}
	return d, nil
}

func (v *evolveLoad) finish() error {
	v.e.rec.check("final R", checkTableFP(v.db, "R", v.data.allFP))
	return v.saveAndRecover(v.data.userBytes, func(db *cods.DB) error {
		return checkTableFP(db, "R", v.data.allFP)
	})
}

func (v *evolveLoad) traced(tr *tracer) error {
	rp, err := newReplica(v.data.rows, memConfig)
	if err != nil {
		return err
	}
	v.e.rec.check("replica", rp.checkSegments(v.db))
	replicaR := rp.base
	return v.e.tracedRun(tr, func() opRunner {
		rng := rand.New(rand.NewSource(v.e.cfg.seed + 1))
		return func(tr *tracer) (string, time.Duration, error) {
			var keys [countsPerMerge]int
			for i := range keys {
				keys[i] = rng.Intn(len(v.data.keys))
			}
			if tr == nil {
				d, err := v.cycle()
				for _, k := range keys {
					if err == nil {
						_, err = v.countCheck(k)
					}
				}
				return "evolve", d, err
			}
			root := tr.root("op:evolve")
			defer tr.end(root)
			facade, d, err := tr.timed(root, "cods.DB.Exec(DECOMPOSE+MERGE)", v.cycle)
			if err != nil {
				return "evolve", d, err
			}
			merged, dec, mer, err := traceEvolve(tr, root, replicaR, rp.par)
			tr.adopt(facade, dec, mer)
			if err != nil {
				return "evolve", d, err
			}
			replicaR = merged
			ov := delta.Wrap(merged, rp.par)
			for _, k := range keys {
				count, _, err := tr.timed(root, "cods.DB.Count", func() (time.Duration, error) { return v.countCheck(k) })
				if err != nil {
					return "evolve", d, err
				}
				parse, inner, err := traceCount(tr, root, ov, "A = '"+v.data.keys[k]+"'")
				tr.adopt(count, parse, inner)
				if err != nil {
					return "evolve", d, err
				}
			}
			return "evolve", d, nil
		}
	}, newProber(v.e, v.data, rp, v.db))
}

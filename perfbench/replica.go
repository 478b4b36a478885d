package main

import (
	"fmt"
	"runtime"

	"cods"
	"cods/internal/colquery"
	"cods/internal/colstore"
	"cods/internal/core"
	"cods/internal/delta"
	"cods/internal/evolve"
	"cods/internal/expr"
	"cods/internal/plan"
	"cods/internal/smo"
	"cods/internal/wah"
)

// replica is an in-memory engine built from the generated rows the way
// the facade builds its catalog (TableBuilder, Register, then the
// workload's set-up statements), so each layer's public calls can be
// timed on the tables the facade serves.
type replica struct {
	eng  *core.Engine
	par  int // the engine's default parallelism
	base *colstore.Table
}

func newReplica(rows [][]string, cfg cods.Config, stmts ...string) (*replica, error) {
	tb, err := colstore.NewTableBuilder("R", columns, nil)
	if err != nil {
		return nil, err
	}
	tb.Parallelism = cfg.Parallelism
	for _, r := range rows {
		if err := tb.AppendRow(r); err != nil {
			return nil, err
		}
	}
	t, err := tb.Finish()
	if err != nil {
		return nil, err
	}
	rp := &replica{eng: core.New(engineConfig(cfg)), par: runtime.GOMAXPROCS(0), base: t}
	if err := rp.eng.Register(t); err != nil {
		return nil, err
	}
	for _, s := range stmts {
		if err := rp.apply(s); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

// engineConfig mirrors the facade's translation of its Config.
func engineConfig(cfg cods.Config) core.Config {
	return core.Config{
		Parallelism:        cfg.Parallelism,
		RetainVersions:     cfg.RetainVersions,
		AutoCompactPending: cfg.AutoCompactPending,
		SegmentMergeRatio:  cfg.SegmentMergeRatio,
	}
}

func (rp *replica) apply(stmt string) error {
	op, err := smo.Parse(stmt)
	if err != nil {
		return err
	}
	_, err = rp.eng.Apply(op)
	return err
}

func (rp *replica) table(name string) (*colstore.Table, error) {
	return rp.eng.Catalog().Table(name)
}

func (rp *replica) overlay(name string) (*delta.Overlay, error) {
	return rp.eng.Catalog().Overlay(name)
}

// checkSegments verifies the replica against the live database: every
// table has the same number of segments.
func (rp *replica) checkSegments(db *cods.DB) error {
	for _, ts := range db.MemStats().Tables {
		t, err := rp.table(ts.Table)
		if err != nil {
			return wrongf("replica lacks table %s", ts.Table)
		}
		if t.NumSegments() != ts.Segments {
			return wrongf("replica table %s has %d segments, the database %d", ts.Table, t.NumSegments(), ts.Segments)
		}
	}
	return nil
}

// tracePointQuery issues, under root, the calls a point Query makes on a
// clean overlay: expr.Parse, then Overlay.Query, whose own calls are
// Node.EvalP (holding Table.EqBitmap), Table.FilterRowsP and Table.Rows.
// A sample of the per-value wah.FilterPositions calls inside FilterRowsP
// is timed too. It returns the spans of Parse and Overlay.Query, the
// children of the facade's Query.
func tracePointQuery(tr *tracer, root int, ov *delta.Overlay, cond string, par int) (parse, query int, err error) {
	var pred expr.Node
	parse, err = tr.call(root, "expr.Parse", func() (int64, error) {
		var err error
		pred, err = expr.Parse(cond)
		return 0, err
	})
	if err != nil {
		return parse, 0, err
	}
	name := "delta.Overlay.Query"
	if ov.Dirty() {
		name = "delta.Overlay.Query(dirty)"
	}
	query, err = tr.call(root, name, func() (int64, error) {
		rows, err := ov.Query(pred)
		return int64(len(rows)), err
	})
	if err != nil || ov.Dirty() {
		return parse, query, err
	}
	base := ov.Base()
	var mask *wah.Bitmap
	eval, err := tr.call(root, "expr.Node.EvalP", func() (int64, error) {
		var err error
		mask, err = pred.EvalP(base, par)
		return 0, err
	})
	if err != nil {
		return parse, query, err
	}
	if c, ok := pred.(*expr.Comparison); ok && c.Op == expr.OpEq {
		eq, err := tr.call(root, "colstore.Table.EqBitmap", func() (int64, error) {
			_, err := base.EqBitmap(c.Column, c.Literal)
			return 0, err
		})
		if err != nil {
			return parse, query, err
		}
		tr.adopt(eval, eq)
	}
	var filtered *colstore.Table
	filter, err := tr.call(root, "colstore.Table.FilterRowsP", func() (int64, error) {
		var err error
		filtered, err = base.FilterRowsP(base.Name(), mask, par)
		return 0, err
	})
	if err != nil {
		return parse, query, err
	}
	rows, err := tr.call(root, "colstore.Table.Rows", func() (int64, error) {
		rows, err := filtered.Rows(0, 0)
		return int64(len(rows)), err
	})
	if err != nil {
		return parse, query, err
	}
	tr.adopt(query, eval, filter, rows)
	positions := mask.AppendPositionsTo(nil)
	sample := sampleBitmaps(base, 256)
	_, err = tr.call(root, "wah.FilterPositions", func() (int64, error) {
		var calls int64
		for _, b := range sample {
			wah.FilterPositions(b, positions)
			calls++
		}
		return calls, nil
	})
	return parse, query, err
}

// sampleBitmaps picks up to n value bitmaps spread evenly over every
// column of t: the inputs FilterRowsP runs wah.FilterPositions on.
func sampleBitmaps(t *colstore.Table, n int) []*wah.Bitmap {
	var out []*wah.Bitmap
	per := max(n/t.NumColumns(), 1)
	for i := 0; i < t.NumColumns(); i++ {
		c := t.ColumnAt(i).ToBitmapEncoding()
		d := c.DistinctCount()
		step := max(d/per, 1)
		for id := 0; id < d; id += step {
			out = append(out, c.BitmapForID(uint32(id)))
		}
	}
	return out
}

// traceJoin issues, under root, the operator calls of a selective star
// join on the replica's S and T: the dimension mask on T, the WAH
// semi-join reducing S, the two table scans, and the hash join's build
// (Open) and probe (Next) over the scanned rows.
func traceJoin(tr *tracer, root int, s, t *colstore.Table, cValue string, par int) error {
	var dimMask *wah.Bitmap
	if _, err := tr.call(root, "colstore.Table.EqBitmap", func() (int64, error) {
		var err error
		dimMask, err = t.EqBitmap("C", cValue)
		return 0, err
	}); err != nil {
		return err
	}
	sa, err := s.Column("A")
	if err != nil {
		return err
	}
	ta, err := t.Column("A")
	if err != nil {
		return err
	}
	var mask *wah.Bitmap
	if _, err := tr.call(root, "colquery.SemiJoinMask", func() (int64, error) {
		mask = colquery.SemiJoinMask(sa, ta, dimMask, par)
		return int64(mask.Count()), nil
	}); err != nil {
		return err
	}
	tr.gauge("colquery.semijoin_kept_ratio", float64(mask.Count())/float64(max(s.NumRows(), 1)))
	scan := func(tb *colstore.Table, cols []string, m *wah.Bitmap) (*colquery.ResultSet, error) {
		var rs *colquery.ResultSet
		_, err := tr.call(root, "colquery.TableScan", func() (int64, error) {
			op, err := colquery.NewTableScan(tb, cols, m, par)
			if err != nil {
				return 0, err
			}
			rs, err = colquery.Collect(op)
			if err != nil {
				return 0, err
			}
			return int64(len(rs.Rows)), nil
		})
		return rs, err
	}
	probeRows, err := scan(s, []string{"A", "B"}, mask)
	if err != nil {
		return err
	}
	buildRows, err := scan(t, []string{"A", "C"}, dimMask)
	if err != nil {
		return err
	}
	hj, err := colquery.NewHashJoin(&rowsOp{rs: probeRows}, &rowsOp{rs: buildRows}, []string{"A"})
	if err != nil {
		return err
	}
	if _, err := tr.call(root, "colquery.HashJoin.Open", func() (int64, error) {
		return int64(len(buildRows.Rows)), hj.Open()
	}); err != nil {
		return err
	}
	_, err = tr.call(root, "colquery.HashJoin.Next", func() (int64, error) {
		var n int64
		for {
			batch, err := hj.Next()
			if err != nil || batch == nil {
				return n, err
			}
			n += int64(len(batch))
		}
	})
	if cerr := hj.Close(); err == nil {
		err = cerr
	}
	return err
}

// rowsOp is a colquery.Operator over already materialized rows, so the
// hash join's build and probe are timed without their input scans.
type rowsOp struct {
	rs   *colquery.ResultSet
	done bool
}

func (o *rowsOp) Columns() []string { return o.rs.Columns }
func (o *rowsOp) Open() error       { o.done = false; return nil }
func (o *rowsOp) Close() error      { return nil }

func (o *rowsOp) Next() ([][]string, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	return o.rs.Rows, nil
}

// planQuery converts a parsed SELECT into the planner's query the way
// the facade does (count is the only aggregate the workloads use).
func planQuery(sel smo.Select, epoch int, par int) (plan.Query, error) {
	q := plan.Query{
		Select: sel.Columns, From: sel.From, Where: sel.Where, GroupBy: sel.GroupBy,
		OrderBy: sel.OrderBy, Desc: sel.Desc, Limit: sel.Limit, Parallelism: par,
		Epoch: fmt.Sprint(epoch),
	}
	for _, j := range sel.Joins {
		q.Joins = append(q.Joins, plan.Join{Table: j.Table, On: j.On})
	}
	for _, a := range sel.Aggs {
		if a.Func != "count" {
			return q, fmt.Errorf("aggregate %s not replayed", a.Func)
		}
		q.Aggregates = append(q.Aggregates, colquery.Agg{Func: colquery.Count, Column: a.Column})
	}
	return q, nil
}

// traceSelect issues, under root, the calls the facade's Select makes:
// smo.Parse, then plan.Run against the replica with the benchmark's plan
// cache (warm after the first call of a shape), plus a nil-cache
// plan.Run of the same query whose extra time is the planning cost. It
// returns the spans of Parse and the cached plan.Run.
func traceSelect(tr *tracer, root int, rp *replica, cache *plan.Cache, stmt string, epoch int) (parse, run int, err error) {
	var op smo.Op
	parse, err = tr.call(root, "smo.Parse(select)", func() (int64, error) {
		var err error
		op, err = smo.Parse(stmt)
		return 0, err
	})
	if err != nil {
		return parse, 0, err
	}
	sel, ok := op.(smo.Select)
	if !ok {
		return parse, 0, fmt.Errorf("%q is not a SELECT", stmt)
	}
	q, err := planQuery(sel, epoch, rp.par)
	if err != nil {
		return parse, 0, err
	}
	cat := rp.eng.Catalog()
	run, err = tr.call(root, "plan.Run", func() (int64, error) {
		rs, err := plan.Run(cat.Table, q, cache)
		if err != nil {
			return 0, err
		}
		return int64(len(rs.Rows)), nil
	})
	if err != nil || len(sel.Joins) == 0 {
		return parse, run, err
	}
	// Planning cost: the same join shape narrowed to no rows (an extra
	// conjunct on a value C never holds), so execution is nearly free,
	// run without a cache and then warm; the gap is planning.
	empty := q
	empty.Where = "(" + q.Where + ") AND C = ''"
	if _, err := plan.Run(cat.Table, empty, cache); err != nil {
		return parse, run, err
	}
	for _, c := range []*plan.Cache{nil, cache} {
		name := "plan.Run(no rows, warm)"
		if c == nil {
			name = "plan.Run(no rows, nil cache)"
		}
		if _, err := tr.call(root, name, func() (int64, error) {
			_, err := plan.Run(cat.Table, empty, c)
			return 0, err
		}); err != nil {
			return parse, run, err
		}
	}
	return parse, run, nil
}

// traceEvolve runs DECOMPOSE and the inverse MERGE of t on the evolve
// layer directly, returning the merged table.
func traceEvolve(tr *tracer, root int, t *colstore.Table, par int) (*colstore.Table, int, int, error) {
	opt := evolve.Options{Parallelism: par}
	var res *evolve.DecomposeResult
	dec, err := tr.call(root, "evolve.Decompose", func() (int64, error) {
		var err error
		res, err = evolve.Decompose(t, evolve.DecomposeSpec{
			OutS: "S", SColumns: []string{"A", "B"}, OutT: "T", TColumns: []string{"A", "C"},
		}, opt)
		return 0, err
	})
	if err != nil {
		return nil, dec, 0, err
	}
	var merged *evolve.MergeResult
	mer, err := tr.call(root, "evolve.Merge", func() (int64, error) {
		var err error
		merged, err = evolve.Merge(res.S, res.T, t.Name(), opt)
		return 0, err
	})
	if err != nil {
		return nil, dec, mer, err
	}
	tr.gauge("evolve.output_segments", float64(merged.Table.NumSegments()))
	return merged.Table, dec, mer, nil
}

// traceCount issues, under root, the calls a point Count makes:
// expr.Parse, then Overlay.Count. It returns both spans, the children of
// the facade's Count.
func traceCount(tr *tracer, root int, ov *delta.Overlay, cond string) (parse, count int, err error) {
	var pred expr.Node
	parse, err = tr.call(root, "expr.Parse", func() (int64, error) {
		var err error
		pred, err = expr.Parse(cond)
		return 0, err
	})
	if err != nil {
		return parse, 0, err
	}
	count, err = tr.call(root, "delta.Overlay.Count", func() (int64, error) {
		n, err := ov.Count(pred)
		return int64(n), err
	})
	return parse, count, err
}

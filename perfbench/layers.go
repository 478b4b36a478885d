package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cods"
	"cods/internal/colquery"
	"cods/internal/colstore"
	"cods/internal/core"
	"cods/internal/delta"
	"cods/internal/plan"
	"cods/internal/smo"
	"cods/internal/storage"
	"cods/internal/wah"
)

// layerSpec is one per-layer metric and how it is read off the traced
// run's spans and gauges.
type layerSpec struct {
	name, unit string
	value      func(t *tracer) float64
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func usOf(name string) func(t *tracer) float64 {
	return func(t *tracer) float64 { return us(t.medianDur(name)) }
}
func msOf(name string) func(t *tracer) float64 {
	return func(t *tracer) float64 { return ms(t.medianDur(name)) }
}
func gaugeOf(name string) func(t *tracer) float64 {
	return func(t *tracer) float64 { return t.gauges[name] }
}

// layerSpecs lists the per-layer metrics in layer order, from the WAH
// kernel up to the facade. README.md maps each to the end-to-end metric
// it should move.
var layerSpecs = []layerSpec{
	{"wah.filter_positions_ns_per_call", "ns", func(t *tracer) float64 { return float64(t.perWork("wah.FilterPositions")) }},
	{"wah.and_us", "us", usOf("wah.And")},
	{"wah.or_all_us", "us", usOf("wah.OrAll")},
	{"wah.compressed_bytes_per_row", "B/row", gaugeOf("wah.compressed_bytes_per_row")},
	{"expr.parse_us", "us", usOf("expr.Parse")},
	{"expr.eval_us", "us", usOf("expr.Node.EvalP")},
	{"colstore.eq_bitmap_us", "us", usOf("colstore.Table.EqBitmap")},
	{"colstore.filter_rows_us", "us", usOf("colstore.Table.FilterRowsP")},
	{"colstore.rows_decode_us", "us", usOf("colstore.Table.Rows")},
	{"colstore.rows_per_query", "rows", func(t *tracer) float64 { return t.meanWork("colstore.Table.Rows") }},
	{"colstore.materialize_ns_per_row", "ns/row", materializeNSPerRow},
	{"colstore.segments", "count", gaugeOf("colstore.segments")},
	{"colstore.compact_ms", "ms", msOf("colstore.MergeSegments")},
	{"delta.query_clean_us", "us", usOf("delta.Overlay.Query")},
	{"delta.query_dirty_us", "us", usOf("delta.Overlay.Query(dirty)")},
	{"delta.write_us", "us", usOf("delta.Overlay.write")},
	{"delta.flush_ms", "ms", msOf("delta.Overlay.Table")},
	{"delta.pending_rows", "rows", gaugeOf("delta.pending_rows")},
	{"delta.compactions", "count", gaugeOf("delta.compactions")},
	{"colquery.groupby_us", "us", usOf("colquery.Run")},
	{"colquery.semijoin_mask_us", "us", usOf("colquery.SemiJoinMask")},
	{"colquery.semijoin_kept_ratio", "ratio", gaugeOf("colquery.semijoin_kept_ratio")},
	{"colquery.scan_us", "us", usOf("colquery.TableScan")},
	{"colquery.scan_rows", "rows", func(t *tracer) float64 { return t.meanWork("colquery.TableScan") }},
	{"colquery.hash_build_us", "us", usOf("colquery.HashJoin.Open")},
	{"colquery.hash_probe_us", "us", usOf("colquery.HashJoin.Next")},
	{"plan.run_warm_us", "us", usOf("plan.Run")},
	{"plan.plan_us", "us", func(t *tracer) float64 {
		return us(t.medianGap("plan.Run(no rows, nil cache)", "plan.Run(no rows, warm)"))
	}},
	{"plan.cache_hit_ratio", "ratio", gaugeOf("plan.cache_hit_ratio")},
	{"smo.parse_select_us", "us", usOf("smo.Parse(select)")},
	{"smo.parse_dml_us", "us", usOf("smo.Parse(dml)")},
	{"evolve.decompose_ms", "ms", msOf("evolve.Decompose")},
	{"evolve.merge_ms", "ms", msOf("evolve.Merge")},
	{"evolve.output_segments", "count", gaugeOf("evolve.output_segments")},
	{"core.apply_us", "us", func(t *tracer) float64 {
		return us(t.medianDur("core.Engine.Apply")) - us(t.medianDur("delta.Overlay.write"))
	}},
	{"storage.wal_append_us", "us", usOf("storage.WAL.Append")},
	{"storage.wal_bytes_per_stmt", "B", gaugeOf("storage.wal_bytes_per_stmt")},
	{"storage.snapshot_save_ms", "ms", msOf("storage.SaveSnapshot")},
	{"storage.snapshot_load_ms", "ms", msOf("storage.LoadSnapshot")},
	{"storage.wal_replay_ms", "ms", msOf("storage.ReplayWAL")},
	{"server.query_overhead_us", "us", func(t *tracer) float64 { return us(t.medianSelf("server.POST /query(count)")) }},
	{"server.response_bytes_per_row", "B/row", func(t *tracer) float64 {
		return t.gauges["server.response_bytes"] / max(t.gauges["server.response_rows"], 1)
	}},
	{"cods.query_self_us", "us", func(t *tracer) float64 { return us(t.medianSelf("cods.DB.Count")) }},
	{"cods.select_self_us", "us", func(t *tracer) float64 { return us(t.medianSelf("cods.DB.Select(point count)")) }},
	{"cods.alloc_kb_per_op", "KB", gaugeOf("cods.alloc_kb_per_op")},
	{"cods.gc_pause_ms", "ms/s", gaugeOf("cods.gc_pause_ms")},
	{"driver.late_tail_ms", "ms", gaugeOf("driver.late_tail_ms")},
	{"trace.overhead_ratio", "ratio", gaugeOf("trace.overhead_ratio")},
}

func materializeNSPerRow(t *tracer) float64 {
	var d time.Duration
	var rows int64
	for _, s := range t.named("colstore.Table.FilterRowsP") {
		d += s.dur()
	}
	for _, s := range t.named("colstore.Table.Rows") {
		d += s.dur()
		rows += s.Work
	}
	return float64(d) / float64(max(rows, 1))
}

func layerMetrics(tr *tracer) map[string]metric {
	out := make(map[string]metric, len(layerSpecs))
	for _, s := range layerSpecs {
		out[s.name] = metric{Value: s.value(tr), Unit: s.unit}
	}
	return out
}

// opRunner runs the next op of a workload's seeded sequence. With tr nil
// it calls only the facade (or HTTP API); with tr set it also opens the
// op's root span and issues the chain of layer calls the facade call
// makes, each as a span. It returns the op's class and the duration of
// the facade call alone.
type opRunner func(tr *tracer) (class string, d time.Duration, err error)

// probeMore reports whether a probe loop runs iteration i: at least
// twice, then up to n times while the loop has run under a second, so
// probes stay short on large tables.
func probeMore(i, n int, start time.Time) bool {
	return i < 2 || (i < n && time.Since(start) < time.Second)
}

// tracedRun is the traced run every workload shares: an untraced pass
// over the op sequence for a third of the window (allocation and GC per op,
// and the baseline of trace.overhead_ratio), the traced replay of as
// many ops from a fresh copy of the same sequence (htap-serve's newOps
// continues one sequence instead, see its traced), then probes of the
// layers those ops did not reach.
func (e *env) tracedRun(tr *tracer, newOps func() opRunner, pr *prober) error {
	next := newOps()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	untraced := map[string][]time.Duration{}
	var busy time.Duration
	n := 0
	for ; busy < e.window/3 || n < 4; n++ {
		class, d, err := next(nil)
		e.rec.done(class, d, err, true)
		untraced[class] = append(untraced[class], d)
		busy += d
	}
	runtime.ReadMemStats(&after)
	tr.gauge("cods.alloc_kb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(n))
	tr.gauge("cods.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6/busy.Seconds())

	next = newOps()
	traced := map[string][]time.Duration{}
	for i := 0; i < n; i++ {
		class, d, err := next(tr)
		e.rec.done("traced "+class, d, err, true)
		traced[class] = append(traced[class], d)
	}
	main := e.w.main
	if base := percentile(untraced[main], 50); base > 0 {
		tr.gauge("trace.overhead_ratio", float64(percentile(traced[main], 50))/float64(base))
	}
	return pr.run(tr)
}

// prober times, on a replica of the workload's tables, the layers the
// workload's own ops do not call, so every workload reports every
// per-layer metric. The probes of calls a workload's replay can make
// (point reads, DML, star joins, evolution) run only when the replay
// left no span of them; the others (WAH binops, storage, the server's
// and the facade's own cost, segment merges) always run.
type prober struct {
	e    *env
	data *dataset
	rp   *replica
	db   *cods.DB // the live database
	// base is the URL of a server already serving db; empty starts one.
	base  string
	cache *plan.Cache // the benchmark's own plan cache
	rng   *rand.Rand
	// dml is where the replay's DML went, if it had any.
	dml *dmlState
}

func newProber(e *env, d *dataset, rp *replica, db *cods.DB) *prober {
	return &prober{e: e, data: d, rp: rp, db: db, cache: plan.NewCache(0),
		rng: rand.New(rand.NewSource(e.cfg.seed + 2))}
}

func (p *prober) key() string { return p.data.keys[p.rng.Intn(len(p.data.keys))] }

func (p *prober) c() string {
	live := liveCs(p.data)
	return p.data.cs[live[p.rng.Intn(len(live))]]
}

func (p *prober) run(tr *tracer) error {
	steps := []func(*tracer) error{
		p.probePoint, p.probeWAH, p.probeDML, p.probeStorage, p.probeStar,
		p.probeEvolve, p.probeServer, p.probeFacade, p.probeSegments,
	}
	for _, step := range steps {
		if err := step(tr); err != nil {
			return err
		}
	}
	tr.gauge("delta.pending_rows", float64(p.dml.pending()))
	tr.gauge("delta.compactions", float64(p.dml.eng.MemStats().Compactions))
	hits, misses, _ := p.cache.Stats()
	tr.gauge("plan.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	return nil
}

// probeRoot opens a probe's root span.
func probeRoot(tr *tracer, name string) (int, func()) {
	id := tr.root("probe:" + name)
	return id, func() { tr.end(id) }
}

// probePoint times a point Query through the facade, with its chain on
// the replica's current overlay as the facade call's children. When that
// overlay is dirty its query merges the pending rows without reaching
// the base, so the clean base's chain is timed too.
func (p *prober) probePoint(tr *tracer) error {
	if len(tr.named("cods.DB.Query")) > 0 {
		return nil
	}
	ov, err := p.rp.overlay("R")
	if err != nil {
		return err
	}
	clean := delta.Wrap(p.rp.base, p.rp.par)
	for i, start := 0, time.Now(); probeMore(i, 10, start); i++ {
		cond := "A = '" + p.key() + "'"
		root, end := probeRoot(tr, "point")
		facade, err := tr.call(root, "cods.DB.Query", func() (int64, error) {
			rows, err := p.db.Query("R", cond)
			return int64(len(rows)), err
		})
		if err == nil {
			var parse, query int
			parse, query, err = tracePointQuery(tr, root, ov, cond, p.rp.par)
			tr.adopt(facade, parse, query)
		}
		if err == nil && ov.Dirty() {
			_, _, err = tracePointQuery(tr, root, clean, cond, p.rp.par)
		}
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

// probeWAH times WAH binops on R's bitmaps and reads its compressed
// size.
func (p *prober) probeWAH(tr *tracer) error {
	t := p.rp.base
	var bytes uint64
	for i := 0; i < t.NumColumns(); i++ {
		bytes += t.ColumnAt(i).CompressedSizeBytes()
	}
	tr.gauge("wah.compressed_bytes_per_row", float64(bytes)/float64(max(t.NumRows(), 1)))
	cCol, err := t.Column("C")
	if err != nil {
		return err
	}
	cCol = cCol.ToBitmapEncoding()
	all := make([]*wah.Bitmap, cCol.DistinctCount())
	for id := range all {
		all[id] = cCol.BitmapForID(uint32(id))
	}
	for i, start := 0, time.Now(); probeMore(i, 10, start); i++ {
		k := p.rng.Intn(len(p.data.keys))
		a, err := t.EqBitmap("A", p.data.keys[k])
		if err != nil {
			return err
		}
		c, err := t.EqBitmap("C", p.data.cs[p.data.cOf[k]])
		if err != nil {
			return err
		}
		root, end := probeRoot(tr, "wah")
		_, _ = tr.call(root, "wah.And", func() (int64, error) { return int64(wah.And(a, c).Count()), nil })
		_, _ = tr.call(root, "wah.OrAll", func() (int64, error) { return int64(wah.OrAll(all).Count()), nil })
		end()
	}
	return nil
}

// dmlStream is the keyed DML shape of htap-serve (insert, update,
// insert, delete) over any workload's table.
func dmlStream(d *dataset, seed int64, n int) []htapOp {
	ops := newHTAPOps(d, seed)
	var out []htapOp
	for len(out) < n {
		if op := ops.next(); op.kind == "write" {
			out = append(out, op)
		}
	}
	return out
}

// dmlState is where traced DML goes: an engine (the replica's, or a
// copy of it) and a standalone overlay over the same base, compacted at
// the engine's threshold the way the engine compacts its own.
type dmlState struct {
	eng *core.Engine
	ov  *delta.Overlay
	par int
}

func newDMLState(eng *core.Engine, base *colstore.Table, par int) *dmlState {
	return &dmlState{eng: eng, ov: delta.Wrap(base, par), par: par}
}

// write issues, under root, the calls one DML statement makes: parse,
// the engine's Apply (with its overlay write inside), and the same write
// on the standalone overlay. It returns the Apply span, the child of the
// facade's Exec.
func (s *dmlState) write(tr *tracer, root int, stmt string) (int, error) {
	var op smo.Op
	if _, err := tr.call(root, "smo.Parse(dml)", func() (int64, error) {
		var err error
		op, err = smo.Parse(stmt)
		return 0, err
	}); err != nil {
		return 0, err
	}
	apply, err := tr.call(root, "core.Engine.Apply", func() (int64, error) {
		_, err := s.eng.Apply(op)
		return 0, err
	})
	if err != nil {
		return apply, err
	}
	write, err := tr.call(root, "delta.Overlay.write", func() (int64, error) {
		var err error
		switch o := op.(type) {
		case smo.Insert:
			s.ov, err = s.ov.Insert(o.Values)
		case smo.Update:
			s.ov, _, err = s.ov.Update(o.Column, o.Value, o.Where)
		case smo.Delete:
			s.ov, _, err = s.ov.Delete(o.Where)
		default:
			err = fmt.Errorf("%q is not keyed DML", stmt)
		}
		return 0, err
	})
	tr.adopt(apply, write)
	if err != nil || s.pending() < uint64(htapConfig.AutoCompactPending) {
		return apply, err
	}
	var flushed *colstore.Table
	if _, err := tr.call(root, "delta.Overlay.Table", func() (int64, error) {
		var err error
		flushed, err = s.ov.Table()
		return int64(s.pending()), err
	}); err != nil {
		return apply, err
	}
	s.ov = delta.Wrap(flushed, s.par)
	return apply, nil
}

func (s *dmlState) pending() uint64 { return uint64(s.ov.PendingAdded()) + s.ov.PendingDeleted() }

// probeDML replays up to 64 statements of the keyed DML shape on a copy
// of the replica's engine and a standalone overlay, with a dirty point
// query every eighth statement. The first 24 always run: enough to reach
// htap-serve's compaction threshold once.
func (p *prober) probeDML(tr *tracer) error {
	if p.dml != nil {
		return nil
	}
	base, err := p.rp.table("R")
	if err != nil {
		return err
	}
	eng := core.New(engineConfig(htapConfig))
	if err := eng.Register(base); err != nil {
		return err
	}
	p.dml = newDMLState(eng, base, p.rp.par)
	start := time.Now()
	for i, op := range dmlStream(p.data, p.e.cfg.seed, 64) {
		if i >= 24 && !probeMore(i, 64, start) {
			break
		}
		root, end := probeRoot(tr, "dml")
		_, err = p.dml.write(tr, root, op.stmt)
		if err == nil && i%8 == 7 && p.dml.ov.Dirty() {
			_, _, err = tracePointQuery(tr, root, p.dml.ov, "A = '"+p.key()+"'", p.rp.par)
		}
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

// probeStorage times WAL appends (each fsynced) and replay, and snapshot
// save and load of the replica's tables, in the run's scratch directory.
func (p *prober) probeStorage(tr *tracer) error {
	dir := filepath.Join(p.e.dir, "storage-probe")
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	wal, err := storage.OpenWAL(dir, 0)
	if err != nil {
		return err
	}
	stmts := dmlStream(p.data, p.e.cfg.seed, 32)
	for _, op := range stmts {
		root, end := probeRoot(tr, "storage")
		_, err := tr.call(root, "storage.WAL.Append", func() (int64, error) { return 0, wal.Append(op.stmt) })
		end()
		if err != nil {
			wal.Close()
			return err
		}
	}
	info, err := os.Stat(wal.Path())
	if err != nil {
		wal.Close()
		return err
	}
	tr.gauge("storage.wal_bytes_per_stmt", float64(info.Size())/float64(len(stmts)))
	if err := wal.Close(); err != nil {
		return err
	}
	var tables []*colstore.Table
	for _, name := range p.rp.eng.Catalog().Tables() {
		t, err := p.rp.table(name)
		if err != nil {
			return err
		}
		tables = append(tables, t)
	}
	for i := 0; i < 2; i++ {
		root, end := probeRoot(tr, "storage")
		_, err := tr.call(root, "storage.ReplayWAL", func() (int64, error) {
			s, _, err := storage.ReplayWAL(dir)
			return int64(len(s)), err
		})
		if err == nil {
			_, err = tr.call(root, "storage.SaveSnapshot", func() (int64, error) {
				_, err := storage.SaveSnapshot(dir, tables, uint64(i+1))
				return 0, err
			})
		}
		if err == nil {
			_, err = tr.call(root, "storage.LoadSnapshot", func() (int64, error) {
				ts, _, err := storage.LoadSnapshot(dir)
				return int64(len(ts)), err
			})
		}
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

// starTables returns the replica's S and T, decomposing R when the
// workload has none.
func (p *prober) starTables() (s, t *colstore.Table, err error) {
	if s, err = p.rp.table("S"); err == nil {
		if t, err = p.rp.table("T"); err == nil {
			return s, t, nil
		}
	}
	if err := p.rp.apply("COPY TABLE R TO R2"); err != nil {
		return nil, nil, err
	}
	if err := p.rp.apply("DECOMPOSE TABLE R2 INTO S (A, B), T (A, C)"); err != nil {
		return nil, nil, err
	}
	if s, err = p.rp.table("S"); err != nil {
		return nil, nil, err
	}
	t, err = p.rp.table("T")
	return s, t, err
}

// probeStar times the operators and planner of a selective star join
// and a GROUP BY on the replica.
func (p *prober) probeStar(tr *tracer) error {
	needJoin := len(tr.named("colquery.SemiJoinMask")) == 0
	needGroup := len(tr.named("colquery.Run")) == 0
	if !needJoin && !needGroup {
		return nil
	}
	s, t, err := p.starTables()
	if err != nil {
		return err
	}
	r, err := p.rp.table("R")
	if err != nil {
		return err
	}
	for i, start := 0, time.Now(); probeMore(i, 10, start); i++ {
		root, end := probeRoot(tr, "star")
		c := p.c()
		if needJoin {
			err = traceJoin(tr, root, s, t, c, p.rp.par)
			if err == nil {
				_, _, err = traceSelect(tr, root, p.rp, p.cache, joinCountSQL+c+"'", p.rp.eng.Version())
			}
		}
		if err == nil && needGroup {
			err = traceGroupBy(tr, root, r, p.rp.par)
		}
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

// probeEvolve times DECOMPOSE and MERGE of R on the evolve layer.
func (p *prober) probeEvolve(tr *tracer) error {
	if len(tr.named("evolve.Decompose")) > 0 {
		return nil
	}
	t := p.rp.base
	for i := 0; i < 2; i++ {
		root, end := probeRoot(tr, "evolve")
		merged, _, _, err := traceEvolve(tr, root, t, p.rp.par)
		end()
		if err != nil {
			return err
		}
		t = merged
	}
	return nil
}

// probeServer serves the live database over HTTP (unless the workload
// already does). It times a point count through POST /query and the same
// query through the facade's RunQuery back to back: the HTTP span's self
// time is the server's overhead, measured on a request whose engine work
// is small. Workloads that make no HTTP reads also read rows through it,
// for the response size.
func (p *prober) probeServer(tr *tracer) error {
	base := p.base
	if base == "" {
		h := &htapServe{memDB: memDB{db: p.db}}
		if err := h.serve(); err != nil {
			return err
		}
		defer func() { _ = h.stopServer() }() // the probe's result is already recorded
		base = h.base
	}
	conn := newConn()
	defer conn.CloseIdleConnections()
	reads := len(tr.named("server.POST /query")) == 0
	for i, start := 0, time.Now(); probeMore(i, 20, start); i++ {
		where := "A = '" + p.key() + "'"
		root, end := probeRoot(tr, "server")
		req := queryRequest{Table: "R", Where: where, Aggregates: []aggSpec{{Func: "count"}}}
		web, err := tr.call(root, "server.POST /query(count)", func() (int64, error) {
			n, err := post(conn, base+"/query", req, nil)
			return int64(n), err
		})
		if err == nil {
			var run int
			run, err = tr.call(root, "cods.DB.RunQuery(count)", func() (int64, error) {
				_, err := p.db.RunQuery("R", cods.TableQuery{Where: where, Aggregates: []cods.Agg{{Func: cods.Count}}})
				return 0, err
			})
			tr.adopt(web, run)
		}
		if err == nil && reads && i%2 == 0 {
			_, _, err = traceHTTPQuery(tr, root, conn, base, queryRequest{Table: "R", Where: where})
		}
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

// traceHTTPQuery times one POST /query and accumulates the response's
// size and row count. It returns the decoded response and the span.
func traceHTTPQuery(tr *tracer, root int, conn *http.Client, base string, req queryRequest) (*queryResponse, int, error) {
	var resp queryResponse
	web, err := tr.call(root, "server.POST /query", func() (int64, error) {
		n, err := post(conn, base+"/query", req, &resp)
		return int64(n), err
	})
	tr.add("server.response_bytes", float64(tr.spans[web-1].Work))
	tr.add("server.response_rows", float64(len(resp.Rows)))
	return &resp, web, err
}

// probeFacade times the facade's own cost on point reads whose engine
// work is small enough for it to show: DB.Count, with parse and
// Overlay.Count on the replica as its children, and a single-table
// point-count SELECT, with parse and plan.Run on the replica as its
// children.
func (p *prober) probeFacade(tr *tracer) error {
	ov, err := p.rp.overlay("R")
	if err != nil {
		return err
	}
	cat := p.rp.eng.Catalog()
	for i, start := 0, time.Now(); probeMore(i, 20, start); i++ {
		cond := "A = '" + p.key() + "'"
		stmt := "SELECT count(*) FROM R WHERE " + cond
		root, end := probeRoot(tr, "facade")
		count, err := tr.call(root, "cods.DB.Count", func() (int64, error) {
			n, err := p.db.Count("R", cond)
			return int64(n), err
		})
		if err == nil {
			var parse, inner int
			parse, inner, err = traceCount(tr, root, ov, cond)
			tr.adopt(count, parse, inner)
		}
		var sel, parse, run int
		if err == nil {
			sel, err = tr.call(root, "cods.DB.Select(point count)", func() (int64, error) {
				_, err := p.db.Select(stmt)
				return 0, err
			})
		}
		var op smo.Op
		if err == nil {
			parse, err = tr.call(root, "smo.Parse(select)", func() (int64, error) {
				var err error
				op, err = smo.Parse(stmt)
				return 0, err
			})
		}
		if err == nil {
			var q plan.Query
			if q, err = planQuery(op.(smo.Select), p.rp.eng.Version(), p.rp.par); err == nil {
				run, err = tr.call(root, "plan.Run(point count)", func() (int64, error) {
					_, err := plan.Run(cat.Table, q, p.cache)
					return 0, err
				})
			}
		}
		tr.adopt(sel, parse, run)
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

// probeSegments reads R's live segment count and times a merge of the
// segments of R where the traced DML left it: the replica's engine on
// workloads that write, the DML probe's copy otherwise.
func (p *prober) probeSegments(tr *tracer) error {
	for _, ts := range p.db.MemStats().Tables {
		if ts.Table == "R" {
			tr.gauge("colstore.segments", float64(ts.Segments))
		}
	}
	t, err := p.dml.eng.Catalog().Table("R")
	if err != nil {
		return err
	}
	for i, start := 0, time.Now(); probeMore(i, 3, start); i++ {
		root, end := probeRoot(tr, "segments")
		_, err := tr.call(root, "colstore.MergeSegments", func() (int64, error) {
			seg, err := colstore.MergeSegments(t.Segments(), p.rp.par)
			if err != nil {
				return 0, err
			}
			return int64(seg.NumRows()), nil
		})
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

// traceGroupBy times GROUP BY C count(*) on the column-query layer.
func traceGroupBy(tr *tracer, root int, r *colstore.Table, par int) error {
	_, err := tr.call(root, "colquery.Run", func() (int64, error) {
		rs, err := colquery.Run(r, colquery.Query{
			GroupBy: "C", Aggregates: []colquery.Agg{{Func: colquery.Count}}, Parallelism: par,
		})
		if err != nil {
			return 0, err
		}
		return int64(len(rs.Rows)), nil
	})
	return err
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"cods"
	"cods/internal/colquery"
	"cods/internal/colstore"
	"cods/internal/server"
)

// htapConfig is the engine configuration of htap-serve, identical on
// every commit measured: retention of 8 versions and an auto-compaction
// threshold low enough that compactions (flushes into new segments, then
// segment merges) complete throughout a run. Every DML statement touches
// one row (see htapOps), so the threshold settles on compacting at every
// third UPDATE. In between, two point reads in three follow an UPDATE's
// deletion mark on the base segment and pay its rewrite in the flush, so
// the reads' median and p90 both fall inside that group; and three
// writes in four are plain inserts and deletes, so the writes' median
// falls well inside those. Percentiles on the edge between two groups
// would jump from run to run.
var htapConfig = cods.Config{RetainVersions: 8, AutoCompactPending: 14}

const (
	// htapRate is connection 1's fixed open-loop rate: about a third of
	// what the engine sustains on a 2-CPU host.
	htapRate = 20.0
	// htapEvolvePeriod is connection 2's cycle period.
	htapEvolvePeriod = 2 * time.Second
	// htapWarmup is the start of the schedule whose samples are
	// discarded.
	htapWarmup = time.Second
)

func init() {
	register(&workload{
		name:    "htap-serve",
		why:     "main=/query point reads, side=keyed DML via /exec, plus GROUP BY, 20 ops/s open loop over HTTP beside COPY/DECOMPOSE/MERGE/DROP: delta writes and flushes, server, core; tail=p90",
		size:    tableSize{rows: 50_000, keys: 5_000, zipf: 1.2},
		main:    "query",
		side:    "write",
		tailPct: 90,
		newInstance: func(e *env) (instance, error) {
			h := &htapServe{memDB: memDB{e: e, data: generate(e.size, e.cfg.seed), cfg: htapConfig}}
			h.shadow = newShadow(h.data)
			e.echof("engine: in-memory, RetainVersions=%d, AutoCompactPending=%d, served by server.New on loopback", htapConfig.RetainVersions, htapConfig.AutoCompactPending)
			e.echof("connection 1: open loop at %g ops/s, cycle [dml, query, dml, query, dml, query, dml, scan]; latency from scheduled send; first %v discarded", htapRate, htapWarmup)
			e.echof("connection 2: every %v COPY TABLE R TO E, DECOMPOSE, MERGE back, DROP TABLE E", htapEvolvePeriod)
			return h, nil
		},
	})
}

// htapServe serves an in-memory database over HTTP and drives it with
// two connections: keyed writes, point reads and scans on a schedule,
// and a periodic evolution cycle. The database is not durable: on a
// shared virtual disk one fsync takes about a millisecond with stalls of
// tens to hundreds, which would make every latency measured from the
// schedule a reading of the host's disk. WAL appends, snapshots and
// replay are timed per layer (storage.*) instead.
type htapServe struct {
	memDB
	srv    *server.Server
	served chan error
	base   string
	shadow *shadow
}

func (h *htapServe) setup() error {
	if err := h.load(); err != nil {
		return err
	}
	if err := h.serve(); err != nil {
		return err
	}
	_, err := get(http.DefaultClient, h.base+"/healthz")
	return err
}

// serve starts the HTTP server on a loopback port.
func (h *htapServe) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h.srv = server.New(h.db, server.Config{})
	h.base = "http://" + ln.Addr().String()
	h.served = make(chan error, 1)
	go func() { h.served <- h.srv.Serve(ln) }()
	return nil
}

// stopServer shuts the server down and waits for Serve to return.
func (h *htapServe) stopServer() error {
	if h.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.srv.Shutdown(ctx)
	if serr := <-h.served; err == nil {
		err = serr
	}
	h.srv = nil
	return err
}

func (h *htapServe) close() error {
	err := h.stopServer()
	h.db = nil
	return err
}

// newConn returns an HTTP client that holds one connection.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

func (h *htapServe) measure() error {
	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(htapWarmup + h.e.window)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.evolveLoop(start, end, stop)
	}()
	h.writeLoop(newHTAPOps(h.data, h.e.cfg.seed), start, end)
	close(stop)
	wg.Wait()
	// The window runs from the first recorded due time to the last
	// completion, so a server that falls behind the schedule lowers
	// ops_per_s.
	h.e.rec.window = time.Since(start.Add(htapWarmup))
	return h.settle()
}

// settle brings the database to its current state alone before heap_mb
// is read: pending DML compacted into the base and rollback history
// retired. Which earlier versions are retained, and which of them cached
// a flushed table, depends on where the seed's writes fell at the end of
// the window; the current state does not. The closed-loop workloads end
// in the same state on every run and are read unsettled.
func (h *htapServe) settle() error {
	if err := h.db.Compact(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	h.db.Prune(0)
	return nil
}

// htapOp is one op of connection 1's seeded sequence.
type htapOp struct {
	kind string // "write", "query" or "scan"
	stmt string // the DML statement of a write
	key  string // the key a query reads
	// apply updates the shadow once the write has committed.
	apply func(*shadow)
}

// htapOps draws connection 1's op sequence: the keyed DML shape (insert,
// update, insert, delete) interleaved with point reads of keys the
// client wrote and GROUP BY scans.
//
// Every DML statement touches one row, so the pending rows, and with
// them the compactions and the segment layout, follow the same schedule
// on every seed: an UPDATE sets B of a base key that holds the fewest
// rows (one, at full size), and a DELETE removes the oldest inserted key
// still live. Updates of uniformly drawn zipf keys touch anywhere from
// none to hundreds of rows, and whether a point read pays the rewrite of
// the deletion-touched base segment then depends on the seed.
type htapOps struct {
	d        *dataset
	rng      *rand.Rand
	i, dml   int
	inserted int
	written  []string
	fewest   []string // base keys with the fewest rows
	live     []string // inserted keys not yet deleted, oldest first
}

func newHTAPOps(d *dataset, seed int64) *htapOps {
	o := &htapOps{d: d, rng: rand.New(rand.NewSource(seed + 1))}
	least := len(d.rows)
	for _, rows := range d.rowsOfKey {
		if n := len(rows); n > 0 && n < least {
			least = n
		}
	}
	for k, rows := range d.rowsOfKey {
		if len(rows) == least {
			o.fewest = append(o.fewest, d.keys[k])
		}
	}
	return o
}

func (o *htapOps) next() htapOp {
	slot := o.i % 8
	o.i++
	switch {
	case slot == 7:
		return htapOp{kind: "scan"}
	case slot%2 == 1:
		return htapOp{kind: "query", key: o.written[o.rng.Intn(len(o.written))]}
	}
	d := o.d
	n := o.dml
	o.dml++
	switch n % 4 {
	case 0, 2:
		key := fmt.Sprintf("n%07d", o.inserted)
		o.inserted++
		b, c := d.bs[o.rng.Intn(len(d.bs))], d.cs[o.rng.Intn(len(d.cs))]
		o.written = append(o.written, key)
		o.live = append(o.live, key)
		return htapOp{kind: "write", key: key,
			stmt:  fmt.Sprintf("INSERT INTO R VALUES ('%s', '%s', '%s')", key, b, c),
			apply: func(s *shadow) { s.insert(key, b, c) }}
	case 1:
		key, b := o.fewest[o.rng.Intn(len(o.fewest))], d.bs[o.rng.Intn(len(d.bs))]
		o.written = append(o.written, key)
		return htapOp{kind: "write", key: key,
			stmt:  fmt.Sprintf("UPDATE R SET B = '%s' WHERE A = '%s'", b, key),
			apply: func(s *shadow) { s.update(key, b) }}
	default:
		key := o.live[0]
		o.live = o.live[1:]
		return htapOp{kind: "write", key: key,
			stmt:  fmt.Sprintf("DELETE FROM R WHERE A = '%s'", key),
			apply: func(s *shadow) { s.delete(key) }}
	}
}

// writeLoop is connection 1: ops sent on a fixed schedule, each timed
// from when it was due.
func (h *htapServe) writeLoop(ops *htapOps, start, end time.Time) {
	conn := newConn()
	defer conn.CloseIdleConnections()
	interval := time.Duration(float64(time.Second) / htapRate)
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j) * interval)
		if !due.Before(end) {
			return
		}
		waitUntil(due)
		record := due.Sub(start) >= htapWarmup
		if record {
			h.e.rec.late(time.Since(due))
		}
		op := ops.next()
		err := h.send(conn, op)
		h.e.rec.done(op.kind, time.Since(due), err, record)
	}
}

// waitUntil returns at t: it sleeps until shortly before, then yields
// until t has passed. A timer alone wakes up to a millisecond late on a
// loaded host, which would add the generator's own jitter to every
// latency measured from the schedule.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// send issues one connection-1 op and checks its answer against the
// shadow.
func (h *htapServe) send(conn *http.Client, op htapOp) error {
	switch op.kind {
	case "write":
		var resp execResponse
		if _, err := post(conn, h.base+"/exec", execRequest{Op: op.stmt}, &resp); err != nil {
			return err
		}
		if len(resp.Results) != 1 {
			return wrongf("%s: %d results", op.stmt, len(resp.Results))
		}
		op.apply(h.shadow)
		return nil
	case "query":
		var resp queryResponse
		req := queryRequest{Table: "R", Where: "A = '" + op.key + "'"}
		if _, err := post(conn, h.base+"/query", req, &resp); err != nil {
			return err
		}
		return checkKey(h.shadow, op.key, resp.Rows)
	default:
		var resp queryResponse
		if _, err := post(conn, h.base+"/query", scanRequest, &resp); err != nil {
			return err
		}
		return h.shadow.checkGroups(resp.Rows)
	}
}

var scanRequest = queryRequest{Table: "R", GroupBy: "C", Aggregates: []aggSpec{{Func: "count"}}}

// evolveLoop is connection 2: one evolution cycle per period until
// stop. No cycle starts in the last half period, so the
// versions retained at the end of the window (and with them the heap)
// are connection 1's writes on every run.
func (h *htapServe) evolveLoop(start, end time.Time, stop <-chan struct{}) {
	conn := newConn()
	defer conn.CloseIdleConnections()
	for j := 0; ; j++ {
		due := start.Add(htapEvolvePeriod/2 + time.Duration(j)*htapEvolvePeriod)
		if !due.Before(end.Add(-htapEvolvePeriod / 2)) {
			return
		}
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		record := due.Sub(start) >= htapWarmup
		h.evolveCycle(conn, record)
	}
}

// evolveCycle copies R, round-trips the copy through DECOMPOSE and
// MERGE (checking its row count survives) and drops it.
func (h *htapServe) evolveCycle(conn *http.Client, record bool) {
	exec := func(stmt string) error {
		_, err := post(conn, h.base+"/exec", execRequest{Op: stmt}, nil)
		return err
	}
	count := func() (int, error) {
		var resp queryResponse
		if _, err := post(conn, h.base+"/query", queryRequest{Stmt: "SELECT count(*) FROM E"}, &resp); err != nil {
			return 0, err
		}
		if len(resp.Rows) != 1 || len(resp.Rows[0]) != 1 {
			return 0, wrongf("SELECT count(*) FROM E: %d rows", len(resp.Rows))
		}
		return strconv.Atoi(resp.Rows[0][0])
	}
	timed := func(class string, fn func() error) error {
		begin := time.Now()
		err := fn()
		h.e.rec.done(class, time.Since(begin), err, record)
		return err
	}
	if timed("copy", func() error { return exec("COPY TABLE R TO E") }) != nil {
		return
	}
	before, err := count()
	if err != nil {
		h.e.rec.done("evolve", 0, err, true)
		return
	}
	err = timed("evolve", func() error {
		if err := exec("DECOMPOSE TABLE E INTO ES (A, B), ET (A, C)"); err != nil {
			return err
		}
		return exec("MERGE TABLES ES, ET INTO E")
	})
	if err != nil {
		return
	}
	if after, err := count(); err != nil || after != before {
		if err == nil {
			err = wrongf("DECOMPOSE then MERGE of E: %d rows became %d", before, after)
		}
		h.e.rec.done("evolve", 0, err, true)
		return
	}
	timed("drop", func() error { return exec("DROP TABLE E") })
}

func (h *htapServe) finish() error {
	if err := h.stopServer(); err != nil {
		return err
	}
	h.e.rec.check("live R", checkTableFP(h.db, "R", h.shadow.fp))
	return h.saveAndRecover(h.shadow.userBytes(), func(db *cods.DB) error {
		return checkTableFP(db, "R", h.shadow.fp)
	})
}

// shadow is a plain-Go copy of R that connection 1's own writes keep up
// to date; every read is checked against it.
type shadow struct {
	cOf  map[string]string   // key -> C
	bs   map[string][]string // key -> B of each live row
	perC map[string]int      // C -> live rows
	fp   fingerprint
	keys []string // keys in first-seen order
}

func newShadow(d *dataset) *shadow {
	s := &shadow{cOf: map[string]string{}, bs: map[string][]string{}, perC: map[string]int{}}
	for _, r := range d.rows {
		s.insert(r[0], r[1], r[2])
	}
	return s
}

func (s *shadow) insert(key, b, c string) {
	if _, ok := s.cOf[key]; !ok {
		s.keys = append(s.keys, key)
	}
	s.cOf[key] = c
	s.bs[key] = append(s.bs[key], b)
	s.perC[c]++
	s.fp.add([]string{key, b, c})
}

func (s *shadow) update(key, b string) {
	c := s.cOf[key]
	for i, old := range s.bs[key] {
		s.fp.remove([]string{key, old, c})
		s.fp.add([]string{key, b, c})
		s.bs[key][i] = b
	}
}

func (s *shadow) delete(key string) {
	c := s.cOf[key]
	for _, old := range s.bs[key] {
		s.fp.remove([]string{key, old, c})
		s.perC[c]--
	}
	delete(s.bs, key)
}

func (s *shadow) keyFP(key string) fingerprint {
	var f fingerprint
	for _, b := range s.bs[key] {
		f.add([]string{key, b, s.cOf[key]})
	}
	return f
}

// checkGroups compares a GROUP BY C count(*) answer with the shadow.
func (s *shadow) checkGroups(rows [][]string) error {
	want := 0
	for _, n := range s.perC {
		if n > 0 {
			want++
		}
	}
	if len(rows) != want {
		return wrongf("GROUP BY C returned %d groups, want %d", len(rows), want)
	}
	for _, r := range rows {
		if len(r) != 2 {
			return wrongf("GROUP BY C returned a %d-column row", len(r))
		}
		if n, err := strconv.Atoi(r[1]); err != nil || n != s.perC[r[0]] {
			return wrongf("GROUP BY C: group %s counts %s, want %d", r[0], r[1], s.perC[r[0]])
		}
	}
	return nil
}

// userBytes is the CSV size of the live rows.
func (s *shadow) userBytes() uint64 {
	n := csvBytes(columns)
	for _, k := range s.keys {
		for _, b := range s.bs[k] {
			n += csvBytes([]string{k, b, s.cOf[k]})
		}
	}
	return n
}

// The HTTP API's documented request and response bodies, declared here
// so the benchmark does not depend on the server package's client.
type (
	execRequest struct {
		Op string `json:"op"`
	}
	execResponse struct {
		Results []json.RawMessage `json:"results"`
	}
	aggSpec struct {
		Func string `json:"func"`
	}
	queryRequest struct {
		Stmt       string    `json:"stmt,omitempty"`
		Table      string    `json:"table,omitempty"`
		Where      string    `json:"where,omitempty"`
		GroupBy    string    `json:"group_by,omitempty"`
		Aggregates []aggSpec `json:"aggregates,omitempty"`
	}
	queryResponse struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
)

// post sends body as JSON and decodes a 200 response into out (when
// non-nil). It returns the response body's size.
func post(c *http.Client, url string, body, out any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	return decode(resp, url, out)
}

func get(c *http.Client, url string) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	return decode(resp, url, nil)
}

func decode(resp *http.Response, url string, out any) (int, error) {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return len(raw), fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return len(raw), fmt.Errorf("%s: decoding response: %w", url, err)
		}
	}
	return len(raw), nil
}

func (h *htapServe) traced(tr *tracer) error {
	rp, err := newReplica(h.data.rows, htapConfig)
	if err != nil {
		return err
	}
	h.e.rec.check("replica", rp.checkSegments(h.db))
	// The open-loop schedule with both connections, for the generator's
	// lateness. The untraced pass and the replay then draw the next
	// stretches of the same op sequence: a fresh copy would repeat writes
	// the database already holds (UPDATEs to the B a key has, DELETEs of
	// keys gone), which leaves the reads after them fast and the two
	// passes unlike the measured run.
	ops := newHTAPOps(h.data, h.e.cfg.seed)
	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(htapWarmup + h.e.window/3)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.evolveLoop(start, end, stop)
	}()
	h.writeLoop(ops, start, end)
	close(stop)
	wg.Wait()
	tr.gauge("driver.late_tail_ms", ms(percentile(h.e.rec.lateness, h.e.w.tailPct)))

	conn := newConn()
	defer conn.CloseIdleConnections()
	pr := newProber(h.e, h.data, rp, h.db)
	pr.base = h.base
	return h.e.tracedRun(tr, func() opRunner {
		pr.dml = newDMLState(rp.eng, rp.base, rp.par)
		return func(tr *tracer) (string, time.Duration, error) {
			op := ops.next()
			if tr == nil {
				begin := time.Now()
				err := h.send(conn, op)
				return op.kind, time.Since(begin), err
			}
			root := tr.root("op:" + op.kind)
			defer tr.end(root)
			if op.kind == "write" {
				web, d, err := tr.timed(root, "server.POST /exec", func() (time.Duration, error) {
					begin := time.Now()
					err := h.send(conn, op)
					return time.Since(begin), err
				})
				if err != nil {
					return op.kind, d, err
				}
				apply, err := pr.dml.write(tr, root, op.stmt)
				tr.adopt(web, apply)
				return op.kind, d, err
			}
			req := scanRequest
			if op.kind == "query" {
				req = queryRequest{Table: "R", Where: "A = '" + op.key + "'"}
			}
			resp, web, err := traceHTTPQuery(tr, root, conn, h.base, req)
			if err != nil {
				return op.kind, 0, err
			}
			d := tr.spans[web-1].dur()
			if op.kind == "query" {
				err = checkKey(h.shadow, op.key, resp.Rows)
			} else {
				err = h.shadow.checkGroups(resp.Rows)
			}
			if err != nil {
				return op.kind, d, err
			}
			// What the server's RunQuery does inside: resolve R, which
			// flushes the overlay the writes left, then run the query.
			ov, err := rp.overlay("R")
			if err != nil {
				return op.kind, d, err
			}
			inner := tr.mark()
			var flushed *colstore.Table
			_, err = tr.call(root, "delta.Overlay.Table", func() (int64, error) {
				var err error
				flushed, err = ov.Table()
				return 0, err
			})
			if err == nil {
				if op.kind == "query" {
					_, err = tr.call(root, "colquery.Run(point)", func() (int64, error) {
						rs, err := colquery.Run(flushed, colquery.Query{Where: req.Where, Parallelism: rp.par})
						if err != nil {
							return 0, err
						}
						return int64(len(rs.Rows)), nil
					})
				} else {
					err = traceGroupBy(tr, root, flushed, rp.par)
				}
			}
			tr.adoptSince(web, inner, root)
			if err == nil && op.kind == "query" && pr.dml.ov.Dirty() {
				_, _, err = tracePointQuery(tr, root, pr.dml.ov, req.Where, rp.par)
			}
			return op.kind, d, err
		}
	}, pr)
}

// checkKey compares a point read's rows with the shadow's rows of key.
func checkKey(s *shadow, key string, rows [][]string) error {
	if got, want := fingerprintOf(rows), s.keyFP(key); got != want {
		return wrongf("/query A = '%s' returned %v, want %v", key, got, want)
	}
	return nil
}

package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // multiplies every table size: 1, except in tests
	workDir  string
	spansDir string
}

// workload describes one benchmark workload. Every workload reports the
// same end-to-end metrics; main and side name the op classes behind the
// latency metrics (see README.md for the per-workload mapping).
type workload struct {
	name string
	why  string
	size tableSize
	// main is the class behind main_p50_ms and main_tail_ms; side the
	// class behind side_p50_ms.
	main, side string
	// tailPct is the percentile main_tail_ms reports: the highest of
	// p99/p95/p90/p75/p50 with at least ten samples beyond it at the
	// default run length.
	tailPct float64
	// newInstance generates the inputs and oracles (untimed).
	newInstance func(e *env) (instance, error)
}

// instance is one workload run's state: its generated inputs, oracles
// and the database under test.
type instance interface {
	// setup builds the database from empty to ready. It is timed, and
	// runs several times in an untraced run; each call replaces the
	// database of the previous one.
	setup() error
	// measure runs the measured loop with tracing off.
	measure() error
	// finish runs the end-of-run checks and measures recovery and disk
	// use, after the heap has been read.
	finish() error
	// traced replays the op sequence with spans around every layer
	// call, then probes the layers the ops do not reach.
	traced(tr *tracer) error
	// close releases the database and stops every goroutine started.
	close() error
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

// again reports whether a repeated, timed step (set-up, recovery) needs
// another sample: at least three, and more while they add up to under
// three seconds, up to fifteen. The metric is their median.
func again(samples []time.Duration) bool {
	var total time.Duration
	for _, d := range samples {
		total += d
	}
	return len(samples) < 3 || (len(samples) < 15 && total < 3*time.Second)
}

// env is what a workload instance sees of the harness.
type env struct {
	cfg    runConfig
	w      *workload
	size   tableSize
	rec    *recorder
	dir    string // scratch directory of this run, removed at the end
	window time.Duration
	echo   []string // config echo lines
}

func (e *env) echof(format string, args ...any) {
	e.echo = append(e.echo, fmt.Sprintf(format, args...))
}

// execute runs one workload end to end and returns its result line; the
// human-readable report goes to out first.
func execute(w *workload, cfg runConfig, out io.Writer) (*result, error) {
	e := &env{
		cfg:    cfg,
		w:      w,
		size:   w.size.scaled(cfg.scale),
		rec:    newRecorder(),
		window: time.Duration(cfg.seconds * float64(time.Second)),
	}
	dir, err := filepath.Abs(filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e.dir = dir
	e.echof("table R: %s", e.size)
	e.echof("engine Parallelism: default (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0))

	inst, err := w.newInstance(e)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			_ = inst.close() // error path: the run already failed
		}
	}()
	var metrics map[string]metric
	if cfg.trace {
		tr := newTracer()
		if err := inst.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if err := inst.traced(tr); err != nil {
			return nil, err
		}
		closed = true
		if err := inst.close(); err != nil {
			return nil, err
		}
		if err := tr.dump(filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))); err != nil {
			return nil, err
		}
		metrics = layerMetrics(tr)
	} else {
		base := liveHeap()
		for i := 0; again(e.rec.setups); i++ {
			if i > 0 {
				if err := inst.close(); err != nil {
					return nil, err
				}
			}
			runtime.GC() // each set-up starts from a collected heap
			start := time.Now()
			if err := inst.setup(); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			e.rec.setups = append(e.rec.setups, time.Since(start))
		}
		// Every run starts measuring from a collected heap and with no
		// dirty file data left to write back, so the window does not
		// share the disk with what an earlier run or process wrote.
		runtime.GC()
		syscall.Sync()
		if err := inst.measure(); err != nil {
			return nil, err
		}
		e.rec.heapMB = float64(int64(liveHeap())-int64(base)) / (1 << 20)
		if err := inst.finish(); err != nil {
			return nil, err
		}
		closed = true
		if err := inst.close(); err != nil {
			return nil, err
		}
		metrics = e.endToEnd()
	}
	e.printReport(out, metrics)
	return &result{
		Correct:   e.rec.failed == 0,
		Attempted: max(e.rec.attempted, 1),
		Failed:    e.rec.failed,
		Metrics:   metrics,
	}, nil
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// errWrong marks an answer that disagrees with its oracle.
var errWrong = errors.New("wrong answer")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

// class is one op class's latency samples and failures.
type class struct {
	lat       []time.Duration
	attempted int
	failed    int
}

// recorder collects what a run measures. It is safe for concurrent
// use by the clients of one run.
type recorder struct {
	mu        sync.Mutex
	classes   map[string]*class
	order     []string
	attempted int
	failed    int
	errs      []string
	window    time.Duration
	setups    []time.Duration
	recovers  []time.Duration
	lateness  []time.Duration
	heapMB    float64
	diskRatio float64
}

func newRecorder() *recorder { return &recorder{classes: map[string]*class{}} }

// late records how far behind schedule an open-loop op was sent.
func (r *recorder) late(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lateness = append(r.lateness, d)
}

func (r *recorder) class(name string) *class {
	c, ok := r.classes[name]
	if !ok {
		c = &class{}
		r.classes[name] = c
		r.order = append(r.order, name)
	}
	return c
}

// done records one op. Warm-up ops (record false) are discarded unless
// they fail: a failure always counts.
func (r *recorder) done(name string, d time.Duration, err error, record bool) {
	if !record && err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.class(name)
	c.attempted++
	r.attempted++
	if err != nil {
		c.failed++
		r.failed++
		if len(r.errs) < 8 {
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", name, err))
		}
		return
	}
	c.lat = append(c.lat, d)
}

// check records an end-of-run check as an attempted op.
func (r *recorder) check(name string, err error) { r.done("check:"+name, 0, err, true) }

// closedLoop runs op back to back, one client: a warm-up whose samples
// are discarded, then until the ops' own time fills the window. op
// returns the time of the engine call it timed; time spent checking
// answers is outside it, so oracles do not dilute throughput.
func (e *env) closedLoop(op func(record bool) time.Duration) {
	warm := min(e.window/10, 500*time.Millisecond)
	for busy := time.Duration(0); busy < warm; {
		busy += op(false)
	}
	var busy time.Duration
	for busy < e.window {
		busy += op(true)
	}
	e.rec.window = busy
}

// percentile is the nearest-rank percentile of exact samples.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEndMetrics are reported by every untraced run, on every workload.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"main_p50_ms", "ms"},
	{"main_tail_ms", "ms"},
	{"side_p50_ms", "ms"},
	{"heap_mb", "MB"},
	{"recover_s", "s"},
	{"disk_bytes_per_user_byte", "ratio"},
}

func (e *env) endToEnd() map[string]metric {
	r := e.rec
	main, side := r.class(e.w.main), r.class(e.w.side)
	completed := 0
	for _, c := range r.classes {
		completed += len(c.lat)
	}
	vals := map[string]float64{
		"setup_s":                  percentile(r.setups, 50).Seconds(),
		"ops_per_s":                float64(completed) / r.window.Seconds(),
		"main_p50_ms":              ms(percentile(main.lat, 50)),
		"main_tail_ms":             ms(percentile(main.lat, e.w.tailPct)),
		"side_p50_ms":              ms(percentile(side.lat, 50)),
		"heap_mb":                  r.heapMB,
		"recover_s":                percentile(r.recovers, 50).Seconds(),
		"disk_bytes_per_user_byte": r.diskRatio,
	}
	out := make(map[string]metric, len(vals))
	for _, m := range endToEndMetrics {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// printReport writes the human-readable part of the output: host facts,
// the config echo, per-class sample counts and percentiles, and every
// metric by name and unit.
func (e *env) printReport(out io.Writer, metrics map[string]metric) {
	mode := "end-to-end, tracing off"
	if e.cfg.trace {
		mode = "per-layer, traced replay"
	}
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g scale=%g (%s)\n", e.w.name, e.cfg.seed, e.cfg.seconds, e.cfg.scale, mode)
	for _, h := range hostFacts() {
		fmt.Fprintf(out, "  host   %s\n", h)
	}
	for _, l := range e.echo {
		fmt.Fprintf(out, "  config %s\n", l)
	}
	if !e.cfg.trace {
		fmt.Fprintf(out, "  config main class %q (tail = p%g), side class %q\n", e.w.main, e.w.tailPct, e.w.side)
	}
	for _, name := range e.rec.order {
		c := e.rec.classes[name]
		n := len(c.lat)
		line := fmt.Sprintf("  class  %-12s attempted=%d failed=%d samples=%d", name, c.attempted, c.failed, n)
		if n > 0 && !strings.HasPrefix(name, "check:") {
			line += fmt.Sprintf(" p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms",
				ms(percentile(c.lat, 50)), ms(percentile(c.lat, 90)), ms(percentile(c.lat, 99)), ms(percentile(c.lat, 100)))
			if name == e.w.main {
				beyond := n - int(math.Ceil(e.w.tailPct/100*float64(n)))
				line += fmt.Sprintf(" tail=p%g (%d samples beyond)", e.w.tailPct, beyond)
			}
		}
		fmt.Fprintln(out, line)
	}
	for _, err := range e.rec.errs {
		fmt.Fprintf(out, "  error  %s\n", err)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  metric %-36s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

// hostFacts describes the machine and build a run measured.
func hostFacts() []string {
	return []string{
		fmt.Sprintf("nproc=%d GOMAXPROCS=%d", runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		fmt.Sprintf("cpu=%q", cpuModel()),
		fmt.Sprintf("go=%s %s/%s", runtime.Version(), runtime.GOOS, runtime.GOARCH),
		fmt.Sprintf("commit=%s", gitCommit()),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checkout's HEAD without running git; a checkout
// without .git reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown (" + ref + ")"
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) (uint64, error) {
	var n uint64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += uint64(info.Size())
		}
		return nil
	})
	return n, err
}

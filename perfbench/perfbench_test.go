package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"cods"
)

// tinyConfig runs a workload at a hundredth of its size for a fraction
// of a second.
func tinyConfig(t *testing.T, trace bool) runConfig {
	return runConfig{seed: 7, seconds: 0.3, trace: trace, scale: 0.01, workDir: t.TempDir(), spansDir: t.TempDir()}
}

func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				var out strings.Builder
				res, err := execute(workloads[name], tinyConfig(t, trace), &out)
				if err != nil {
					t.Fatalf("execute: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v\n%s", res, out.String())
				}
				want := endToEndMetrics
				if trace {
					want = nil
					for _, s := range layerSpecs {
						want = append(want, metricSpec{s.name, s.unit})
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s = %+v, want unit %s", m.name, got, m.unit)
					}
				}
			})
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if got, ok := workloads[w.Name]; !ok || got.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json why %q does not match the code", w.Name, w.Why)
		}
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames())
	}
	var e2e, layers []metricSpec
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricSpec{m.Name, m.Unit})
	}
	var code []metricSpec
	for _, s := range layerSpecs {
		code = append(code, metricSpec{s.name, s.unit})
	}
	if !sameSpecs(e2e, endToEndMetrics) {
		t.Errorf("end_to_end %v, code %v", e2e, endToEndMetrics)
	}
	if !sameSpecs(layers, code) {
		t.Errorf("per_layer %v, code %v", layers, code)
	}
}

func sameSpecs(a, b []metricSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// faultRun sets a workload up at tiny scale, lets inject corrupt the
// database (or the oracle) behind the other's back, before the measured
// loop or, with late, after it, runs the end-of-run checks, and returns
// the run's recorder.
func faultRun(t *testing.T, name string, late bool, inject func(inst instance) error) *recorder {
	t.Helper()
	w := workloads[name]
	e := &env{cfg: tinyConfig(t, false), w: w, size: w.size.scaled(0.01), rec: newRecorder(),
		window: 300 * time.Millisecond, dir: t.TempDir()}
	inst, err := w.newInstance(e)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	if err := inst.setup(); err != nil {
		t.Fatal(err)
	}
	if !late {
		if err := inject(inst); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.measure(); err != nil {
		t.Fatal(err)
	}
	if late {
		if err := inject(inst); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.finish(); err != nil {
		t.Fatal(err)
	}
	return e.rec
}

func TestOraclesRejectInjectedFaults(t *testing.T) {
	cases := []struct {
		name, workload string
		late           bool
		inject         func(inst instance) error
	}{
		{"point-read dropped rows", "point-read", false, func(inst instance) error {
			_, err := inst.(*pointRead).db.Exec("DELETE FROM R WHERE A = 'k0000000'")
			return err
		}},
		{"point-read off-by-one count", "point-read", false, func(inst instance) error {
			_, err := inst.(*pointRead).db.Exec("INSERT INTO R VALUES ('k0000000', 'b0000000', 'c9999999')")
			return err
		}},
		{"star-select extra join row", "star-select", false, func(inst instance) error {
			s := inst.(*starSelect)
			_, err := s.db.Exec("INSERT INTO S VALUES ('" + s.data.rows[0][0] + "', 'b9999999')")
			return err
		}},
		{"star-select dropped row of R", "star-select", false, func(inst instance) error {
			s := inst.(*starSelect)
			_, err := s.db.Exec("DELETE FROM R WHERE A = '" + s.data.rows[0][0] + "'")
			return err
		}},
		{"evolve extra row", "evolve", false, func(inst instance) error {
			_, err := inst.(*evolveLoad).db.Exec("INSERT INTO R VALUES ('k0000000', 'b0000000', 'c9999999')")
			return err
		}},
		{"htap-serve lost write", "htap-serve", false, func(inst instance) error {
			// A write the client never made: its shadow, and so every
			// read and the recovered table, must disagree.
			h := inst.(*htapServe)
			_, err := h.db.Exec("DELETE FROM R WHERE A = '" + h.data.rows[0][0] + "'")
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if rec := faultRun(t, c.workload, c.late, c.inject); rec.failed == 0 {
				t.Fatal("the oracles accepted a corrupted database")
			}
		})
	}
	t.Run("htap-serve write lost on reopen", func(t *testing.T) {
		// The live database is intact; only the saved catalog lacks the
		// rows of one key, so only the check of the reopened database
		// may fail.
		rec := faultRun(t, "htap-serve", true, func(inst instance) error {
			h := inst.(*htapServe)
			key := h.data.rows[0][0]
			h.afterSave = func(dir string) error {
				db, err := cods.OpenDir(dir, h.cfg)
				if err != nil {
					return err
				}
				if _, err := db.Exec("DELETE FROM R WHERE A = '" + key + "'"); err != nil {
					return err
				}
				if err := os.RemoveAll(dir); err != nil {
					return err
				}
				return db.Save(dir)
			}
			return nil
		})
		if got := rec.class("check:recovered").failed; got != 1 || rec.failed != 1 {
			t.Fatalf("check:recovered failed %d times, all checks and ops %d; want 1 and 1", got, rec.failed)
		}
	})
	t.Run("clean runs pass", func(t *testing.T) {
		for _, name := range workloadNames() {
			if rec := faultRun(t, name, false, func(instance) error { return nil }); rec.failed != 0 {
				t.Errorf("%s: %d ops failed on an intact database", name, rec.failed)
			}
		}
	})
}

func TestFingerprintDetectsChanges(t *testing.T) {
	rows := [][]string{{"k1", "b1", "c1"}, {"k1", "b2", "c1"}, {"k2", "b1", "c2"}}
	base := fingerprintOf(rows)
	if fingerprintOf([][]string{rows[2], rows[0], rows[1]}) != base {
		t.Error("fingerprint depends on row order")
	}
	for _, changed := range [][][]string{
		rows[:2],
		append(append([][]string(nil), rows...), rows[0]),
		{{"k1", "b1", "c1"}, {"k1", "b2", "c1"}, {"k2", "b1", "c3"}},
		{{"k1b", "1", "c1"}, {"k1", "b2", "c1"}, {"k2", "b1", "c2"}},
	} {
		if fingerprintOf(changed) == base {
			t.Errorf("fingerprint of %v equals the original's", changed)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.root("op")
	parent, _ := tr.call(root, "parent", func() (int64, error) { time.Sleep(20 * time.Millisecond); return 0, nil })
	child, _ := tr.call(root, "child", func() (int64, error) { time.Sleep(5 * time.Millisecond); return 0, nil })
	tr.adopt(parent, child)
	tr.end(root)
	self := tr.medianSelf("parent")
	if self < 10*time.Millisecond || self > tr.medianDur("parent")-5*time.Millisecond {
		t.Errorf("self time %v of a 20ms span with a 5ms child", self)
	}
}

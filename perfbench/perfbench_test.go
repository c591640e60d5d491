package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func tinyOpts(t *testing.T) runOpts {
	return runOpts{seed: 7, window: 100 * time.Millisecond, setups: 1, tiny: true, root: "..", dir: t.TempDir()}
}

// TestSmoke runs every workload at tiny size, untraced, and checks that
// every output was right and every end-to-end metric is a positive number.
func TestSmoke(t *testing.T) {
	for _, w := range workloadList() {
		t.Run(w.name, func(t *testing.T) {
			r, ms, err := runWorkload(w.name, tinyOpts(t), false)
			if err != nil {
				t.Fatal(err)
			}
			if r.attempted == 0 || r.failed != 0 {
				t.Fatalf("attempted %d, failed %d", r.attempted, r.failed)
			}
			for _, m := range ms {
				if v, ok := r.m[m.name]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (present %v), want a positive number", m.name, v, ok)
				}
			}
		})
	}
}

// TestTraced runs one workload traced at tiny size: every per-layer
// metric is reported, and serve-shm's layer costs plus its residual add
// up to its median latency.
func TestTraced(t *testing.T) {
	o := tinyOpts(t)
	r, ms, err := runWorkload("serve-shm", o, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("failed %d of %d", r.failed, r.attempted)
	}
	for _, m := range ms {
		if v, ok := r.m[m.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v (present %v)", m.name, v, ok)
		}
	}
	sum := r.m["wire.encode_check_ns"] + r.m["wire.decode_check_ns"] + r.m["shm.ring_rtt_ns"] + r.m["engine.check_ns.serve"]
	if got, want := sum+r.m["serve.residual_ns"], r.m["serve.check_p50_ns"]; math.Abs(got-want) > 1e-6*want {
		t.Errorf("layers + residual = %v, want check p50 %v", got, want)
	}
	if _, err := os.Stat(filepath.Join(o.dir, "spans", "serve-shm-seed7.tsv")); err != nil {
		t.Errorf("spans not written: %v", err)
	}
}

// TestCorruptReference shows each workload's output check fails when its
// reference is wrong in one entry.
func TestCorruptReference(t *testing.T) {
	for _, name := range []string{"serve-shm", "embed-args", "churn-swap"} {
		t.Run(name, func(t *testing.T) {
			o := tinyOpts(t)
			o.corruptReference = true
			r, _, err := runWorkload(name, o, false)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed == 0 {
				t.Fatalf("corrupted reference: 0 of %d outputs failed", r.attempted)
			}
		})
	}
}

// TestSimCSV runs the simulator at full size and the default seed against
// the committed figures, then against a copy with one entry changed in the
// third decimal: exactly that cell must fail.
func TestSimCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulation")
	}
	o := runOpts{seed: defaultSeed, window: time.Nanosecond, setups: 1, root: "..", dir: t.TempDir()}
	r, _, err := runWorkload("sim-paper", o, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.attempted != int64(len(simCells)*len(simWorkloads)) {
		t.Fatalf("committed figures: failed %d of %d", r.failed, r.attempted)
	}

	bad := t.TempDir()
	if err := os.MkdirAll(filepath.Join(bad, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fig11.csv", "fig12.csv"} {
		b, err := os.ReadFile(filepath.Join("..", "results", f))
		if err != nil {
			t.Fatal(err)
		}
		if f == "fig11.csv" {
			s := strings.Replace(string(b), "httpd,1.043,", "httpd,1.044,", 1)
			if s == string(b) {
				t.Fatal("httpd row not found in fig11.csv")
			}
			b = []byte(s)
		}
		if err := os.WriteFile(filepath.Join(bad, "results", f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	o.root = bad
	r, _, err = runWorkload("sim-paper", o, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 {
		t.Fatalf("one corrupted CSV entry: failed %d of %d, want 1", r.failed, r.attempted)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{kind: spSimCell, parent: -1, start: 0, end: 100},
		{kind: spSimGenerate, parent: 0, start: 10, end: 30},
		{kind: spSimTrain, parent: 0, start: 20, end: 50},     // overlaps the first child
		{kind: spSimRun, parent: 0, start: 90, end: 120},      // runs past its parent
		{kind: spSimGenerate, parent: 3, start: 95, end: 105}, // grandchild
		{kind: spEmbedBlock, parent: -1, start: 5, end: 9},
	}
	got := selfTimes(spans)
	// Parent: 100 minus [10,50) and [90,100) = 50. The run span: 30 minus
	// its child's 10.
	want := []int64{50, 20, 30, 20, 10, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", i, got[i], want[i])
		}
	}
	mean := meanSelfNs(spans)
	if mean[spSimGenerate] != 15 {
		t.Errorf("mean self of sim.generate = %v, want 15", mean[spSimGenerate])
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's metric lists in
// step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the program", w.Name)
		}
	}
	if len(names) != len(workloadList()) {
		t.Errorf("BENCHMARK.json lists %v, the program %d workloads", names, len(workloadList()))
	}
	same := func(kind string, declared []struct{ Name, Unit string }, ms []metric) {
		if len(declared) != len(ms) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(declared), len(ms))
			return
		}
		for i, m := range ms {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
}

// Command perfbench is the repository benchmark: four workloads, each
// driving one stack of layers through their public functions, checking
// every output, and printing its metrics by name with their units. See
// README.md in this directory for the workloads, the metrics and the
// layer each metric belongs to.
//
//	perfbench --workload serve-shm --seed 3 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 they are the per-layer ones, and
// the spans are written under .bench_build/spans/.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"draco/internal/stats"
)

// defaultSeed is the seed the committed results/*.csv were generated with.
const defaultSeed = 1

// runOpts is what one workload run is given.
type runOpts struct {
	seed int64
	// window is the total measured time; runs split it into windows.
	window time.Duration
	// setups is how many times set-up is repeated (the median is reported).
	setups int
	// tiny selects small inputs: the tests' smoke runs and the traced
	// run's probes of the other workloads.
	tiny bool
	// tr records spans; nil in an untraced run. Per-layer metrics are
	// measured only when it is set.
	tr *tracer
	// root is the repository root (results/*.csv are read from it); dir
	// is where temporary files go.
	root, dir string
	// corruptReference makes the workload corrupt one entry of its output
	// reference after set-up; the tests use it to show the check fails.
	corruptReference bool
}

// report is one workload run's outcome: operations attempted, operations
// whose output was wrong or that returned an error, and metric values.
type report struct {
	attempted, failed int64
	m                 map[string]float64
}

func newReport() *report { return &report{m: make(map[string]float64)} }

// check counts one checked output.
func (r *report) check(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

type workload struct {
	name string
	run  func(o *runOpts) (*report, error)
	// layers lists the per-layer metrics the workload reports when traced.
	layers []metric
}

type metric struct{ name, unit string }

var endToEnd = []metric{
	{"ops_per_s", "1/s"},
	{"latency_p50_ns", "ns"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// commonLayers are reported by every traced run.
func commonLayers() []metric {
	ms := []metric{
		{"host.cpu_calib_ns", "ns"},
		{"host.mem_calib_ns", "ns"},
		{"host.steal_frac", "ratio"},
		{"trace.overhead_frac", "ratio"},
	}
	for _, n := range spanNames {
		ms = append(ms, metric{"span." + n + ".self_ns", "ns"})
	}
	return ms
}

func workloadList() []workload {
	return []workload{
		{"serve-shm", runServe, serveLayers},
		{"embed-args", runEmbed, embedLayers},
		{"churn-swap", runChurn, churnLayers},
		{"sim-paper", runSim, simLayers()},
	}
}

// perLayer lists every per-layer metric in output order.
func perLayer() []metric {
	var ms []metric
	for _, w := range workloadList() {
		ms = append(ms, w.layers...)
	}
	return append(ms, commonLayers()...)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadList() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// probeWindow is how long the traced run measures each other workload.
const probeWindow = 300 * time.Millisecond

// runWorkload runs one workload untraced (end-to-end metrics) or traced
// (per-layer metrics) and returns the metrics in their declared order.
func runWorkload(name string, o runOpts, traced bool) (*report, []metric, error) {
	w, ok := findWorkload(name)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	steal0, total0 := cpuTicks()
	if !traced {
		r, err := w.run(&o)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		r.m["peak_rss_mb"] = peakRSSMB()
		r.m["host.steal_frac"] = stealSince(steal0, total0)
		return r, endToEnd, nil
	}

	// Traced: the same workload untraced and then traced, half the window
	// each, so trace.overhead_frac compares like with like; then a short
	// traced probe of every other workload, so every layer is reported.
	o.setups = 1
	o.window /= 2
	plain, err := w.run(&o)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	tr := newTracer(1 << 20)
	o.tr = tr
	out, err := w.run(&o)
	if err != nil {
		return nil, nil, fmt.Errorf("%s traced: %w", name, err)
	}
	out.attempted += plain.attempted
	out.failed += plain.failed
	out.m["trace.overhead_frac"] = plain.m["ops_per_s"]/out.m["ops_per_s"] - 1
	for _, other := range workloadList() {
		if other.name == name {
			continue
		}
		po := o
		po.tiny, po.window = true, probeWindow
		pr, err := other.run(&po)
		if err != nil {
			return nil, nil, fmt.Errorf("%s probe: %w", other.name, err)
		}
		out.attempted += pr.attempted
		out.failed += pr.failed
		for _, m := range other.layers {
			out.m[m.name] = pr.m[m.name]
		}
	}
	out.m["host.cpu_calib_ns"], out.m["host.mem_calib_ns"] = calibrate()
	out.m["host.steal_frac"] = stealSince(steal0, total0)
	self := meanSelfNs(tr.recorded())
	for k, n := range spanNames {
		out.m["span."+n+".self_ns"] = self[k]
	}
	if d := tr.dropped.Load(); d > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d spans dropped (buffer full)\n", d)
	}
	path := filepath.Join(o.dir, "spans", fmt.Sprintf("%s-seed%d.tsv", name, o.seed))
	if err := writeSpans(path, tr.recorded()); err != nil {
		return nil, nil, err
	}
	return out, perLayer(), nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: serve-shm, embed-args, churn-swap or sim-paper")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, traceFlag int) error {
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	o := runOpts{
		seed:   seed,
		window: time.Duration(seconds * float64(time.Second)),
		setups: 5,
		root:   ".",
		dir:    dir,
	}
	r, ms, err := runWorkload(name, o, traceFlag == 1)
	if err != nil {
		return err
	}
	line := resultLine{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricOut, len(ms)),
	}
	for _, m := range ms {
		v, ok := r.m[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s missing or not finite (%v)", m.name, v)
		}
		line.Metrics[m.name] = metricOut{v, m.unit}
	}
	if line.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	hc := hostClass()
	hc["steal_frac"] = r.m["host.steal_frac"]
	host, _ := json.Marshal(map[string]any{"host": hc})
	fmt.Println(string(host))
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// hostClass records what the run's numbers depend on.
func hostClass() map[string]any {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  model,
		"go":         runtime.Version(),
	}
}

// cpuTicks reads the system-wide stolen and total CPU time from
// /proc/stat, in clock ticks; zeros where it is unavailable.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, _ := strconv.ParseUint(s, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealSince is the share of the host's CPU time the hypervisor gave to
// other guests since the cpuTicks reading: on a shared virtual machine it
// explains runs that are slower for no reason in the program.
func stealSince(steal0, total0 uint64) float64 {
	steal, total := cpuTicks()
	if total <= total0 {
		return 0
	}
	return float64(steal-steal0) / float64(total-total0)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupMedian builds the workload state n times and keeps the last one,
// releasing the others; it returns the median build time in seconds.
func setupMedian[T any](n int, build func() (T, error), release func(T)) (T, float64, error) {
	var keep T
	times := make([]float64, 0, n)
	for i := 0; i < max(n, 1); i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := build()
		if err != nil {
			if i > 0 {
				release(keep)
			}
			return s, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i > 0 {
			release(keep)
		}
		keep = s
	}
	return keep, stats.Median(times), nil
}

// windowLen is the length of one timed window. Metrics are medians over
// windows: a window slowed by the host (a vCPU descheduled or moved)
// moves the median less than it moves a mean.
const windowLen = 500 * time.Millisecond

// windows splits a measured time into timed windows of windowLen, and at
// least five.
func windows(total time.Duration) []time.Duration {
	n := max(int(total/windowLen), 5)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = total / time.Duration(n)
	}
	return out
}

// discardWindow is the untimed window run right after set-up.
func discardWindow(o *runOpts) time.Duration {
	if o.tiny {
		return 20 * time.Millisecond
	}
	return time.Second
}

// blockOps is the number of operations timed with one pair of clock
// reads in the layer loops.
const blockOps = 1024

// layerReps is how many passes the layer loops make over their inputs.
func layerReps(o *runOpts) int {
	if o.tiny {
		return 1
	}
	return 5
}

// calibrate times a fixed CPU loop and a fixed dependent-load walk; the
// medians of five repetitions show host drift next to the layer numbers.
func calibrate() (cpuNs, memNs float64) {
	var cpu, mem []float64
	next := make([]uint32, 1<<22) // 16 MiB: well past the per-core L2
	for i := range next {
		next[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(next) - 1; i > 0; i-- { // one random cycle (Sattolo)
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	var sink uint64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		y := uint64(r + 1)
		for i := 0; i < 1<<22; i++ {
			y ^= y << 13
			y ^= y >> 7
			y ^= y << 17
		}
		cpu = append(cpu, float64(time.Since(t0).Nanoseconds()))
		sink += y

		t0 = time.Now()
		p := uint32(0)
		const steps = 1 << 20
		for i := 0; i < steps; i++ {
			p = next[p]
		}
		mem = append(mem, float64(time.Since(t0).Nanoseconds())/steps)
		sink += uint64(p)
	}
	calibSink = sink
	return stats.Median(cpu), stats.Median(mem)
}

// calibSink keeps the calibration loops from being optimized away.
var calibSink uint64

package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"draco/internal/kernelmodel"
	"draco/internal/sim"
	"draco/internal/stats"
	"draco/internal/workloads"
)

// sim-paper: the offline cycle simulator on the cells of Figures 11 and
// 12 plus the insecure baseline, for httpd (gap-heavy, so the cache model
// dominates) and unixbench-syscall (syscall-dense, so the check models
// dominate). At the default seed every cell must reproduce its committed
// results/fig11.csv or fig12.csv entry to three decimals; at any other
// seed the cycle-accounting identity must hold instead.

var simWorkloads = []string{"httpd", "unixbench-syscall"}

// simCell is one (mode, profile) configuration and where the committed
// CSVs hold its slowdown (file "" for the insecure baseline).
type simCell struct {
	mode   kernelmodel.Mode
	kind   sim.ProfileKind
	file   string
	column string
	key    string // metric-name fragment
}

var simCells = []simCell{
	{kernelmodel.ModeInsecure, sim.ProfileInsecure, "", "", "insecure"},
	{kernelmodel.ModeSeccomp, sim.ProfileNoArgs, "fig11.csv", "noargs(sec)", "seccomp.noargs"},
	{kernelmodel.ModeDracoSW, sim.ProfileNoArgs, "fig11.csv", "noargs(dracoSW)", "draco-sw.noargs"},
	{kernelmodel.ModeSeccomp, sim.ProfileComplete, "fig11.csv", "complete(sec)", "seccomp.complete"},
	{kernelmodel.ModeDracoSW, sim.ProfileComplete, "fig11.csv", "complete(dracoSW)", "draco-sw.complete"},
	{kernelmodel.ModeSeccomp, sim.ProfileComplete2x, "fig11.csv", "2x(sec)", "seccomp.complete2x"},
	{kernelmodel.ModeDracoSW, sim.ProfileComplete2x, "fig11.csv", "2x(dracoSW)", "draco-sw.complete2x"},
	{kernelmodel.ModeDracoHW, sim.ProfileNoArgs, "fig12.csv", "noargs(hw)", "draco-hw.noargs"},
	{kernelmodel.ModeDracoHW, sim.ProfileComplete, "fig12.csv", "complete(hw)", "draco-hw.complete"},
	{kernelmodel.ModeDracoHW, sim.ProfileComplete2x, "fig12.csv", "complete-2x(hw)", "draco-hw.complete2x"},
}

var simModes = []kernelmodel.Mode{kernelmodel.ModeInsecure, kernelmodel.ModeSeccomp, kernelmodel.ModeDracoSW, kernelmodel.ModeDracoHW}

func simLayers() []metric {
	ms := []metric{
		{"sim.train_ns", "ns"},
		{"workloads.generate_ns_per_event", "ns"},
	}
	for _, m := range simModes {
		for _, w := range simWorkloads {
			ms = append(ms, metric{"sim.ns_per_event." + m.String() + "." + w, "ns"})
		}
	}
	for _, w := range simWorkloads {
		for _, c := range simCells {
			ms = append(ms, metric{"sim.total_cycles." + c.key + "." + w, "cycles"})
			if c.mode != kernelmodel.ModeInsecure {
				ms = append(ms, metric{"sim.check_cycles." + c.key + "." + w, "cycles"})
			}
			if c.mode == kernelmodel.ModeDracoHW {
				ms = append(ms,
					metric{"sim.stb_hits." + c.key + "." + w, "count"},
					metric{"sim.slb_hits." + c.key + "." + w, "count"})
			}
		}
	}
	return ms
}

// simState holds the committed slowdowns as printed in the CSVs:
// want[workload][cell index], "" for the insecure baseline.
type simState struct {
	want map[string][]string
}

// simPassSeconds is about how long one pass over every cell takes on a
// 2-CPU Xeon host. A run makes a fixed number of passes set from
// --seconds, so every run simulates the same cells whatever its speed.
const simPassSeconds = 7

func simPasses(o *runOpts) int {
	if o.tiny {
		return 1
	}
	return max(int(o.window.Seconds()/simPassSeconds+0.5), 1)
}

func simSizes(o *runOpts) (events, train int) {
	if o.tiny {
		return 2000, 10_000
	}
	// The committed CSVs were generated at these sizes (the paper-scale
	// experiment defaults).
	return 50_000, 150_000
}

// newSim reads the committed figures and trains every profile the cells
// use once, so a missing workload or profile fails before timing.
func newSim(o *runOpts) (*simState, error) {
	s := &simState{want: make(map[string][]string)}
	tables := map[string]map[string]map[string]string{}
	for _, f := range []string{"fig11.csv", "fig12.csv"} {
		t, err := readFigure(filepath.Join(o.root, "results", f))
		if err != nil {
			return nil, err
		}
		tables[f] = t
	}
	_, train := simSizes(o)
	for _, name := range simWorkloads {
		w, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("no workload %s", name)
		}
		row := make([]string, len(simCells))
		for i, c := range simCells {
			if c.file == "" {
				continue
			}
			v, ok := tables[c.file][name][c.column]
			if !ok {
				return nil, fmt.Errorf("%s has no %s/%s entry", c.file, name, c.column)
			}
			row[i] = v
		}
		s.want[name] = row
		for _, k := range []sim.ProfileKind{sim.ProfileNoArgs, sim.ProfileComplete} {
			if p, _ := sim.BuildProfile(w, k, train, sim.DefaultConfig().TrainSeed); p == nil || p.Validate() != nil {
				return nil, fmt.Errorf("%s: bad %s profile", name, k)
			}
		}
	}
	return s, nil
}

// readFigure parses a results CSV into row label → column → cell text.
func readFigure(path string) (map[string]map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) < 2 {
		return nil, fmt.Errorf("%s: no rows", path)
	}
	out := make(map[string]map[string]string)
	for _, rec := range recs[1:] {
		row := make(map[string]string)
		for i := 1; i < len(rec) && i < len(recs[0]); i++ {
			row[recs[0][i]] = rec[i]
		}
		out[rec[0]] = row
	}
	return out, nil
}

// simLayerTimes accumulates the traced run's separate timings of trace
// generation and profile training.
type simLayerTimes struct {
	generate, train time.Duration
	events, trains  int
}

// simResult is one simulated cell.
type simResult struct {
	m  sim.Metrics
	ns time.Duration // host time in sim.Run
}

// pass simulates every cell once and checks each output.
func (s *simState) pass(o *runOpts, r *report, lt *simLayerTimes, cellSeq *uint64) ([]simResult, error) {
	events, train := simSizes(o)
	var out []simResult
	for _, name := range simWorkloads {
		w, _ := workloads.ByName(name)
		var base sim.Metrics
		for i, c := range simCells {
			*cellSeq++
			cs := o.tr.begin(spSimCell, -1, *cellSeq)
			cfg := sim.DefaultConfig()
			cfg.Mode, cfg.Profile = c.mode, c.kind
			cfg.Events, cfg.TrainEvents, cfg.Seed = events, train, o.seed
			if o.tr != nil {
				// The traced run also times the trace generation and
				// profile training that sim.Run performs internally.
				g := o.tr.begin(spSimGenerate, cs, *cellSeq)
				t0 := time.Now()
				w.Generate(cfg.Events, cfg.Seed)
				lt.generate += time.Since(t0)
				lt.events += cfg.Events
				o.tr.end(g)
				if c.kind != sim.ProfileInsecure {
					t := o.tr.begin(spSimTrain, cs, *cellSeq)
					t0 = time.Now()
					sim.BuildProfile(w, c.kind, cfg.TrainEvents, cfg.TrainSeed)
					lt.train += time.Since(t0)
					lt.trains++
					o.tr.end(t)
				}
			}
			rs := o.tr.begin(spSimRun, cs, *cellSeq)
			t0 := time.Now()
			m, err := sim.Run(w, cfg)
			el := time.Since(t0)
			o.tr.end(rs)
			o.tr.end(cs)
			if err != nil {
				return nil, fmt.Errorf("%s %s/%s: %w", name, c.mode, c.kind, err)
			}
			if c.mode == kernelmodel.ModeInsecure {
				base = m
			}
			r.check(simCellOK(o, m, base, s.want[name][i], events))
			out = append(out, simResult{m, el})
		}
	}
	return out, nil
}

// simCellOK checks one cell: at the default seed and full size, its
// slowdown must print as the committed CSV entry; otherwise, and for the
// insecure baseline, the cycle accounting must add up and every event
// must have been simulated.
func simCellOK(o *runOpts, m, base sim.Metrics, want string, events int) bool {
	if o.seed == defaultSeed && !o.tiny && want != "" {
		return strconv.FormatFloat(m.Slowdown(base), 'f', 3, 64) == want
	}
	return m.TotalCycles == m.UserCycles+m.EntryExitCycles+m.CheckCycles+m.BodyCycles+m.CtxSwitchCycles &&
		m.Syscalls == uint64(events) && m.KilledAt == 0
}

func runSim(o *runOpts) (*report, error) {
	r := newReport()
	s, setup, err := setupMedian(o.setups, func() (*simState, error) { return newSim(o) }, func(*simState) {})
	if err != nil {
		return nil, err
	}
	r.m["setup_s"] = setup

	// No window is discarded: the simulator keeps no state across cells.
	var lt simLayerTimes
	var results []simResult
	var cellSeq uint64
	var simNs time.Duration
	var events float64
	var passNs []float64
	for p := 0; p < simPasses(o); p++ {
		runtime.GC()
		res, err := s.pass(o, r, &lt, &cellSeq)
		if err != nil {
			return nil, err
		}
		var ns time.Duration
		var ev float64
		for _, x := range res {
			ns += x.ns
			ev += float64(x.m.Syscalls)
		}
		passNs = append(passNs, float64(ns.Nanoseconds())/ev)
		simNs += ns
		events += ev
		results = append(results, res...)
	}
	r.m["ops_per_s"] = events / simNs.Seconds()
	r.m["latency_p50_ns"] = stats.Median(passNs)
	if o.tr == nil {
		return r, nil
	}

	r.m["sim.train_ns"] = float64(lt.train.Nanoseconds()) / float64(lt.trains)
	r.m["workloads.generate_ns_per_event"] = float64(lt.generate.Nanoseconds()) / float64(lt.events)
	sum := map[string]float64{}
	cnt := map[string]float64{}
	for i, x := range results {
		c := simCells[i%len(simCells)]
		w := simWorkloads[i/len(simCells)%len(simWorkloads)]
		k := "sim.ns_per_event." + c.mode.String() + "." + w
		sum[k] += float64(x.ns.Nanoseconds()) / float64(x.m.Syscalls)
		cnt[k]++
		// Counts are exact and identical in every pass.
		r.m["sim.total_cycles."+c.key+"."+w] = float64(x.m.TotalCycles)
		r.m["sim.check_cycles."+c.key+"."+w] = float64(x.m.CheckCycles)
		r.m["sim.stb_hits."+c.key+"."+w] = float64(x.m.HW.STBHits)
		r.m["sim.slb_hits."+c.key+"."+w] = float64(x.m.HW.SLBAccessHits)
	}
	for k, v := range sum {
		r.m[k] = v / cnt[k]
	}
	return r, nil
}

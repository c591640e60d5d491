package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"draco/internal/bpf"
	"draco/internal/engine"
	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/stats"
	"draco/internal/workloads"
)

// churn-swap: profile writes beside reads. One goroutine runs a fixed
// script over one tenant per workload: each tenant alternates between two
// app-complete profile versions (trained on its whole trace, and on the
// first half of it). A swap decodes the profile JSON as a PUT does and
// calls SetProfile; a fixed block of checks follows, twice: cold (just
// after the swap, so the filter runs and the VAT fills) and warm. The
// half-trained version denies part of the block. The script is a fixed
// number of identical rounds per timed window (see churnRounds).

var churnLayers = []metric{
	{"seccomp.read_json_ns", "ns"},
	{"seccomp.compile_ns", "ns"},
	{"seccomp.bitmap_ns", "ns"},
	{"bpf.compile_ns", "ns"},
	{"engine.set_profile_ns", "ns"},
	{"churn.cold_block_ns", "ns"},
	{"churn.warm_block_ns", "ns"},
	{"bpf.filter_runs_per_swap", "count"},
	{"core.inserts_per_swap", "count"},
	{"churn.denied_share", "ratio"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_bytes_per_swap", "B"},
	{"churn.retained_bytes_per_swap", "B"},
}

type churnTenant struct {
	name string
	eng  engine.Engine
	// json holds the two profile versions as uploaded: [0] trained on the
	// whole trace, [1] on its first half.
	json [2][]byte
	// cur is the version installed.
	cur   int
	calls []engine.Call
	// v0 is version 0 decoded, installed whenever the engine is rebuilt.
	v0 *seccomp.Profile
	// ref is the reference per version: each call's decision from a
	// filter-only engine (no caching) built from the same decoded profile.
	ref [2][]engine.Decision
}

type churnState struct{ tenants []*churnTenant }

func (s *churnState) close() {
	for _, t := range s.tenants {
		if t.eng != nil {
			t.eng.Close()
		}
	}
}

// rebuild gives every tenant a fresh engine holding version 0. The engine
// keeps the state of every profile it has held (so its Stats stay
// cumulative), and memory would grow with every swap of the run; each
// timed window starts from a fresh engine instead, so every window does
// the same work from the same state.
func (s *churnState) rebuild() error {
	for _, t := range s.tenants {
		if t.eng != nil {
			t.eng.Close()
		}
		eng, err := engine.New("draco-concurrent", engine.Options{Profile: t.v0})
		if err != nil {
			return err
		}
		t.eng, t.cur = eng, 0
	}
	return nil
}

func churnSizes(o *runOpts) (events, block int) {
	if o.tiny {
		return 400, 50
	}
	return 4000, 400
}

func newChurn(o *runOpts) (*churnState, error) {
	s := &churnState{}
	events, block := churnSizes(o)
	opts := profilegen.Options{IncludeRuntime: true, DefaultAction: seccomp.Errno(1)}
	for i, w := range workloads.All() {
		tr := w.Generate(events, o.seed*1000+int64(i))
		t := &churnTenant{name: w.Name}
		s.tenants = append(s.tenants, t)
		var profiles [2]*seccomp.Profile
		for v, p := range []*seccomp.Profile{profilegen.Complete(w.Name, tr, opts), profilegen.Complete(w.Name, tr[:len(tr)/2], opts)} {
			var buf bytes.Buffer
			if err := seccomp.WriteJSON(&buf, p); err != nil {
				s.close()
				return nil, err
			}
			t.json[v] = buf.Bytes()
			dp, err := seccomp.ReadJSON(bytes.NewReader(t.json[v]), w.Name)
			if err != nil {
				s.close()
				return nil, err
			}
			profiles[v] = dp
		}
		t.v0 = profiles[0]
		// The block strides over the whole trace, so it holds calls the
		// half-trained version has never seen.
		for j := 0; j < block; j++ {
			ev := tr[j*len(tr)/block]
			t.calls = append(t.calls, engine.Call{SID: ev.SID, Args: ev.Args})
		}
		for v := range profiles {
			ref, err := engine.New("filter-only", engine.Options{Profile: profiles[v]})
			if err != nil {
				s.close()
				return nil, err
			}
			t.ref[v] = ref.CheckBatch(t.calls, nil)
			ref.Close()
		}
	}
	if err := s.rebuild(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// churnRoundsPerWindow is the script's length per timed window: about
// windowLen of work on a 2-CPU Xeon host. It is a count, not a duration,
// so every run does the same work whatever its speed.
const churnRoundsPerWindow = 6

// churnRounds returns the rounds per timed window, the number of windows,
// and the rounds run and discarded first.
func churnRounds(o *runOpts) (perWindow, windows, discard int) {
	if o.tiny {
		return 1, 5, 1
	}
	return churnRoundsPerWindow, max(int(o.window/windowLen), 5), churnRoundsPerWindow
}

// swapsPerTenant is how many swaps each tenant makes in one round; even,
// so every round starts from the same installed versions.
const swapsPerTenant = 2

// churnWindow is one timed window of rounds.
type churnWindow struct {
	checks, denied, swaps int64
	elapsed               time.Duration
	swapNs                []float64
	decodeNs, setNs       time.Duration
	coldNs, warmNs        time.Duration
	filterRuns, inserts   uint64
	// Deltas of runtime/metrics samples over the window: GC CPU seconds,
	// total CPU seconds, allocated bytes, and live heap after collection.
	gcCPU, cpu        float64
	allocs, liveGrowB float64
}

var churnSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
}

func readChurnSamples() [4]float64 {
	ss := make([]metrics.Sample, len(churnSamples))
	for i, n := range churnSamples {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var out [4]float64
	for i, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		}
	}
	return out
}

func (s *churnState) engineStats() (filterRuns, inserts uint64) {
	for _, t := range s.tenants {
		x := t.eng.Stats()
		filterRuns += x.FilterRuns
		inserts += x.Inserts
	}
	return filterRuns, inserts
}

// window rebuilds the engines, then times rounds runs of the script,
// checking every decision against the reference for the installed
// version.
func (s *churnState) window(rounds int, o *runOpts, r *report, req *uint64) (churnWindow, error) {
	var w churnWindow
	if err := s.rebuild(); err != nil {
		return w, err
	}
	runtime.GC() // this window does not collect the last one's garbage
	m0 := readChurnSamples()
	f0, i0 := s.engineStats()
	start := time.Now()
	for n := 0; n < rounds; n++ {
		for rep := 0; rep < swapsPerTenant; rep++ {
			for _, t := range s.tenants {
				*req++
				if err := s.swapAndCheck(t, o, r, *req, &w); err != nil {
					return w, err
				}
			}
		}
	}
	w.elapsed = time.Since(start)
	f1, i1 := s.engineStats()
	w.filterRuns, w.inserts = f1-f0, i1-i0
	// The CPU-class metrics are updated only by a collection, so the
	// window's counts include one forced at its end (outside its time).
	runtime.GC()
	m1 := readChurnSamples()
	w.gcCPU, w.cpu, w.allocs, w.liveGrowB = m1[0]-m0[0], m1[1]-m0[1], m1[2]-m0[2], m1[3]-m0[3]
	return w, nil
}

// swapAndCheck swaps t to its other version, then checks its block cold
// and warm.
func (s *churnState) swapAndCheck(t *churnTenant, o *runOpts, r *report, rid uint64, w *churnWindow) error {
	v := 1 - t.cur
	sw := o.tr.begin(spChurnSwap, -1, rid)
	dsp := o.tr.begin(spChurnDecode, sw, rid)
	t0 := time.Now()
	p, err := seccomp.ReadJSON(bytes.NewReader(t.json[v]), t.name)
	t1 := time.Now()
	o.tr.end(dsp)
	if err != nil {
		return fmt.Errorf("decoding %s v%d: %w", t.name, v, err)
	}
	ssp := o.tr.begin(spChurnSetProfile, sw, rid)
	if err := t.eng.SetProfile(p); err != nil {
		return fmt.Errorf("swapping %s to v%d: %w", t.name, v, err)
	}
	t2 := time.Now()
	o.tr.end(ssp)
	o.tr.end(sw)
	t.cur = v
	w.swaps++
	w.swapNs = append(w.swapNs, float64(t2.Sub(t0).Nanoseconds()))
	w.decodeNs += t1.Sub(t0)
	w.setNs += t2.Sub(t1)

	ref := t.ref[v]
	for pass, kind := range []int{spChurnCold, spChurnWarm} {
		bsp := o.tr.begin(kind, -1, rid)
		b0 := time.Now()
		for j, c := range t.calls {
			d := t.eng.Check(c.SID, c.Args)
			r.check(d.Allowed == ref[j].Allowed && d.Action == ref[j].Action)
			if !ref[j].Allowed {
				w.denied++
			}
		}
		el := time.Since(b0)
		o.tr.end(bsp)
		if pass == 0 {
			w.coldNs += el
		} else {
			w.warmNs += el
		}
		w.checks += int64(len(t.calls))
	}
	return nil
}

func runChurn(o *runOpts) (*report, error) {
	r := newReport()
	s, setup, err := setupMedian(o.setups, func() (*churnState, error) { return newChurn(o) }, (*churnState).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if o.corruptReference {
		t := s.tenants[0]
		t.ref[1][0].Allowed = !t.ref[1][0].Allowed
	}
	r.m["setup_s"] = setup

	perWindow, nWindows, discard := churnRounds(o)
	var req uint64
	if _, err := s.window(discard, o, r, &req); err != nil {
		return nil, err
	}
	var ops, p50s []float64
	var tot churnWindow
	for i := 0; i < nWindows; i++ {
		w, err := s.window(perWindow, o, r, &req)
		if err != nil {
			return nil, err
		}
		ops = append(ops, float64(w.checks)/w.elapsed.Seconds())
		p50s = append(p50s, stats.Median(w.swapNs))
		tot.checks += w.checks
		tot.denied += w.denied
		tot.swaps += w.swaps
		tot.decodeNs += w.decodeNs
		tot.setNs += w.setNs
		tot.coldNs += w.coldNs
		tot.warmNs += w.warmNs
		tot.filterRuns += w.filterRuns
		tot.inserts += w.inserts
		tot.gcCPU += w.gcCPU
		tot.cpu += w.cpu
		tot.allocs += w.allocs
		tot.liveGrowB += w.liveGrowB
	}
	r.m["ops_per_s"] = stats.Median(ops)
	r.m["latency_p50_ns"] = stats.Median(p50s)
	if o.tr == nil {
		return r, nil
	}

	swaps := float64(tot.swaps)
	r.m["seccomp.read_json_ns"] = float64(tot.decodeNs.Nanoseconds()) / swaps
	r.m["engine.set_profile_ns"] = float64(tot.setNs.Nanoseconds()) / swaps
	r.m["churn.cold_block_ns"] = float64(tot.coldNs.Nanoseconds()) / swaps
	r.m["churn.warm_block_ns"] = float64(tot.warmNs.Nanoseconds()) / swaps
	r.m["bpf.filter_runs_per_swap"] = float64(tot.filterRuns) / swaps
	r.m["core.inserts_per_swap"] = float64(tot.inserts) / swaps
	r.m["churn.denied_share"] = float64(tot.denied) / float64(tot.checks)
	r.m["runtime.gc_cpu_frac"] = tot.gcCPU / tot.cpu
	r.m["runtime.alloc_bytes_per_swap"] = tot.allocs / swaps
	r.m["churn.retained_bytes_per_swap"] = tot.liveGrowB / swaps

	compile, bitmap, bcompile, err := s.compileCosts(o)
	if err != nil {
		return nil, err
	}
	r.m["seccomp.compile_ns"] = compile
	r.m["seccomp.bitmap_ns"] = bitmap
	r.m["bpf.compile_ns"] = bcompile
	return r, nil
}

// compileCosts times the three compile steps a swap runs for each
// profile version: seccomp.Compile (profile to BPF), ComputeBitmap (the
// constant-action bitmap) and bpf.Compile (direct-threaded code); ns per
// profile.
func (s *churnState) compileCosts(o *runOpts) (compile, bitmap, bcompile float64, err error) {
	var tc, tb, tx time.Duration
	var n int
	for rep := 0; rep < layerReps(o); rep++ {
		for _, t := range s.tenants {
			for _, js := range t.json {
				p, err := seccomp.ReadJSON(bytes.NewReader(js), t.name)
				if err != nil {
					return 0, 0, 0, err
				}
				t0 := time.Now()
				prog, err := seccomp.Compile(p, seccomp.ShapeLinear)
				if err != nil {
					return 0, 0, 0, err
				}
				t1 := time.Now()
				if seccomp.ComputeBitmap(prog) == nil {
					return 0, 0, 0, fmt.Errorf("%s: no bitmap", t.name)
				}
				t2 := time.Now()
				if _, err := bpf.Compile(prog); err != nil {
					return 0, 0, 0, err
				}
				t3 := time.Now()
				tc += t1.Sub(t0)
				tb += t2.Sub(t1)
				tx += t3.Sub(t2)
				n++
			}
		}
	}
	f := float64(n)
	return float64(tc.Nanoseconds()) / f, float64(tb.Nanoseconds()) / f, float64(tx.Nanoseconds()) / f, nil
}

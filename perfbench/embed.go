package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"draco/internal/engine"
	"draco/internal/hashes"
	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/stats"
	"draco/internal/syscalls"
	"draco/internal/workloads"
)

// embed-args: the checker embedded in the caller's process, one
// draco-concurrent engine per macro workload, each built from its
// app-complete profile and warmed. On arg-checked traffic the lock-free
// plane answers few calls, so the VAT, shard and hash layers do most of
// the work, and no transport is involved. Two workers each walk a
// contiguous, in-order chunk of every trace; a clock is read once per
// block of blockOps checks, never per check.

const embedWorkers = 2

var embedLayers = []metric{
	{"engine.serial_ns_per_check", "ns"},
	{"engine.parallel_ns_per_check", "ns"},
	{"concurrent.scaling_eff", "ratio"},
	{"concurrent.fast_share", "ratio"},
	{"core.spt_hit_share", "ratio"},
	{"core.vat_hit_share", "ratio"},
	{"bpf.filter_run_share", "ratio"},
	{"core.vat_bytes", "B"},
	{"hashes.argset_ns", "ns"},
}

type embedState struct {
	engines []engine.Engine
	calls   [][]engine.Call
	// want is the reference: each call's decision under its workload's
	// own profile, evaluated directly from the profile at set-up.
	want     [][]bool
	profiles []*seccomp.Profile
}

func (s *embedState) close() {
	for _, e := range s.engines {
		e.Close()
	}
}

// embedSizes returns the length of each workload's training trace and of
// the traffic checked, its prefix. The traffic is small enough to stay in
// cache, so the engines' tables, not the input stream, are measured; the
// profile is trained on the longer trace, as an app-complete profile is.
func embedSizes(o *runOpts) (train, traffic int) {
	if o.tiny {
		return 4 * blockOps, 4 * blockOps
	}
	return 64 * blockOps, 4 * blockOps
}

func newEmbed(o *runOpts, r *report) (*embedState, error) {
	s := &embedState{}
	for i, w := range workloads.MacroWorkloads() {
		train, traffic := embedSizes(o)
		tr := w.Generate(train, o.seed*1000+int64(i))
		p := profilegen.Complete(w.Name, tr, profilegen.Options{IncludeRuntime: true, DefaultAction: seccomp.Errno(1)})
		tr = tr[:traffic]
		e, err := engine.New("draco-concurrent", engine.Options{Profile: p})
		if err != nil {
			s.close()
			return nil, err
		}
		s.engines = append(s.engines, e)
		s.profiles = append(s.profiles, p)
		calls := make([]engine.Call, len(tr))
		want := make([]bool, len(tr))
		for j, ev := range tr {
			calls[j] = engine.Call{SID: ev.SID, Args: ev.Args}
			want[j] = allowedBy(p, calls[j])
			// Warm the tables, checking the decision.
			r.check(e.Check(ev.SID, ev.Args).Allowed == want[j])
		}
		s.calls = append(s.calls, calls)
		s.want = append(s.want, want)
	}
	return s, nil
}

// embedWindow is one timed window: checks done and the per-block ns per
// check of every worker.
type embedWindow struct {
	checks  int64
	elapsed time.Duration
	blockNs []float64
}

// drive runs workers goroutines for d, worker k walking chunk k of
// workers of every trace.
func (s *embedState) drive(d time.Duration, workers int, o *runOpts, r *report) embedWindow {
	var stop atomic.Bool
	var wg sync.WaitGroup
	counts := make([]int64, workers)
	bad := make([]int64, workers)
	blocks := make([][]float64, workers)
	runtime.GC() // this window does not collect the last one's garbage
	start := time.Now()
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var n, fails int64
			var bl []float64
			for !stop.Load() {
				for wi, e := range s.engines {
					calls, want := s.calls[wi], s.want[wi]
					lo, hi := k*len(calls)/workers, (k+1)*len(calls)/workers
					for b := lo; b < hi && !stop.Load(); b += blockOps {
						end := min(b+blockOps, hi)
						sp := o.tr.begin(spEmbedBlock, -1, uint64(k))
						t0 := time.Now()
						for j := b; j < end; j++ {
							if e.Check(calls[j].SID, calls[j].Args).Allowed != want[j] {
								fails++
							}
						}
						bl = append(bl, float64(time.Since(t0).Nanoseconds())/float64(end-b))
						o.tr.end(sp)
						n += int64(end - b)
					}
				}
			}
			counts[k], bad[k], blocks[k] = n, fails, bl
		}(k)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	w := embedWindow{elapsed: time.Since(start)}
	for k := 0; k < workers; k++ {
		w.checks += counts[k]
		w.blockNs = append(w.blockNs, blocks[k]...)
		r.attempted += counts[k]
		r.failed += bad[k]
	}
	return w
}

func (s *embedState) stats() (st engine.Stats, vatBytes int) {
	for _, e := range s.engines {
		x := e.Stats()
		st.Checks += x.Checks
		st.SPTHits += x.SPTHits
		st.VATHits += x.VATHits
		st.FilterRuns += x.FilterRuns
		vatBytes += e.VATBytes()
	}
	return st, vatBytes
}

func runEmbed(o *runOpts) (*report, error) {
	r := newReport()
	s, setup, err := setupMedian(o.setups, func() (*embedState, error) { return newEmbed(o, r) }, (*embedState).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if o.corruptReference {
		s.want[0][len(s.want[0])/2] = !s.want[0][len(s.want[0])/2]
	}
	r.m["setup_s"] = setup

	s.drive(discardWindow(o), embedWorkers, o, r)
	before, _ := s.stats()
	var ops, p50s, parNs []float64
	for _, d := range windows(o.window) {
		w := s.drive(d, embedWorkers, o, r)
		ops = append(ops, float64(w.checks)/w.elapsed.Seconds())
		p50s = append(p50s, stats.Median(w.blockNs))
		parNs = append(parNs, float64(w.elapsed.Nanoseconds())/float64(w.checks))
	}
	r.m["ops_per_s"] = stats.Median(ops)
	r.m["latency_p50_ns"] = stats.Median(p50s)
	if o.tr == nil {
		return r, nil
	}

	after, vatBytes := s.stats()
	checks := float64(after.Checks - before.Checks)
	r.m["core.spt_hit_share"] = float64(after.SPTHits-before.SPTHits) / checks
	r.m["core.vat_hit_share"] = float64(after.VATHits-before.VATHits) / checks
	r.m["bpf.filter_run_share"] = float64(after.FilterRuns-before.FilterRuns) / checks
	r.m["core.vat_bytes"] = float64(vatBytes)
	fast, err := s.fastShare(r)
	if err != nil {
		return nil, err
	}
	r.m["concurrent.fast_share"] = fast

	serial := s.drive(o.window/5, 1, o, r)
	serialNs := float64(serial.elapsed.Nanoseconds()) / float64(serial.checks)
	r.m["engine.serial_ns_per_check"] = serialNs
	r.m["engine.parallel_ns_per_check"] = stats.Median(parNs)
	r.m["concurrent.scaling_eff"] = serialNs / (embedWorkers * stats.Median(parNs))
	r.m["hashes.argset_ns"] = s.argSetNs(o)
	return r, nil
}

// fastShare replays the traces, warm, through fresh engines observed by
// an engine.Counters, and returns the share of checks the lock-free plane
// answered. The observer's shared counters would slow the timed engines,
// so they carry none.
func (s *embedState) fastShare(r *report) (float64, error) {
	obs := &engine.Counters{}
	var fast, checks uint64
	for wi, p := range s.profiles {
		e, err := engine.New("draco-concurrent", engine.Options{Profile: p, Observer: obs})
		if err != nil {
			return 0, err
		}
		for _, c := range s.calls[wi] {
			e.Check(c.SID, c.Args)
		}
		f0, n0 := obs.ByClass(engine.ClassFastHit), obs.Checks()
		for j, c := range s.calls[wi] {
			r.check(e.Check(c.SID, c.Args).Allowed == s.want[wi][j])
		}
		fast += obs.ByClass(engine.ClassFastHit) - f0
		checks += obs.Checks() - n0
		e.Close()
	}
	return float64(fast) / float64(checks), nil
}

// argSetNs times hashes.ArgSet on the workloads' arguments under each
// call's checked-argument bitmask.
func (s *embedState) argSetNs(o *runOpts) float64 {
	var masks [][]uint64
	for _, calls := range s.calls {
		m := make([]uint64, len(calls))
		for j, c := range calls {
			if in, ok := syscalls.ByNum(c.SID); ok {
				m[j] = in.ArgBitmask()
			}
		}
		masks = append(masks, m)
	}
	var sink uint64
	var n int64
	t0 := time.Now()
	for rep := 0; rep < layerReps(o); rep++ {
		for wi, calls := range s.calls {
			for j, c := range calls {
				p := hashes.ArgSet(c.Args, masks[wi][j])
				sink += p.H1
			}
			n += int64(len(calls))
		}
	}
	el := time.Since(t0)
	calibSink += sink
	return float64(el.Nanoseconds()) / float64(n)
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"draco/internal/engine"
	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/server"
	"draco/internal/server/client"
	"draco/internal/shm"
	"draco/internal/stats"
	"draco/internal/wire"
	"draco/internal/workloads"
)

// serve-shm: an in-process dracod (server → session hub → shm front end)
// with four macro tenants, driven by two closed-loop callers over one
// shared-memory connection. A dracod caller is a thread blocked in a
// system call until the decision comes back, so closed loop is the
// faithful model.

var serveTenants = []string{"httpd", "nginx", "mysql", "redis"}

// serveCallers is the number of load-generating goroutines (the host has
// two CPUs).
const serveCallers = 2

// serveSample is one traced request in this many per caller.
const serveSample = 64

var serveLayers = []metric{
	{"serve.check_p50_ns", "ns"},
	{"serve.check_p99_ns", "ns"},
	{"serve.samples", "count"},
	{"wire.encode_check_ns", "ns"},
	{"wire.decode_check_ns", "ns"},
	{"shm.ring_rtt_ns", "ns"},
	{"shm.parks_per_kcheck", "count"},
	{"shm.wakes_per_kcheck", "count"},
	{"shm.spin_budget", "count"},
	{"server.coalesced_batch_mean", "count"},
	{"server.flushes_per_kcheck", "count"},
	{"engine.check_ns.serve", "ns"},
	{"serve.layer_sum_ns", "ns"},
	{"serve.residual_ns", "ns"},
}

type serveItem struct {
	tenant int
	call   engine.Call
}

type serveState struct {
	srv       *server.Server
	ss        *server.ShmServer
	serveDone chan struct{}
	cli       *client.Shm
	dir       string
	profiles  []*seccomp.Profile
	items     []serveItem
	// want is the reference: each item's decision under its tenant's own
	// profile, evaluated directly from the profile at set-up.
	want []bool

	// Caller state carried across windows: each caller's latency buffer
	// and next item, and the traced-request counter.
	lat    [serveCallers][]int32
	next   [serveCallers]int
	reqSeq atomic.Uint64
}

func (s *serveState) close() {
	if s.cli != nil {
		s.cli.Close()
	}
	if s.ss != nil {
		s.ss.Close()
		<-s.serveDone
	}
	os.RemoveAll(s.dir)
}

func serveEvents(o *runOpts) int {
	if o.tiny {
		return 1000
	}
	return 20_000
}

// newServe builds the service and uploads each tenant's app-complete
// profile, trained on the tenant's own traffic so every call is allowed.
func newServe(o *runOpts, r *report) (*serveState, error) {
	s := &serveState{serveDone: make(chan struct{})}
	var err error
	if s.dir, err = os.MkdirTemp(o.dir, "shm-"); err != nil {
		return nil, err
	}
	s.srv = server.New(server.Options{})
	hub := s.srv.NewSessionHub(server.SessionOptions{})
	if s.ss, err = hub.NewShmServer(s.dir); err != nil {
		os.RemoveAll(s.dir)
		return nil, err
	}
	go func() {
		defer close(s.serveDone)
		s.ss.Serve()
	}()
	if s.cli, err = client.DialShm(s.dir, client.ShmOptions{}); err != nil {
		s.close()
		return nil, err
	}
	ctx := context.Background()
	traces := make([][]engine.Call, len(serveTenants))
	for i, name := range serveTenants {
		w, _ := workloads.ByName(name)
		tr := w.Generate(serveEvents(o), o.seed*1000+int64(i))
		p := profilegen.Complete(name, tr, profilegen.Options{IncludeRuntime: true, DefaultAction: seccomp.Errno(1)})
		var buf bytes.Buffer
		if err := seccomp.WriteJSON(&buf, p); err != nil {
			s.close()
			return nil, err
		}
		if _, err := s.cli.PutProfile(ctx, name, "", buf.Bytes()); err != nil {
			s.close()
			return nil, fmt.Errorf("uploading %s: %w", name, err)
		}
		s.profiles = append(s.profiles, p)
		for _, ev := range tr {
			traces[i] = append(traces[i], engine.Call{SID: ev.SID, Args: ev.Args})
		}
	}
	for j := range traces[0] {
		for i := range traces {
			it := serveItem{tenant: i, call: traces[i][j]}
			s.items = append(s.items, it)
			s.want = append(s.want, allowedBy(s.profiles[i], it.call))
		}
	}
	// Warm every tenant's tables once, checking the decisions.
	for j, it := range s.items {
		d, err := s.cli.Check(ctx, serveTenants[it.tenant], it.call.SID, it.call.Args)
		r.check(err == nil && d.Allowed == s.want[j])
	}
	return s, nil
}

// allowedBy evaluates the call directly against the profile.
func allowedBy(p *seccomp.Profile, c engine.Call) bool {
	d := seccomp.Data{Nr: int32(c.SID), Arch: seccomp.AuditArchX8664, Args: c.Args}
	return p.Evaluate(&d).Allows()
}

// serveWindow is one timed window's outcome.
type serveWindow struct {
	checks  int64
	elapsed time.Duration
	lat     []int32 // per-request latency, ns
}

// drive runs the callers for d and returns the window.
func (s *serveState) drive(d time.Duration, o *runOpts, r *report) serveWindow {
	ctx := context.Background()
	var stop atomic.Bool
	var wg sync.WaitGroup
	counts := make([]int64, serveCallers)
	bad := make([]int64, serveCallers)
	runtime.GC() // this window does not collect the last one's garbage
	start := time.Now()
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := s.lat[c][:0]
			j := s.next[c]
			var n, fails int64
			for !stop.Load() {
				it := s.items[j]
				want := s.want[j]
				traced := o.tr != nil && n%serveSample == 0
				var root, cs int32 = -1, -1
				var rid uint64
				if traced {
					rid = s.reqSeq.Add(1)
					root = o.tr.begin(spServeRequest, -1, rid)
					cs = o.tr.begin(spServeCheck, root, rid)
				}
				t0 := time.Now()
				dec, err := s.cli.Check(ctx, serveTenants[it.tenant], it.call.SID, it.call.Args)
				ns := time.Since(t0)
				o.tr.end(cs)
				vs := int32(-1)
				if traced {
					vs = o.tr.begin(spServeVerify, root, rid)
				}
				if err != nil || dec.Allowed != want {
					fails++
				}
				o.tr.end(vs)
				o.tr.end(root)
				l = append(l, int32(min(ns, math.MaxInt32)))
				n++
				if j++; j == len(s.items) {
					j = 0
				}
			}
			s.lat[c], s.next[c], counts[c], bad[c] = l, j, n, fails
		}(c)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	w := serveWindow{elapsed: time.Since(start)}
	for c := 0; c < serveCallers; c++ {
		w.checks += counts[c]
		w.lat = append(w.lat, s.lat[c]...)
		r.attempted += counts[c]
		r.failed += bad[c]
	}
	return w
}

func runServe(o *runOpts) (*report, error) {
	r := newReport()
	s, setup, err := setupMedian(o.setups, func() (*serveState, error) { return newServe(o, r) }, (*serveState).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if o.corruptReference {
		s.want[len(s.want)/2] = !s.want[len(s.want)/2]
	}
	r.m["setup_s"] = setup

	for c := range s.next {
		s.lat[c] = make([]int32, 0, 1<<20)
		s.next[c] = c * len(s.items) / serveCallers
	}
	// The first window after set-up is discarded: the adaptive spin
	// budgets converge during it.
	s.drive(discardWindow(o), o, r)

	before := s.cli.RingStats()
	mBefore, err := scrapeMetrics(s.srv)
	if err != nil {
		return nil, err
	}
	var ops, p50s, p99s []float64
	var checks, samples int64
	for _, d := range windows(o.window) {
		w := s.drive(d, o, r)
		slices.Sort(w.lat)
		ops = append(ops, float64(w.checks)/w.elapsed.Seconds())
		p50s = append(p50s, float64(stats.QuantileSorted(w.lat, 0.50)))
		p99s = append(p99s, float64(stats.QuantileSorted(w.lat, 0.99)))
		checks += w.checks
		samples += int64(len(w.lat))
	}
	r.m["ops_per_s"] = stats.Median(ops)
	r.m["latency_p50_ns"] = stats.Median(p50s)
	if o.tr == nil {
		return r, nil
	}

	after := s.cli.RingStats()
	mAfter, err := scrapeMetrics(s.srv)
	if err != nil {
		return nil, err
	}
	kchecks := float64(checks) / 1000
	r.m["serve.check_p50_ns"] = r.m["latency_p50_ns"]
	r.m["serve.check_p99_ns"] = stats.Median(p99s)
	r.m["serve.samples"] = float64(samples)
	r.m["shm.parks_per_kcheck"] = float64(after.Parks-before.Parks) / kchecks
	r.m["shm.wakes_per_kcheck"] = float64(after.Wakes-before.Wakes) / kchecks
	r.m["shm.spin_budget"] = float64(after.SpinBudget)
	flushes := mAfter["dracod_wire_coalesced_flushes_total"] - mBefore["dracod_wire_coalesced_flushes_total"]
	coalesced := mAfter["dracod_wire_coalesced_batch_size_count"] - mBefore["dracod_wire_coalesced_batch_size_count"]
	calls := mAfter["dracod_wire_coalesced_batch_size_count"]*mAfter["dracod_wire_coalesced_batch_size_mean"] -
		mBefore["dracod_wire_coalesced_batch_size_count"]*mBefore["dracod_wire_coalesced_batch_size_mean"]
	r.m["server.coalesced_batch_mean"] = calls / coalesced
	r.m["server.flushes_per_kcheck"] = flushes / kchecks

	enc, dec := s.wireCosts(o, r)
	rtt, err := ringRTT(s.items, o, r)
	if err != nil {
		return nil, err
	}
	eng, err := s.engineCost(o, r)
	if err != nil {
		return nil, err
	}
	r.m["wire.encode_check_ns"] = enc
	r.m["wire.decode_check_ns"] = dec
	r.m["shm.ring_rtt_ns"] = rtt
	r.m["engine.check_ns.serve"] = eng
	sum := enc + dec + rtt + eng
	r.m["serve.layer_sum_ns"] = sum
	r.m["serve.residual_ns"] = r.m["serve.check_p50_ns"] - sum
	return r, nil
}

// scrapeMetrics renders /metrics in-process and parses its unlabelled
// series.
func scrapeMetrics(srv *server.Server) (map[string]float64, error) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		return nil, fmt.Errorf("/metrics answered %d", rec.Code)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.ContainsAny(k, "{#") {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			out[k] = f
		}
	}
	return out, nil
}

// wireCosts times the check request and response codecs on the
// workload's calls: ns per check to encode both frames, and to decode
// both. Every decode is compared with what was encoded.
func (s *serveState) wireCosts(o *runOpts, r *report) (encNs, decNs float64) {
	reqs := make([][]byte, len(s.items))
	resps := make([][]byte, len(s.items))
	decisions := make([]engine.Decision, len(s.items))
	for j := range s.items {
		decisions[j] = engine.Decision{Allowed: s.want[j], Cached: true, Action: seccomp.ActAllow}
		reqs[j] = make([]byte, 0, 128)
		resps[j] = make([]byte, 0, 32)
	}
	var encT, decT time.Duration
	var n int64
	var bad int64
	for rep := 0; rep < layerReps(o); rep++ {
		t0 := time.Now()
		for j, it := range s.items {
			reqs[j] = wire.AppendCheckReq(reqs[j][:0], serveTenants[it.tenant], it.call)
			resps[j] = wire.AppendCheckResp(resps[j][:0], decisions[j])
		}
		t1 := time.Now()
		for j, it := range s.items {
			tenant, c, err1 := wire.DecodeCheckReq(reqs[j])
			d, err2 := wire.DecodeCheckResp(resps[j])
			if err1 != nil || err2 != nil || c != it.call || string(tenant) != serveTenants[it.tenant] || d != decisions[j] {
				bad++
			}
		}
		t2 := time.Now()
		encT += t1.Sub(t0)
		decT += t2.Sub(t1)
		n += int64(len(s.items))
	}
	r.attempted += n
	r.failed += bad
	return float64(encT.Nanoseconds()) / float64(n), float64(decT.Nanoseconds()) / float64(n)
}

// ringRTT sends check-sized frames through a bare in-memory ring pair to
// an echo consumer and times the round trip, blockOps trips per clock
// read pair; it returns the median block's ns per trip. Both sides spin:
// this is the transport floor without doorbells, hub or engine.
func ringRTT(items []serveItem, o *runOpts, r *report) (float64, error) {
	l := shm.DefaultLayout()
	reg, err := shm.NewRegion(shm.NewBuffer(l), l, true)
	if err != nil {
		return 0, err
	}
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		var f shm.Frame
		for {
			ok, err := reg.Submit.Consume(&f)
			if err != nil {
				return
			}
			if !ok {
				if stop.Load() {
					return
				}
				continue
			}
			pos, buf := reg.Complete.Claim()
			if buf == nil {
				return
			}
			buf = append(buf, f.Payload...)
			reg.Complete.Publish(pos, f.Type, f.ID, buf)
			reg.Submit.Release()
		}
	}()
	defer func() {
		stop.Store(true)
		<-done
		reg.Close()
	}()

	trips := len(items) * layerReps(o)
	var blocks []float64
	var f shm.Frame
	var bad int64
	t0 := time.Now()
	for i := 0; i < trips; i++ {
		it := items[i%len(items)]
		pos, buf := reg.Submit.Claim()
		buf = wire.AppendCheckReq(buf, serveTenants[it.tenant], it.call)
		if err := reg.Submit.Publish(pos, uint8(wire.TypeCheckReq), uint64(i), buf); err != nil {
			return 0, err
		}
		for {
			ok, err := reg.Complete.Consume(&f)
			if err != nil {
				return 0, err
			}
			if ok {
				break
			}
		}
		_, c, err := wire.DecodeCheckReq(f.Payload)
		if err != nil || f.ID != uint64(i) || c != it.call {
			bad++
		}
		reg.Complete.Release()
		if (i+1)%blockOps == 0 {
			blocks = append(blocks, float64(time.Since(t0).Nanoseconds())/blockOps)
			t0 = time.Now()
		}
	}
	r.attempted += int64(trips)
	r.failed += bad
	if len(blocks) == 0 {
		blocks = append(blocks, float64(time.Since(t0).Nanoseconds())/float64(trips))
	}
	return stats.Median(blocks), nil
}

// engineCost replays the tenants' traffic through in-process engines
// built from the same profiles, warmed, and returns ns per check.
func (s *serveState) engineCost(o *runOpts, r *report) (float64, error) {
	engs := make([]engine.Engine, len(s.profiles))
	for i, p := range s.profiles {
		e, err := engine.New(server.DefaultEngine, engine.Options{Profile: p})
		if err != nil {
			return 0, err
		}
		defer e.Close()
		engs[i] = e
	}
	for _, it := range s.items {
		engs[it.tenant].Check(it.call.SID, it.call.Args)
	}
	var bad, n int64
	t0 := time.Now()
	for rep := 0; rep < layerReps(o); rep++ {
		for j, it := range s.items {
			if engs[it.tenant].Check(it.call.SID, it.call.Args).Allowed != s.want[j] {
				bad++
			}
		}
		n += int64(len(s.items))
	}
	el := time.Since(t0)
	r.attempted += n
	r.failed += bad
	return float64(el.Nanoseconds()) / float64(n), nil
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// Span names. Spans are recorded only by this program, around its own
// calls into each layer; the index into spanNames is the span's kind.
const (
	spServeRequest    = iota // one sampled serve-shm request
	spServeCheck             // client.Shm.Check inside it
	spServeVerify            // output check of the decision
	spEmbedBlock             // one block of embedded checks
	spChurnSwap              // decode + SetProfile
	spChurnDecode            // seccomp.ReadJSON
	spChurnSetProfile        // Engine.SetProfile
	spChurnCold              // first check block after a swap
	spChurnWarm              // the same block again
	spSimCell                // one simulator cell
	spSimGenerate            // workloads.Generate of the cell's trace
	spSimTrain               // sim.BuildProfile of the cell's profile
	spSimRun                 // sim.Run
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"serve.request", "serve.check", "serve.verify",
	"embed.block",
	"churn.swap", "churn.decode", "churn.set_profile", "churn.cold_block", "churn.warm_block",
	"sim.cell", "sim.generate", "sim.train", "sim.run",
}

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch; parent is -1 for a root span.
type span struct {
	kind   int32
	parent int32
	req    uint64
	start  int64
	end    int64
}

// tracer keeps spans in memory preallocated at construction, so recording
// never allocates; spans past the capacity are counted and dropped. Any
// goroutine may begin a span; only the goroutine that began it ends it,
// and spans are read only after every recording goroutine has finished.
type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// begin opens a span and returns its id, or -1 when t is nil (untraced
// run) or full.
func (t *tracer) begin(kind int, parent int32, req uint64) int32 {
	if t == nil {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{kind: int32(kind), parent: parent, req: req, start: int64(time.Since(t.epoch))}
	return int32(i)
}

// end closes span id; a no-op for -1.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
}

// recorded returns the spans recorded so far.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered int64
		curStart, curEnd := int64(0), int64(-1)
		for _, k := range kids {
			cs, ce := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if ce <= cs {
				continue
			}
			if cs > curEnd {
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = cs, ce
			} else if ce > curEnd {
				curEnd = ce
			}
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		self[i] -= covered
	}
	return self
}

// meanSelfNs returns the mean self time per span kind, over every span of
// that kind recorded; kinds with no spans read 0.
func meanSelfNs(spans []span) [numSpanKinds]float64 {
	self := selfTimes(spans)
	var sum [numSpanKinds]float64
	var cnt [numSpanKinds]int
	for i, s := range spans {
		sum[s.kind] += float64(self[i])
		cnt[s.kind]++
	}
	for k := range sum {
		if cnt[k] > 0 {
			sum[k] /= float64(cnt[k])
		}
	}
	return sum
}

// writeSpans writes the spans as tab-separated rows (id, name, parent,
// request id, start, end, self; times in ns since the run began).
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tname\tparent\treq\tstart_ns\tend_ns\tself_ns")
	self := selfTimes(spans)
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\n", i, spanNames[s.kind], s.parent, s.req, s.start, s.end, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

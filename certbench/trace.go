package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the span whose interval caused this one
// (0 for a root). AllocBytes is what the process allocated during the
// span; the benchmark has one caller at a time, so that is the call's.
type span struct {
	Name       string `json:"name"`
	ID         int64  `json:"id"`
	Parent     int64  `json:"parent"`
	Op         int64  `json:"op"`
	StartNs    int64  `json:"start_ns"`
	EndNs      int64  `json:"end_ns"`
	AllocBytes int64  `json:"alloc_bytes"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// Span and operation ids are unique across the recorders of a run, whose
// spans are merged.
var nextID, nextOp atomic.Int64

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced code paths pass nil.
type recorder struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts []countSample
}

// runStart is the origin of every recorder's span times.
var runStart = time.Now()

func newRecorder() *recorder { return &recorder{t0: runStart} }

// active is an open span; end closes and records it.
type active struct {
	r     *recorder
	s     span
	alloc uint64
}

// newOp returns a fresh operation id.
func (r *recorder) newOp() int64 {
	if r == nil {
		return 0
	}
	return nextOp.Add(1)
}

// start opens a span named name under parent within operation op.
func (r *recorder) start(name string, op, parent int64) *active {
	if r == nil {
		return nil
	}
	a := &active{r: r, s: span{Name: name, ID: nextID.Add(1), Parent: parent, Op: op}, alloc: heapAllocs()}
	a.s.StartNs = int64(time.Since(r.t0))
	return a
}

// id returns the span id (0 for a nil span), for use as a child's parent.
func (a *active) id() int64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

func (a *active) end() {
	if a == nil {
		return
	}
	a.s.EndNs = int64(time.Since(a.r.t0))
	a.s.AllocBytes = int64(heapAllocs() - a.alloc)
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, a.s)
	a.r.mu.Unlock()
}

// timed runs f inside a span.
func (r *recorder) timed(name string, op, parent int64, f func() error) error {
	a := r.start(name, op, parent)
	err := f()
	a.end()
	return err
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, reach), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// spanSummary aggregates one span name: per operation the durations of all
// spans of that name are summed, and the medians are over operations.
type spanSummary struct {
	Ops     int
	Calls   int
	TotalMs float64 // median per-op total
	SelfMs  float64 // median per-op self time
	AllocMB float64 // median per-op allocation
}

func summarize(spans []span) map[string]*spanSummary {
	self := selfTimes(spans)
	type key struct {
		name string
		op   int64
	}
	total := map[key]time.Duration{}
	selfSum := map[key]time.Duration{}
	alloc := map[key]int64{}
	calls := map[string]int{}
	for _, s := range spans {
		k := key{s.Name, s.Op}
		total[k] += s.dur()
		selfSum[k] += self[s.ID]
		alloc[k] += s.AllocBytes
		calls[s.Name]++
	}
	perName := map[string][]key{}
	for k := range total {
		perName[k.name] = append(perName[k.name], k)
	}
	out := map[string]*spanSummary{}
	for name, keys := range perName {
		var tot, sf, al []float64
		for _, k := range keys {
			tot = append(tot, ms(total[k]))
			sf = append(sf, ms(selfSum[k]))
			al = append(al, float64(alloc[k])/(1<<20))
		}
		out[name] = &spanSummary{Ops: len(keys), Calls: calls[name], TotalMs: median(tot), SelfMs: median(sf), AllocMB: median(al)}
	}
	return out
}

// perOp returns, for one span name, the per-operation summed durations.
func perOp(spans []span, name string) map[int64]time.Duration {
	out := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Op] += s.dur()
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// runtimeSample is a reading of the runtime counters the runtime layer
// reports.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// countSample is one value of a per-layer count or ratio.
type countSample struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// count records one value of a per-layer count.
func (r *recorder) count(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts = append(r.counts, countSample{name, v})
	r.mu.Unlock()
}

func (r *recorder) countSnapshot() []countSample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]countSample(nil), r.counts...)
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median. The timed window runs on the last set-up.
const setupReps = 7

// workload is one seeded set of inputs driven through the public API.
type workload interface {
	// op runs one operation. It records its phases through o and returns an
	// error when the system failed, refused, or answered wrongly. The
	// returned check, if any, runs outside the timed window.
	op(ctx context.Context, o *opCtx) (check func() error, err error)
	// replay re-runs recorded operations as direct layer calls under rec
	// (traced runs only), for at most budget.
	replay(ctx context.Context, rec *recorder, budget time.Duration) error
	// gate runs the end-of-run correctness checks and fills in the
	// deterministic metrics.
	gate(ctx context.Context) (gateResult, error)
	// counts reports per-route HTTP status counts (nil without a server).
	counts() map[string]map[int]int
	close()
}

type gateResult struct {
	labelBitsMax int
	certBytes    int
	digest       string
}

type spec struct {
	name string
	// produce is the phase that produces a certificate; it feeds
	// prove_p50_ms.
	produce string
	setup   func(ctx context.Context, seed int64, env *env) (workload, error)
}

var specs = []spec{
	{name: "serve-roundtrip", produce: "prove", setup: newRoundtrip},
	{name: "prove-large", produce: "prove", setup: newProveLarge},
	{name: "serve-patch", produce: "patch", setup: newPatch},
}

// env is what a workload shares with the run that drives it.
type env struct {
	// live is the traced run's recorder during the window, nil otherwise;
	// certifyd's handler wrapper records into it.
	live atomic.Pointer[recorder]
	// setupRec records set-up spans in traced runs.
	setupRec *recorder
	// plant names a fault the tests inject into the client; empty in runs.
	plant string
}

// opCtx carries one operation's identity and sinks.
type opCtx struct {
	rec    *recorder
	op     int64
	parent int64
	seq    int64
	s      *samples
}

// phase times f as the named client-observed phase.
func (o *opCtx) phase(name string, f func(parent int64) error) error {
	a := o.rec.start("client."+name, o.op, o.parent)
	t := time.Now()
	err := f(a.id())
	d := time.Since(t)
	a.end()
	if err == nil {
		o.s.add(name, d)
	}
	return err
}

// samples holds the latencies of one window, each phase's in the order
// the operations ran.
type samples struct {
	phases    map[string][]time.Duration
	attempted int
	failed    int
	errs      []string
	window    time.Duration
	rt0, rt1  runtimeSample
	// stealShare is the share of the machine's CPU time the hypervisor
	// gave to others during the window; it explains runs that read slow.
	stealShare float64
}

func newSamples() *samples { return &samples{phases: map[string][]time.Duration{}} }

func (s *samples) add(phase string, d time.Duration) {
	s.phases[phase] = append(s.phases[phase], d)
}

func (s *samples) result(err error) {
	s.attempted++
	if err != nil {
		s.failed++
		if len(s.errs) < 5 {
			s.errs = append(s.errs, err.Error())
		}
	}
}

// traceBlock is a multiple of every rotation period a workload applies to
// its operations' sequence numbers (property sets, corrupted uploads,
// graphs, remove/restore pairs).
const traceBlock = 8

// rateBlock is how many consecutive operations ops_per_s takes as one
// block. It is a multiple of traceBlock, so every block runs the same mix
// of inputs.
const rateBlock = 2 * traceBlock

// measure drives the closed loop for d with one client, which sends its
// next operation when the previous one returns. Time spent in checks is
// excluded from the window. With a recorder, half the operations are
// traced, so that traced and untraced operations share the window and
// their difference is the tracing overhead.
func measure(ctx context.Context, w workload, d time.Duration, rec *recorder) *samples {
	s := newSamples()
	s.rt0 = readRuntime()
	var checks time.Duration
	h0 := readHostCPU()
	start := time.Now()
	for seq := int64(0); time.Since(start)-checks < d; seq++ {
		o := &opCtx{seq: seq, s: s}
		// Traced and untraced operations alternate in blocks of
		// traceBlock, so that both see every input the workloads rotate
		// through by sequence number.
		if seq/traceBlock%2 == 0 {
			o.rec = rec
		}
		o.op = o.rec.newOp()
		root := o.rec.start("op", o.op, 0)
		o.parent = root.id()
		t := time.Now()
		check, err := w.op(ctx, o)
		el := time.Since(t)
		root.end()
		if err == nil {
			s.add("op", el)
			switch {
			case o.rec != nil:
				s.add("traced_op", el)
			case rec != nil:
				s.add("untraced_op", el)
			}
		}
		if err == nil && check != nil {
			ct := time.Now()
			err = check()
			checks += time.Since(ct)
		}
		s.result(err)
	}
	s.window = time.Since(start) - checks
	s.rt1 = readRuntime()
	s.stealShare = readHostCPU().stealShareSince(h0)
	return s
}

// opsPerSecond is the median, over blocks of rateBlock consecutive
// operations, of the block's operations per second of latency. A median
// over blocks keeps a burst of the host's other load, which slows a few
// blocks, out of the figure. A window shorter than two blocks gives its
// own rate.
func opsPerSecond(s *samples) float64 {
	ops := s.phases["op"]
	if len(ops) < 2*rateBlock {
		return float64(len(ops)) / s.window.Seconds()
	}
	var rates []float64
	for i := 0; i+rateBlock <= len(ops); i += rateBlock {
		var sum time.Duration
		for _, d := range ops[i : i+rateBlock] {
			sum += d
		}
		rates = append(rates, rateBlock/sum.Seconds())
	}
	return median(rates)
}

// percentile is the nearest-rank q-quantile of ds in milliseconds, and
// whether at least ten samples lie beyond it.
func percentile(ds []time.Duration, q float64) (float64, bool) {
	if len(ds) == 0 {
		return 0, false
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	idx = max(0, min(idx, len(sorted)-1))
	return ms(sorted[idx]), len(sorted)-1-idx >= 10
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// peakRSSMB reads VmHWM from /proc/self/status.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// hostCPU is the machine-wide CPU time line of /proc/stat, in ticks.
type hostCPU struct{ steal, total uint64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var h hostCPU
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

func (h hostCPU) stealShareSince(h0 hostCPU) float64 {
	if h.total <= h0.total {
		return 0
	}
	return float64(h.steal-h0.steal) / float64(h.total-h0.total)
}

func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	plant    string
}

func main() {
	var o options
	fs := flag.NewFlagSet("certbench", flag.ContinueOnError)
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	fs.Float64Var(&o.seconds, "seconds", 40, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", "", "directory the traced run writes its spans to (default: none)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "certbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = *trace == 1
	line, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "certbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "certbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !line.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its result line. It prints
// the human-readable report to out. An error means no result could be
// measured at all.
func run(ctx context.Context, o options, out io.Writer) (*resultLine, error) {
	var sp *spec
	for i := range specs {
		if specs[i].name == o.workload {
			sp = &specs[i]
		}
	}
	if sp == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	e := &env{plant: o.plant}
	if o.trace {
		e.setupRec = newRecorder()
	}

	fmt.Fprintf(out, "# certbench workload=%s seed=%d seconds=%g trace=%t\n", sp.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "# machine GOMAXPROCS=%d NumCPU=%d go=%s commit=%s clients=1\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), revision())

	var setupS []float64
	var w workload
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		t := time.Now()
		var err error
		w, err = sp.setup(ctx, o.seed, e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	defer w.close()
	runtime.GC()

	window := time.Duration(o.seconds * float64(time.Second))
	var rec *recorder
	if o.trace {
		rec = newRecorder()
		e.live.Store(rec)
	}
	s := measure(ctx, w, window, rec)
	e.live.Store(nil)

	var replayErr error
	if o.trace {
		replayErr = w.replay(ctx, rec, window/2)
	}
	g, gateErr := w.gate(ctx)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	okRate := 0.0
	if s.attempted > 0 {
		okRate = float64(s.attempted-s.failed) / float64(s.attempted)
	}
	opP50, _ := percentile(s.phases["op"], 0.5)
	prodP50, _ := percentile(s.phases[sp.produce], 0.5)
	e2e := map[string]metric{
		"setup_s":        {median(setupS), "s"},
		"ops_per_s":      {opsPerSecond(s), "1/s"},
		"op_p50_ms":      {opP50, "ms"},
		"prove_p50_ms":   {prodP50, "ms"},
		"peak_rss_mb":    {rss, "MB"},
		"ok_rate":        {okRate, "ratio"},
		"label_bits_max": {float64(g.labelBitsMax), "bits"},
		"cert_bytes":     {float64(g.certBytes), "bytes"},
	}
	printEndToEnd(out, s, setupS, e2e, g)

	var failures []string
	failures = append(failures, s.errs...)
	if s.attempted == 0 {
		failures = append(failures, "no operation completed in the window")
	}
	for _, err := range []error{replayErr, gateErr} {
		if err != nil {
			failures = append(failures, err.Error())
		}
	}
	for _, f := range failures {
		fmt.Fprintf(out, "# FAIL %s\n", f)
	}
	line := &resultLine{
		Correct:   s.failed == 0 && len(failures) == 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   e2e,
	}
	if !o.trace {
		return line, nil
	}
	spans := append(e.setupRec.snapshot(), rec.snapshot()...)
	counts := append(e.setupRec.countSnapshot(), rec.countSnapshot()...)
	var missing []string
	line.Metrics, missing = layerMetrics(spans, counts, s, w.counts(), out)
	for _, m := range missing {
		fmt.Fprintf(out, "# FAIL per-layer metric %s was not measured\n", m)
		line.Correct = false
	}
	p50u, _ := percentile(s.phases["untraced_op"], 0.5)
	p50t, _ := percentile(s.phases["traced_op"], 0.5)
	fmt.Fprintf(out, "# tracing overhead: op_p50 traced %.3f ms - untraced %.3f ms = %+.3f ms (%d vs %d interleaved ops)\n",
		p50t, p50u, p50t-p50u, len(s.phases["traced_op"]), len(s.phases["untraced_op"]))
	if o.traceDir != "" {
		path := filepath.Join(o.traceDir, fmt.Sprintf("certbench-spans-%s-seed%d.jsonl", sp.name, o.seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# spans written to %s (%d spans)\n", path, len(spans))
	}
	return line, nil
}

// printEndToEnd prints every end-to-end metric the workload measures, with
// its unit and sample count. Percentiles with fewer than ten samples beyond
// them are marked as such.
func printEndToEnd(out io.Writer, s *samples, setupS []float64, e2e map[string]metric, g gateResult) {
	fmt.Fprintf(out, "# %-16s %14s %-6s %s\n", "metric", "value", "unit", "samples")
	row := func(name string, v float64, unit string, n int, note string) {
		fmt.Fprintf(out, "# %-16s %14.4f %-6s %d%s\n", name, v, unit, n, note)
	}
	row("setup_s", e2e["setup_s"].Value, "s", len(setupS), "")
	row("ops_per_s", e2e["ops_per_s"].Value, "1/s", len(s.phases["op"]), "")
	phases := []string{"op", "prove", "fetch", "verify", "patch"}
	for _, ph := range phases {
		ds, ok := s.phases[ph]
		if !ok {
			continue
		}
		for _, q := range []float64{0.5, 0.95} {
			v, enough := percentile(ds, q)
			note := ""
			if !enough {
				note = " (fewer than 10 samples beyond this percentile)"
			}
			row(fmt.Sprintf("%s_p%d_ms", ph, int(q*100)), v, "ms", len(ds), note)
		}
	}
	errRate := 0.0
	if s.attempted > 0 {
		errRate = float64(s.failed) / float64(s.attempted)
	}
	row("error_rate", errRate, "ratio", s.attempted, "")
	row("ok_rate", e2e["ok_rate"].Value, "ratio", s.attempted, "")
	row("peak_rss_mb", e2e["peak_rss_mb"].Value, "MB", 1, "")
	row("label_bits_max", e2e["label_bits_max"].Value, "bits", 1, " (exact)")
	row("cert_bytes", e2e["cert_bytes"].Value, "bytes", 1, " (exact)")
	if g.digest != "" {
		fmt.Fprintf(out, "# certificate digest %s\n", g.digest)
	}
	dt := s.rt1
	n := float64(max(1, len(s.phases["op"])))
	fmt.Fprintf(out, "# host steal_share=%.4f over the window\n", s.stealShare)
	fmt.Fprintf(out, "# runtime alloc_mb_per_op=%.3f gc_cycles_per_op=%.3f\n",
		float64(dt.allocBytes-s.rt0.allocBytes)/(1<<20)/n, float64(dt.gcCycles-s.rt0.gcCycles)/n)
}

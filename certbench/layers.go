package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/certify"
	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/lanes"
	"repro/internal/lanewidth"
	"repro/internal/par"
)

// layerGraph is the internal view of a graph that the replays hand to the
// layer packages: the same configuration the facade builds.
type layerGraph struct {
	g   *graph.Graph
	cfg *cert.Config
}

func newLayerGraph(g *certify.Graph) (*layerGraph, error) {
	es := g.Edges()
	edges := make([]graph.Edge, len(es))
	for i, e := range es {
		edges[i] = graph.NewEdge(e[0], e[1])
	}
	ig, err := graph.FromEdges(g.N(), edges)
	if err != nil {
		return nil, err
	}
	cfg := cert.NewConfig(ig)
	if marks := g.Marked(); len(marks) > 0 {
		cfg.MarkSet(marks)
	}
	return &layerGraph{g: ig, cfg: cfg}, nil
}

// replayBuild runs the structure build stage by stage, then
// core.BuildStructureCtx with the decomposition passed in, so that
// core.assemble_ms is the build minus the stages it repeats.
func replayBuild(ctx context.Context, rec *recorder, op int64, lg *layerGraph) (*core.StructuralProof, error) {
	workers := par.Workers(0)
	var pd *interval.PathDecomposition
	if err := rec.timed("interval.decompose", op, 0, func() (err error) {
		pd, err = interval.Decompose(lg.g)
		return err
	}); err != nil {
		return nil, err
	}
	r := pd.ToIntervals(lg.g.N())
	var p *lanes.Partition
	var c *lanes.Completion
	if err := rec.timed("lanes.build", op, 0, func() (err error) {
		p, c, _, err = lanes.BuildP(lg.g, r, false, workers)
		return err
	}); err != nil {
		return nil, err
	}
	var log lanewidth.OpLog
	if err := rec.timed("lanewidth.transcript", op, 0, func() (err error) {
		log, err = lanewidth.FromCompletion(lg.g, r, p)
		return err
	}); err != nil {
		return nil, err
	}
	var h *lanewidth.Hierarchy
	if err := rec.timed("lanewidth.hierarchy", op, 0, func() (err error) {
		h, err = lanewidth.BuildHierarchy(c.Graph, log)
		return err
	}); err != nil {
		return nil, err
	}
	if err := rec.timed("lanewidth.validate", op, 0, func() error { return h.ValidateP(workers) }); err != nil {
		return nil, err
	}
	rec.count("lanewidth.depth", float64(h.Depth()))
	var sp *core.StructuralProof
	err := rec.timed("core.build_structure", op, 0, func() (err error) {
		sp, err = core.BuildStructureCtx(ctx, lg.cfg, pd, core.StructureOptions{})
		return err
	})
	return sp, err
}

// replayProve runs the class sweep of each property against the structure,
// as the facade's batch does, and returns the schemes and labelings.
func replayProve(ctx context.Context, rec *recorder, op int64, sp *core.StructuralProof, props []string) ([]*core.Scheme, []*core.Labeling, error) {
	var schemes []*core.Scheme
	var labs []*core.Labeling
	classes := 0
	for _, name := range props {
		p, err := algebra.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		s := core.NewScheme(p, certify.DefaultMaxLanes)
		var lab *core.Labeling
		var st *core.Stats
		if err := rec.timed("core.prove_with", op, 0, func() (err error) {
			lab, st, err = s.ProveWithCtx(ctx, sp)
			return err
		}); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		classes += st.RegistryClasses
		rec.count("lanes.virtual_edges", float64(st.VirtualEdges))
		rec.count("lanes.congestion", float64(st.Congestion))
		schemes = append(schemes, s)
		labs = append(labs, lab)
	}
	rec.count("core.registry_classes", float64(classes))
	return schemes, labs, nil
}

// replayCoreVerify runs the parallel verifier and requires every vertex to
// accept.
func replayCoreVerify(ctx context.Context, rec *recorder, op int64, lg *layerGraph, s *core.Scheme, lab *core.Labeling) error {
	t := time.Now()
	var verdicts []bool
	if err := rec.timed("core.verify", op, 0, func() (err error) {
		verdicts, err = s.VerifyParallelCtx(ctx, lg.cfg, lab)
		return err
	}); err != nil {
		return err
	}
	rec.count("core.verify_us_per_vtx", float64(time.Since(t).Microseconds())/float64(lg.g.N()))
	for v, ok := range verdicts {
		if !ok {
			return fmt.Errorf("replayed verifier rejects at vertex %d", v)
		}
	}
	return nil
}

// replayVerify replays what certifyd does with an uploaded certificate:
// decode it, optionally verify it through the facade, then repeat the
// decode's per-label work, the registry rebuild and the verifier as direct
// core calls. It returns the decoded certificate.
func replayVerify(ctx context.Context, rec *recorder, op int64, lg *layerGraph, g *certify.Graph, base *certify.Certifier, blob []byte, facade bool) (*certify.Certificate, error) {
	var crt certify.Certificate
	if err := rec.timed("certify.unmarshal", op, 0, func() error { return crt.UnmarshalBinary(blob) }); err != nil {
		return nil, err
	}
	if facade {
		if err := rec.timed("certify.verify", op, 0, func() error { return base.Verify(ctx, g, &crt) }); err != nil {
			return nil, err
		}
	}
	for _, name := range crt.Properties() {
		blobs, _ := crt.EncodedLabels(name)
		labels := make([]*core.EdgeLabel, len(blobs))
		if err := rec.timed("core.decode_label", op, 0, func() (err error) {
			for i, b := range blobs {
				if labels[i], err = core.DecodeLabel(b.Data, b.Bits); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if err := rec.timed("core.encode_label", op, 0, func() error {
			for i, b := range blobs {
				data, nbits := core.EncodeLabel(labels[i])
				if nbits != b.Bits || !bytes.Equal(data, b.Data) {
					return fmt.Errorf("label {%d,%d} does not re-encode canonically", b.U, b.V)
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		lab := &core.Labeling{Edges: make(map[graph.Edge]*core.EdgeLabel, len(blobs))}
		for i, b := range blobs {
			lab.Edges[graph.NewEdge(b.U, b.V)] = labels[i]
		}
		p, err := algebra.ByName(name)
		if err != nil {
			return nil, err
		}
		s := core.NewScheme(p, crt.MaxLanes())
		if err := rec.timed("core.rebuild_registry", op, 0, func() error { return s.RebuildRegistry(lab) }); err != nil {
			return nil, err
		}
		if err := replayCoreVerify(ctx, rec, op, lg, s, lab); err != nil {
			return nil, err
		}
	}
	return &crt, nil
}

// replayMarshal marshals a certificate.
func replayMarshal(rec *recorder, op int64, crt *certify.Certificate) (blob []byte, err error) {
	err = rec.timed("certify.marshal", op, 0, func() error {
		blob, err = crt.MarshalBinary()
		return err
	})
	return blob, err
}

// replayRemarshal re-marshals a decoded certificate and requires the blob
// it came from back, byte for byte.
func replayRemarshal(rec *recorder, op int64, crt *certify.Certificate, want []byte) error {
	got, err := replayMarshal(rec, op, crt)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("re-marshalled certificate differs from its blob (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// labelBits returns the largest edge label in bits over a certificate's
// properties.
func labelBits(crt *certify.Certificate) int {
	best := 0
	for _, name := range crt.Properties() {
		best = max(best, crt.MaxBits(name))
	}
	return best
}

// serveHandler wraps certifyd's handler: it times each request as a
// serve.<route> span under the client span named in the request headers,
// and counts answers by route and status.
type serveHandler struct {
	next http.Handler
	env  *env

	mu     sync.Mutex
	status map[string]map[int]int
}

const (
	hdrOp   = "X-Certbench-Op"
	hdrSpan = "X-Certbench-Span"
)

func newServeHandler(next http.Handler, e *env) *serveHandler {
	return &serveHandler{next: next, env: e, status: map[string]map[int]int{}}
}

func route(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/prove":
		return "prove"
	case r.Method == http.MethodPost && r.URL.Path == "/v1/verify":
		return "verify"
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/certificates/"):
		return "fetch"
	case r.Method == http.MethodPatch:
		return "patch"
	case r.Method == http.MethodPost && r.URL.Path == "/v1/graphs":
		return "ingest"
	}
	return "other"
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (h *serveHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt := route(r)
	op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	var a *active
	if op != 0 {
		a = h.env.live.Load().start("serve."+rt, op, parent)
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	h.next.ServeHTTP(sw, r)
	a.end()
	h.mu.Lock()
	if h.status[rt] == nil {
		h.status[rt] = map[int]int{}
	}
	h.status[rt][sw.code]++
	h.mu.Unlock()
}

func (h *serveHandler) counts() map[string]map[int]int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := map[string]map[int]int{}
	for rt, m := range h.status {
		out[rt] = map[int]int{}
		for c, n := range m {
			out[rt][c] = n
		}
	}
	return out
}

// request sends one request and returns the body of a 200 answer. In a
// traced operation the headers name the operation and the parent span for
// the handler wrapper.
func request(ctx context.Context, client *http.Client, rec *recorder, op, parent int64, method, url, ctype string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if rec != nil {
		req.Header.Set(hdrOp, strconv.FormatInt(op, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(parent, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// jsonLayers are the per-layer metrics of the traced run's result line:
// those every workload measures. Workload-specific layer figures (the
// serve routes, the Updater) are printed in the report only.
var jsonLayers = []struct{ name, unit string }{
	{"graphio.read_ms", "ms"},
	{"interval.decompose_ms", "ms"},
	{"lanes.build_ms", "ms"},
	{"lanes.virtual_edges", "count"},
	{"lanes.congestion", "count"},
	{"lanewidth.transcript_ms", "ms"},
	{"lanewidth.hierarchy_ms", "ms"},
	{"lanewidth.validate_ms", "ms"},
	{"lanewidth.depth", "count"},
	{"core.build_structure_ms", "ms"},
	{"core.build_structure_alloc_mb", "MB"},
	{"core.assemble_ms", "ms"},
	{"core.prove_with_ms", "ms"},
	{"core.prove_with_alloc_mb", "MB"},
	{"core.registry_classes", "count"},
	{"core.verify_ms", "ms"},
	{"core.verify_us_per_vtx", "us"},
	{"core.rebuild_registry_ms", "ms"},
	{"core.decode_label_ms", "ms"},
	{"core.encode_label_ms", "ms"},
	{"certify.marshal_ms", "ms"},
	{"certify.unmarshal_ms", "ms"},
	{"certify.unmarshal_alloc_mb", "MB"},
	{"certify.verify_ms", "ms"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_cpu_share", "ratio"},
}

// routeCalls are the replayed layer calls behind each certifyd route.
var routeCalls = map[string][]string{
	"prove":  {"core.prove_with"},
	"fetch":  {"certify.marshal"},
	"verify": {"certify.unmarshal", "certify.verify"},
	"patch":  {"certify.update", "certify.marshal"},
}

// assembleStages are the build stages core.BuildStructureCtx repeats when
// handed a decomposition; the build minus them is the assembly.
var assembleStages = []string{"lanes.build", "lanewidth.transcript", "lanewidth.hierarchy", "lanewidth.validate"}

// layerMetrics derives every per-layer figure from the spans and counts
// and the runtime counters of the window, prints them all, and returns the
// result-line metrics together with the names of any the run failed to
// measure.
func layerMetrics(spans []span, counts []countSample, window *samples, status map[string]map[int]int, out io.Writer) (map[string]metric, []string) {
	sum := summarize(spans)
	vals := map[string]float64{}
	units := map[string]string{}
	set := func(name string, v float64, unit string) {
		vals[name] = v
		units[name] = unit
	}
	for name, s := range sum {
		set(name+"_ms", s.TotalMs, "ms")
		set(name+"_alloc_mb", s.AllocMB, "MB")
	}
	byCount := map[string][]float64{}
	for _, c := range counts {
		byCount[c.Name] = append(byCount[c.Name], c.Value)
	}
	for name, vs := range byCount {
		unit := "count"
		switch {
		case strings.HasSuffix(name, "_ratio"):
			unit = "ratio"
		case strings.HasSuffix(name, "_us_per_vtx"):
			unit = "us"
		}
		set(name, median(vs), unit)
	}

	if builds := perOp(spans, "core.build_structure"); len(builds) > 0 {
		stages := make([]map[int64]time.Duration, len(assembleStages))
		for i, st := range assembleStages {
			stages[i] = perOp(spans, st)
		}
		var asm []float64
		for op, d := range builds {
			for _, st := range stages {
				d -= st[op]
			}
			asm = append(asm, ms(d))
		}
		set("core.assemble_ms", median(asm), "ms")
	}

	// The serve layer's transport share: client-observed time not covered
	// by the handler span, per operation.
	self := selfTimes(spans)
	hasHandler := map[int64]bool{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "serve.") {
			hasHandler[s.Parent] = true
		}
	}
	transport := map[int64]time.Duration{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "client.") && hasHandler[s.ID] {
			transport[s.Op] += self[s.ID]
		}
	}
	if len(transport) > 0 {
		var ts []float64
		for _, d := range transport {
			ts = append(ts, ms(d))
		}
		set("serve.transport_ms", median(ts), "ms")
	}
	// The serve layer's own share of a route: handler time minus the
	// replayed layer calls the handler makes.
	for rt, calls := range routeCalls {
		h, ok := sum["serve."+rt]
		if !ok {
			continue
		}
		own := h.TotalMs
		for _, c := range calls {
			if s, ok := sum[c]; ok {
				own -= s.TotalMs
			}
		}
		set("serve."+rt+"_own_ms", own, "ms")
	}
	if status != nil {
		set("serve.status_429", 0, "count")
		set("serve.status_5xx", 0, "count")
	}
	var answers []string
	for rt, m := range status {
		for code, n := range m {
			answers = append(answers, fmt.Sprintf("%s %d: %d", rt, code, n))
			switch {
			case code == http.StatusTooManyRequests:
				vals["serve.status_429"] += float64(n)
			case code >= 500:
				vals["serve.status_5xx"] += float64(n)
			}
		}
	}

	sort.Strings(answers)
	if len(answers) > 0 {
		fmt.Fprintf(out, "# certifyd answers by route and status: %s\n", strings.Join(answers, ", "))
	}

	n := float64(max(1, len(window.phases["op"])))
	set("runtime.alloc_mb_per_op", float64(window.rt1.allocBytes-window.rt0.allocBytes)/(1<<20)/n, "MB")
	set("runtime.gc_cycles_per_op", float64(window.rt1.gcCycles-window.rt0.gcCycles)/n, "count")
	if cpu := window.rt1.totalCPU - window.rt0.totalCPU; cpu > 0 {
		set("runtime.gc_cpu_share", (window.rt1.gcCPU-window.rt0.gcCPU)/cpu, "ratio")
	}

	fmt.Fprintf(out, "# %-34s %6s %7s %12s %12s %12s\n", "span", "ops", "calls", "median_ms", "self_ms", "alloc_mb")
	names := make([]string, 0, len(sum))
	for name := range sum {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := sum[name]
		fmt.Fprintf(out, "# %-34s %6d %7d %12.4f %12.4f %12.3f\n", name, s.Ops, s.Calls, s.TotalMs, s.SelfMs, s.AllocMB)
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(out, "# per-layer metrics:\n")
	for _, k := range keys {
		fmt.Fprintf(out, "#   %-36s %14.4f %s\n", k, vals[k], units[k])
	}

	metrics := map[string]metric{}
	var missing []string
	for _, l := range jsonLayers {
		v, ok := vals[l.name]
		if !ok {
			missing = append(missing, l.name)
			continue
		}
		metrics[l.name] = metric{v, l.unit}
	}
	return metrics, missing
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"time"

	"repro/certify"
	"repro/certify/serve"
)

const (
	patchN    = 1024 // vertices of the stored ladder
	patchProp = "bipartite"
	maxBatch  = 4 // rungs removed by one PATCH, at most
)

// patch is serve-patch: one client streaming edit batches to certifyd.
// Even operations remove 1–maxBatch adjacent rungs at a seeded head, mid or
// tail position; odd operations restore them. The client follows the
// fingerprint each answer returns.
type patch struct {
	env    *env
	srv    *serve.Server
	wrap   *serveHandler
	ts     *httptest.Server
	client *http.Client
	url    string
	rng    *rand.Rand

	initial *certify.Graph
	blob0   []byte // certificate of the initial graph

	fp      string
	removed []int // rungs the last even operation removed
	blob    []byte
	warm    []patchStep // the warm-up batches, which the replay repeats untimed
	stream  []patchStep
}

// patchStep is one committed PATCH: its batch and the digest of the
// certificate it returned, for the replay.
type patchStep struct {
	edits  []certify.Edit
	digest string
}

type patchAnswer struct {
	Fingerprint    string `json:"fingerprint"`
	OldFingerprint string `json:"old_fingerprint"`
	Update         struct {
		Fallback bool `json:"fallback"`
	} `json:"update"`
	Certificate []byte `json:"certificate"`
}

func newPatch(ctx context.Context, seed int64, e *env) (workload, error) {
	w := &patch{env: e, rng: rand.New(rand.NewSource(seed)), initial: certify.Ladder(patchN / 2)}
	var err error
	if w.srv, w.wrap, w.ts, w.client, err = startServer(e); err != nil {
		return nil, err
	}
	w.url = w.ts.URL
	if w.fp, err = ingest(ctx, e, w.client, w.url, w.initial); err != nil {
		w.close()
		return nil, err
	}
	body, err := json.Marshal(map[string]any{"fingerprint": w.fp, "properties": []string{patchProp}})
	if err != nil {
		w.close()
		return nil, err
	}
	b, err := request(ctx, w.client, nil, 0, 0, http.MethodPost, w.url+"/v1/prove", "application/json", body)
	if err != nil {
		w.close()
		return nil, err
	}
	var ans proveAnswer
	if err := json.Unmarshal(b, &ans); err != nil {
		w.close()
		return nil, err
	}
	w.blob0, w.blob = ans.Certificate, ans.Certificate
	// Warm-up: the first PATCH builds the service's incremental engine;
	// one remove/restore pair at each position fills its caches.
	warm := rand.New(rand.NewSource(seed))
	for pos := 0; pos < 3; pos++ {
		rungs := batchAt(warm, pos)
		for _, op := range []certify.EditOp{certify.EditRemove, certify.EditAdd} {
			if err := w.send(ctx, &opCtx{s: newSamples()}, rungEdits(op, rungs)); err != nil {
				w.close()
				return nil, err
			}
		}
	}
	w.warm, w.stream = w.stream, nil
	return w, nil
}

// batchAt picks 1–maxBatch adjacent rungs at position pos: 0 head, 1 mid,
// 2 tail.
func batchAt(rng *rand.Rand, pos int) []int {
	k := 1 + rng.Intn(maxBatch)
	jitter := rng.Intn(8)
	rungs := patchN / 2
	var first int
	switch pos {
	case 0:
		first = 1 + jitter
	case 1:
		first = rungs/2 - k/2 + jitter - 4
	default:
		first = rungs - 1 - k - jitter
	}
	out := make([]int, k)
	for i := range out {
		out[i] = first + i
	}
	return out
}

// rungEdits turns rung indices into edits; rung i of the ladder is the
// edge {2i, 2i+1}.
func rungEdits(op certify.EditOp, rungs []int) []certify.Edit {
	out := make([]certify.Edit, len(rungs))
	for i, r := range rungs {
		out[i] = certify.Edit{Op: op, U: 2 * r, V: 2*r + 1}
	}
	return out
}

// send PATCHes one batch, checks the answer and follows the new
// fingerprint.
func (w *patch) send(ctx context.Context, o *opCtx, edits []certify.Edit) error {
	js := make([]map[string]any, len(edits))
	for i, e := range edits {
		op := "remove"
		if e.Op == certify.EditAdd {
			op = "add"
		}
		js[i] = map[string]any{"op": op, "u": e.U, "v": e.V}
	}
	body, err := json.Marshal(map[string]any{"edits": js, "properties": []string{patchProp}})
	if err != nil {
		return err
	}
	var ans patchAnswer
	err = o.phase("patch", func(parent int64) error {
		b, err := request(ctx, w.client, o.rec, o.op, parent, http.MethodPatch, w.url+"/v1/graphs/"+w.fp+"/edges", "application/json", body)
		if err != nil {
			return err
		}
		return json.Unmarshal(b, &ans)
	})
	if err != nil {
		return err
	}
	switch {
	case ans.OldFingerprint != w.fp:
		return fmt.Errorf("PATCH answered for %s, sent to %s", ans.OldFingerprint, w.fp)
	case ans.Update.Fallback:
		return fmt.Errorf("PATCH fell back to a full re-prove")
	case len(ans.Certificate) == 0:
		return fmt.Errorf("PATCH returned no certificate")
	}
	w.fp, w.blob = ans.Fingerprint, ans.Certificate
	w.stream = append(w.stream, patchStep{edits: edits, digest: digest(ans.Certificate)})
	return nil
}

func (w *patch) op(ctx context.Context, o *opCtx) (func() error, error) {
	var edits []certify.Edit
	if w.removed == nil {
		w.removed = batchAt(w.rng, w.rng.Intn(3))
		edits = rungEdits(certify.EditRemove, w.removed)
	} else {
		edits = rungEdits(certify.EditAdd, w.removed)
		w.removed = nil
	}
	return nil, w.send(ctx, o, edits)
}

// current rebuilds the graph the stream has reached.
func (w *patch) current() (*certify.Graph, error) {
	gone := map[[2]int]bool{}
	for _, r := range w.removed {
		gone[[2]int{2 * r, 2*r + 1}] = true
	}
	var edges [][2]int
	for _, e := range w.initial.Edges() {
		if !gone[e] {
			edges = append(edges, e)
		}
	}
	return certify.FromEdges(w.initial.N(), edges)
}

// replay re-runs the service's layer calls: the structure build and sweep
// of the initial certificate, then the PATCH stream through the
// benchmark's own Updater, then the decode and verification of the final
// certificate.
func (w *patch) replay(ctx context.Context, rec *recorder, budget time.Duration) error {
	lg, err := newLayerGraph(w.initial)
	if err != nil {
		return err
	}
	sp, err := replayBuild(ctx, rec, rec.newOp(), lg)
	if err != nil {
		return err
	}
	if _, _, err := replayProve(ctx, rec, rec.newOp(), sp, []string{patchProp}); err != nil {
		return err
	}
	p, err := certify.PropertyByName(patchProp)
	if err != nil {
		return err
	}
	c, err := certify.New(certify.WithProperty(p))
	if err != nil {
		return err
	}
	upd, err := c.NewUpdater(ctx, w.initial)
	if err != nil {
		return err
	}
	// Edits permute adjacency order, which the certificate depends on, so
	// the Updater first repeats the service's warm-up.
	for _, step := range w.warm {
		if _, err := upd.Update(ctx, step.edits...); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(budget)
	for i, step := range w.stream {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		op := rec.newOp()
		var us *certify.UpdateStats
		var crt *certify.Certificate
		if err := rec.timed("certify.update", op, 0, func() (err error) {
			us, crt, _, err = upd.UpdateCertified(ctx, step.edits...)
			return err
		}); err != nil {
			return err
		}
		rec.count("certify.dirty_ops", float64(us.DirtyOps))
		rec.count("certify.reused_entries_ratio", ratio(us.ReusedEntries, us.TotalEntries))
		rec.count("certify.reused_labels_ratio", ratio(us.ReusedLabels, us.TotalLabels))
		rec.count("certify.reused_sources_ratio", ratio(us.ReusedSources, us.TotalSources))
		blob, err := replayMarshal(rec, op, crt)
		if err != nil {
			return err
		}
		if digest(blob) != step.digest {
			return fmt.Errorf("replayed update %d returned another certificate than the service", i)
		}
	}
	rec.count("certify.fallbacks", float64(upd.Fallbacks()))
	final, err := w.final()
	if err != nil {
		return err
	}
	flg, err := newLayerGraph(final)
	if err != nil {
		return err
	}
	_, err = replayVerify(ctx, rec, rec.newOp(), flg, final, c, w.blob, true)
	return err
}

// final returns the graph the service stores under the current
// fingerprint, after checking that it has exactly the edges the stream
// leaves. Its adjacency order is the engine's, which a certificate depends
// on, so it is the reference a fresh prove must reproduce.
func (w *patch) final() (*certify.Graph, error) {
	fp, err := strconv.ParseUint(w.fp, 16, 64)
	if err != nil {
		return nil, err
	}
	entry, ok := w.srv.Store().Get(fp)
	if !ok {
		return nil, fmt.Errorf("no stored graph %s", w.fp)
	}
	g := entry.Graph()
	want, err := w.current()
	if err != nil {
		return nil, err
	}
	got, exp := g.Edges(), want.Edges()
	if g.N() != want.N() || !slices.Equal(got, exp) {
		return nil, fmt.Errorf("stored graph %s does not have the edges the stream leaves", w.fp)
	}
	return g, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// gate checks the final certificate: the service serves the bytes the last
// PATCH returned, they equal a fresh ProveBatch of the final graph, they
// re-marshal byte-identically, and certifyd accepts them.
func (w *patch) gate(ctx context.Context) (gateResult, error) {
	var g gateResult
	fetched, err := request(ctx, w.client, nil, 0, 0, http.MethodGet, w.url+"/v1/certificates/"+w.fp+"?props="+patchProp, "", nil)
	if err != nil {
		return g, err
	}
	if !bytes.Equal(fetched, w.blob) {
		return g, fmt.Errorf("fetched final certificate differs from the last PATCH answer")
	}
	final, err := w.final()
	if err != nil {
		return g, err
	}
	p, err := certify.PropertyByName(patchProp)
	if err != nil {
		return g, err
	}
	c, err := certify.New(certify.WithProperty(p))
	if err != nil {
		return g, err
	}
	fresh, _, err := c.ProveBatch(ctx, final)
	if err != nil {
		return g, err
	}
	freshBlob, err := fresh.MarshalBinary()
	if err != nil {
		return g, err
	}
	if !bytes.Equal(freshBlob, w.blob) {
		return g, fmt.Errorf("final certificate differs from a fresh ProveBatch of the final graph")
	}
	if err := verifyBlob(ctx, w.client, w.url, w.fp, &opCtx{s: newSamples()}, w.blob, "accept"); err != nil {
		return g, fmt.Errorf("final certificate: %w", err)
	}
	// The size figures are the initial certificate's: later ones depend on
	// where in the stream the window ended.
	for i, blob := range [][]byte{w.blob0, w.blob} {
		var crt certify.Certificate
		if err := crt.UnmarshalBinary(blob); err != nil {
			return g, err
		}
		again, err := crt.MarshalBinary()
		if err != nil {
			return g, err
		}
		if !bytes.Equal(again, blob) {
			return g, fmt.Errorf("certificate does not re-marshal byte-identically")
		}
		if i == 0 {
			g.labelBitsMax, g.certBytes = labelBits(&crt), len(blob)
		}
	}
	return g, nil
}

func (w *patch) counts() map[string]map[int]int { return w.wrap.counts() }

func (w *patch) close() {
	if w.ts != nil {
		w.ts.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}

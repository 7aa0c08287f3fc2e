package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/certify"
	"repro/certify/graphio"
)

const (
	proveLargeN     = 16384
	proveLargeWidth = 3
	proveLargeProp  = "3color"
	// proveLargeGraphs seeded graphs are certified in turn. The cost of one
	// graph varies by about ±10% with its seed (lane congestion and class
	// count differ), so a run rotates over several to keep runs at
	// different seeds comparable.
	proveLargeGraphs = 4
)

// proveLarge is prove-large: one caller certifying large seeded interval
// graphs through the library facade, with nothing marshalled in the timed
// operation.
type proveLarge struct {
	graphs []*certify.Graph
	c      *certify.Certifier

	// digests holds each graph's first certificate digest, which every
	// later certificate of the graph must match. Only graph 0 keeps its
	// blob, for the gate and the replay: these certificates are about
	// 20 MB each.
	digests []string
	blob0   []byte
	gr      gateResult
}

func newProveLarge(ctx context.Context, seed int64, e *env) (workload, error) {
	p, err := certify.PropertyByName(proveLargeProp)
	if err != nil {
		return nil, err
	}
	c, err := certify.New(certify.WithProperty(p))
	if err != nil {
		return nil, err
	}
	w := &proveLarge{c: c, digests: make([]string, proveLargeGraphs)}
	for i := 0; i < proveLargeGraphs; i++ {
		var buf bytes.Buffer
		if err := graphio.WriteEdgeList(&buf, certify.Interval(seed*proveLargeGraphs+int64(i), proveLargeN, proveLargeWidth)); err != nil {
			return nil, err
		}
		var g *certify.Graph
		if err := e.setupRec.timed("graphio.read", e.setupRec.newOp(), 0, func() (err error) {
			g, err = graphio.ReadEdgeList(&buf)
			return err
		}); err != nil {
			return nil, err
		}
		w.graphs = append(w.graphs, g)
	}
	// Warm-up: one full operation.
	check, err := w.op(ctx, &opCtx{s: newSamples()})
	if err != nil {
		return nil, err
	}
	return w, check()
}

func digest(blob []byte) string {
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// prove certifies graph i, checks the result and returns the certificate.
func (w *proveLarge) prove(ctx context.Context, i int) (*certify.Certificate, error) {
	st, err := w.c.BuildStructure(ctx, w.graphs[i])
	if err != nil {
		return nil, err
	}
	crt, bst, err := w.c.ProveBatchOn(ctx, st)
	if err != nil {
		return nil, err
	}
	if crt == nil || len(bst.Failed) > 0 {
		return nil, fmt.Errorf("%s does not hold: %v", proveLargeProp, bst.Failed)
	}
	return crt, nil
}

// record checks a certificate of graph i against the graph's digest, or
// makes it the graph's reference when it is the first.
func (w *proveLarge) record(i int, crt *certify.Certificate) error {
	blob, err := crt.MarshalBinary()
	if err != nil {
		return err
	}
	d := digest(blob)
	switch {
	case w.digests[i] == "":
		w.digests[i] = d
		if i == 0 {
			w.blob0 = blob
		}
		w.gr.labelBitsMax = max(w.gr.labelBitsMax, labelBits(crt))
		w.gr.certBytes = max(w.gr.certBytes, len(blob))
	case d != w.digests[i]:
		return fmt.Errorf("graph %d: certificate digest %s differs from the first one, %s", i, d, w.digests[i])
	}
	return nil
}

func (w *proveLarge) op(ctx context.Context, o *opCtx) (func() error, error) {
	i := int(o.seq % proveLargeGraphs)
	var crt *certify.Certificate
	if err := o.phase("prove", func(parent int64) (err error) {
		crt, err = w.prove(ctx, i)
		return err
	}); err != nil {
		return nil, err
	}
	if err := o.phase("verify", func(parent int64) error {
		return o.rec.timed("certify.verify", o.op, parent, func() error { return w.c.Verify(ctx, w.graphs[i], crt) })
	}); err != nil {
		return nil, err
	}
	return func() error { return w.record(i, crt) }, nil
}

// complete proves the graphs a short window never reached, so that the
// gate always covers every graph.
func (w *proveLarge) complete(ctx context.Context) error {
	for i := range w.graphs {
		if w.digests[i] != "" {
			continue
		}
		crt, err := w.prove(ctx, i)
		if err != nil {
			return err
		}
		if err := w.record(i, crt); err != nil {
			return err
		}
	}
	return nil
}

// replay re-runs the operation as direct layer calls on graph 0: the build
// stage by stage, the class sweep, the verifier, then the decode path of
// the graph's certificate.
func (w *proveLarge) replay(ctx context.Context, rec *recorder, budget time.Duration) error {
	lg, err := newLayerGraph(w.graphs[0])
	if err != nil {
		return err
	}
	deadline := time.Now().Add(budget)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		op := rec.newOp()
		sp, err := replayBuild(ctx, rec, op, lg)
		if err != nil {
			return err
		}
		schemes, labs, err := replayProve(ctx, rec, op, sp, []string{proveLargeProp})
		if err != nil {
			return err
		}
		if err := replayCoreVerify(ctx, rec, op, lg, schemes[0], labs[0]); err != nil {
			return err
		}
		// The decode path is its own operation so that its verifier call
		// is not summed with the one above.
		dop := rec.newOp()
		crt, err := replayVerify(ctx, rec, dop, lg, w.graphs[0], w.c, w.blob0, false)
		if err != nil {
			return err
		}
		if err := replayRemarshal(rec, dop, crt, w.blob0); err != nil {
			return err
		}
	}
	return nil
}

// gate completes the digests and checks that graph 0's certificate
// decodes, re-marshals byte-identically and verifies again.
func (w *proveLarge) gate(ctx context.Context) (gateResult, error) {
	if err := w.complete(ctx); err != nil {
		return gateResult{}, err
	}
	var dec certify.Certificate
	if err := dec.UnmarshalBinary(w.blob0); err != nil {
		return gateResult{}, err
	}
	again, err := dec.MarshalBinary()
	if err != nil {
		return gateResult{}, err
	}
	if !bytes.Equal(again, w.blob0) {
		return gateResult{}, fmt.Errorf("certificate does not re-marshal byte-identically")
	}
	if err := w.c.Verify(ctx, w.graphs[0], &dec); err != nil {
		return gateResult{}, fmt.Errorf("decoded certificate: %w", err)
	}
	g := w.gr
	g.digest = digest([]byte(fmt.Sprint(w.digests)))
	return g, nil
}

func (w *proveLarge) counts() map[string]map[int]int { return nil }

func (w *proveLarge) close() {}

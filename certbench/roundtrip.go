package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/certify"
	"repro/certify/graphio"
	"repro/certify/serve"
)

// roundtripSets are the property sets serve-roundtrip rotates over.
var roundtripSets = [][]string{
	{"bipartite"},
	{"3color"},
	{"maxdeg:3"},
	{"bipartite", "matching"},
}

const (
	roundtripN = 256 // vertices of the stored ladder
	// corruptEvery: one verify in this many uploads a corrupted blob.
	corruptEvery = 8
)

// roundtrip is serve-roundtrip: an in-process certifyd on loopback, driven
// by a closed-loop client that proves, fetches and verifies in turn.
type roundtrip struct {
	env    *env
	srv    *serve.Server
	wrap   *serveHandler
	ts     *httptest.Server
	client *http.Client
	g      *certify.Graph
	fp     string
	url    string

	// offset rotates the property sets and phase places the corrupted
	// uploads, both by seed.
	offset, phase int
	// corrupt holds, per set key, one blob per injectable fault, made at
	// set-up and taken in turn.
	corrupt map[string][][]byte

	// honest maps a set key to the blob proved at set-up, which every later
	// proof of the set must reproduce.
	honest map[string][]byte

	traced [][]string // property sets of the traced honest operations, for the replay
}

type proveAnswer struct {
	Failed      []string `json:"failed"`
	Certificate []byte   `json:"certificate"`
}

type verifyAnswer struct {
	Verdict string `json:"verdict"`
}

func setKey(set []string) string { return strings.Join(set, ",") }

// ingest writes g as an edge list, times graphio's reading of it (the
// server's ingest path) in traced runs, and stores it in the service.
func ingest(ctx context.Context, e *env, client *http.Client, url string, g *certify.Graph) (string, error) {
	var buf bytes.Buffer
	if err := graphio.WriteEdgeList(&buf, g); err != nil {
		return "", err
	}
	if e.setupRec != nil {
		if err := e.setupRec.timed("graphio.read", e.setupRec.newOp(), 0, func() error {
			_, err := graphio.ReadEdgeList(bytes.NewReader(buf.Bytes()))
			return err
		}); err != nil {
			return "", err
		}
	}
	b, err := request(ctx, client, nil, 0, 0, http.MethodPost, url+"/v1/graphs?format=edgelist", "text/plain", buf.Bytes())
	if err != nil {
		return "", err
	}
	var ans struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(b, &ans); err != nil {
		return "", err
	}
	return ans.Fingerprint, nil
}

// startServer boots certifyd in process behind the span/status wrapper.
func startServer(e *env) (*serve.Server, *serveHandler, *httptest.Server, *http.Client, error) {
	srv, err := serve.New(serve.Options{})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	wrap := newServeHandler(srv, e)
	ts := httptest.NewServer(wrap)
	client := &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4},
	}
	return srv, wrap, ts, client, nil
}

func newRoundtrip(ctx context.Context, seed int64, e *env) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	r := &roundtrip{
		env:     e,
		g:       certify.Ladder(roundtripN / 2),
		offset:  rng.Intn(len(roundtripSets)),
		phase:   rng.Intn(corruptEvery),
		corrupt: map[string][][]byte{},
		honest:  map[string][]byte{},
	}
	var err error
	if r.srv, r.wrap, r.ts, r.client, err = startServer(e); err != nil {
		return nil, err
	}
	r.url = r.ts.URL
	if r.fp, err = ingest(ctx, e, r.client, r.url, r.g); err != nil {
		r.close()
		return nil, err
	}
	// Warm-up: every property set is proved and verified once, and its
	// corrupted blobs are made; the first must be rejected.
	faults := certify.FaultNames()
	for _, set := range roundtripSets {
		o := &opCtx{s: newSamples()}
		blob, err := r.prove(ctx, o, set)
		if err != nil {
			r.close()
			return nil, err
		}
		if err := r.verify(ctx, o, blob, "accept"); err != nil {
			r.close()
			return nil, err
		}
		r.honest[setKey(set)] = blob
		var crt certify.Certificate
		if err := crt.UnmarshalBinary(blob); err != nil {
			r.close()
			return nil, err
		}
		first := rng.Intn(len(faults))
		for i := range faults {
			bad, err := crt.Corrupt(seed, faults[(first+i)%len(faults)])
			if err != nil {
				continue // not injectable on this labeling
			}
			badBlob, err := bad.MarshalBinary()
			if err != nil || bytes.Equal(badBlob, blob) {
				continue
			}
			r.corrupt[setKey(set)] = append(r.corrupt[setKey(set)], badBlob)
		}
		if len(r.corrupt[setKey(set)]) == 0 {
			r.close()
			return nil, fmt.Errorf("no fault is injectable on the %v certificate", set)
		}
		if err := r.verify(ctx, o, r.corrupt[setKey(set)][0], "reject"); err != nil {
			r.close()
			return nil, fmt.Errorf("corrupted %v certificate: %w", set, err)
		}
	}
	return r, nil
}

// prove asks certifyd to certify set and returns the certificate blob.
func (r *roundtrip) prove(ctx context.Context, o *opCtx, set []string) ([]byte, error) {
	body, err := json.Marshal(map[string]any{"fingerprint": r.fp, "properties": set})
	if err != nil {
		return nil, err
	}
	var blob []byte
	err = o.phase("prove", func(parent int64) error {
		b, err := request(ctx, r.client, o.rec, o.op, parent, http.MethodPost, r.url+"/v1/prove", "application/json", body)
		if err != nil {
			return err
		}
		var ans proveAnswer
		if err := json.Unmarshal(b, &ans); err != nil {
			return err
		}
		if len(ans.Failed) > 0 || len(ans.Certificate) == 0 {
			return fmt.Errorf("prove %v: failed properties %v", set, ans.Failed)
		}
		blob = ans.Certificate
		return nil
	})
	return blob, err
}

// fetch downloads the stored certificate of set.
func (r *roundtrip) fetch(ctx context.Context, o *opCtx, set []string) ([]byte, error) {
	var blob []byte
	err := o.phase("fetch", func(parent int64) (err error) {
		blob, err = request(ctx, r.client, o.rec, o.op, parent, http.MethodGet, r.url+"/v1/certificates/"+r.fp+"?props="+setKey(set), "", nil)
		return err
	})
	return blob, err
}

// verify uploads blob and requires the verdict want.
func (r *roundtrip) verify(ctx context.Context, o *opCtx, blob []byte, want string) error {
	return verifyBlob(ctx, r.client, r.url, r.fp, o, blob, want)
}

// verifyBlob uploads blob for the graph fp and requires the verdict want.
func verifyBlob(ctx context.Context, client *http.Client, url, fp string, o *opCtx, blob []byte, want string) error {
	body, err := json.Marshal(map[string]any{"fingerprint": fp, "certificate": blob})
	if err != nil {
		return err
	}
	return o.phase("verify", func(parent int64) error {
		b, err := request(ctx, client, o.rec, o.op, parent, http.MethodPost, url+"/v1/verify", "application/json", body)
		if err != nil {
			return err
		}
		var ans verifyAnswer
		if err := json.Unmarshal(b, &ans); err != nil {
			return err
		}
		if ans.Verdict != want {
			return fmt.Errorf("verify answered %q, want %q", ans.Verdict, want)
		}
		return nil
	})
}

func (r *roundtrip) op(ctx context.Context, o *opCtx) (func() error, error) {
	set := roundtripSets[(int(o.seq)+r.offset)%len(roundtripSets)]
	corrupted := (int(o.seq)+r.phase)%corruptEvery == 0
	blob, err := r.prove(ctx, o, set)
	if err != nil {
		return nil, err
	}
	fetched, err := r.fetch(ctx, o, set)
	if err != nil {
		return nil, err
	}
	if r.env.plant == "flip" && len(fetched) > 0 {
		fetched = append([]byte(nil), fetched...)
		fetched[len(fetched)/2] ^= 0x10
	}
	if !bytes.Equal(fetched, blob) {
		return nil, fmt.Errorf("fetched %v certificate differs from the proved one", set)
	}
	upload, want := fetched, "accept"
	bad := r.corrupt[setKey(set)]
	badBlob := bad[int(o.seq)/corruptEvery%len(bad)]
	if corrupted {
		upload, want = badBlob, "reject"
	} else if r.env.plant == "swap" {
		upload = badBlob
	}
	if err := r.verify(ctx, o, upload, want); err != nil {
		return nil, err
	}
	if !bytes.Equal(blob, r.honest[setKey(set)]) {
		return nil, fmt.Errorf("%v certificate differs from the one proved at set-up", set)
	}
	if o.rec != nil && !corrupted {
		r.traced = append(r.traced, set)
	}
	return nil, nil
}

// replay re-runs traced operations' layer calls: the structure build the
// service did at set-up, then per operation the property sweep behind
// POST /v1/prove, the marshal behind GET, and the decode and verification
// behind POST /v1/verify.
func (r *roundtrip) replay(ctx context.Context, rec *recorder, budget time.Duration) error {
	lg, err := newLayerGraph(r.g)
	if err != nil {
		return err
	}
	sp, err := replayBuild(ctx, rec, rec.newOp(), lg)
	if err != nil {
		return err
	}
	base, err := certify.New()
	if err != nil {
		return err
	}
	deadline := time.Now().Add(budget)
	for i, set := range r.traced {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		op := rec.newOp()
		if _, _, err := replayProve(ctx, rec, op, sp, set); err != nil {
			return err
		}
		blob := r.honest[setKey(set)]
		crt, err := replayVerify(ctx, rec, op, lg, r.g, base, blob, true)
		if err != nil {
			return err
		}
		if err := replayRemarshal(rec, op, crt, blob); err != nil {
			return err
		}
	}
	return nil
}

// gate checks that each property set's certificate decodes and
// re-marshals byte-identically.
func (r *roundtrip) gate(ctx context.Context) (gateResult, error) {
	var g gateResult
	for _, set := range roundtripSets {
		blob := r.honest[setKey(set)]
		var crt certify.Certificate
		if err := crt.UnmarshalBinary(blob); err != nil {
			return g, err
		}
		again, err := crt.MarshalBinary()
		if err != nil {
			return g, err
		}
		if !bytes.Equal(again, blob) {
			return g, fmt.Errorf("%v certificate does not re-marshal byte-identically", set)
		}
		g.labelBitsMax = max(g.labelBitsMax, labelBits(&crt))
		g.certBytes = max(g.certBytes, len(blob))
	}
	return g, nil
}

func (r *roundtrip) counts() map[string]map[int]int { return r.wrap.counts() }

func (r *roundtrip) close() {
	if r.ts != nil {
		r.ts.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/certify"
)

// countingWriter is a ResponseWriter that keeps no body: it only counts
// bytes, so a handler's own allocations are all a measurement sees.
type countingWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *countingWriter) Header() http.Header         { return w.h }
func (w *countingWriter) WriteHeader(code int)        { w.code = code }
func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// fetchBody GETs a stored certificate and returns the body.
func fetchBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch: %d %v", resp.StatusCode, err)
	}
	return body
}

// TestFetchServesStoredBlob pins that GET /v1/certificates returns exactly
// the bytes prove and PATCH handed out, and that serving them allocates no
// certificate-sized buffer: the stored blob is written as is, never
// re-marshaled.
func TestFetchServesStoredBlob(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	fp := ingest(t, ts.URL, certify.Ladder(64))

	resp, body := postJSON(t, ts.URL+"/v1/prove", proveRequest{Fingerprint: fp, Properties: []string{"bipartite"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prove: %d %s", resp.StatusCode, body)
	}
	var pr proveResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if got := fetchBody(t, ts.URL+"/v1/certificates/"+fp); !bytes.Equal(got, pr.Certificate) {
		t.Fatalf("fetched %d bytes differ from the %d the prove returned", len(got), len(pr.Certificate))
	}

	const gets = 20
	req := httptest.NewRequest(http.MethodGet, "/v1/certificates/"+fp, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < gets; i++ {
		w := &countingWriter{h: http.Header{}}
		s.ServeHTTP(w, req)
		if w.code != http.StatusOK || w.n != len(pr.Certificate) {
			t.Fatalf("GET: %d, %d bytes", w.code, w.n)
		}
	}
	runtime.ReadMemStats(&after)
	if perGet := (after.TotalAlloc - before.TotalAlloc) / gets; perGet >= uint64(len(pr.Certificate))/2 {
		t.Fatalf("a GET allocates %d bytes for a %d-byte certificate", perGet, len(pr.Certificate))
	}

	// PATCH stores its blob in the successor entry: the next GET serves it.
	presp, pbody := patchJSON(t, ts.URL+"/v1/graphs/"+fp+"/edges", patchRequest{
		Edits:      []editJSON{{Op: "remove", U: 2, V: 3}},
		Properties: []string{"bipartite"},
	})
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("patch: %d %s", presp.StatusCode, pbody)
	}
	var patched patchResponse
	if err := json.Unmarshal(pbody, &patched); err != nil {
		t.Fatal(err)
	}
	if got := fetchBody(t, ts.URL+"/v1/certificates/"+patched.Fingerprint); !bytes.Equal(got, patched.Certificate) {
		t.Fatalf("fetched %d bytes differ from the %d the PATCH returned", len(got), len(patched.Certificate))
	}
}

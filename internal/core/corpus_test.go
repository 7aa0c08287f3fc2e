package core_test

// Corpus-level differential of the canonical label decoder: the committed
// fuzz corpora — the PLSC container corpus of package certify and the label
// corpus of this package — replayed through DecodeLabel and the
// decode-then-re-encode oracle, label by label, and through
// certify.UnmarshalBinary blob by blob.

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/certify"
	"repro/internal/core"
)

// corpusValues parses one committed fuzz corpus file ("go test fuzz v1"
// followed by one []byte(...) or int(...) literal per line).
func corpusValues(t *testing.T, path string) []any {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) == 0 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a fuzz corpus file", path)
	}
	var out []any
	for _, line := range lines[1:] {
		switch {
		case strings.HasPrefix(line, "[]byte(") && strings.HasSuffix(line, ")"):
			s, err := strconv.Unquote(line[len("[]byte(") : len(line)-1])
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			out = append(out, []byte(s))
		case strings.HasPrefix(line, "int(") && strings.HasSuffix(line, ")"):
			v, err := strconv.Atoi(line[len("int(") : len(line)-1])
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			out = append(out, v)
		default:
			t.Fatalf("%s: unsupported corpus line %q", path, line)
		}
	}
	return out
}

func corpusFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus under %s (%v)", dir, err)
	}
	return files
}

type wireLabel struct {
	data  []byte
	nbits int
}

// containerLabels walks a PLSC blob leniently (no CRC, bound or order
// checks) and returns every label payload it declares, and whether the walk
// consumed the body exactly.
func containerLabels(blob []byte) ([]wireLabel, bool) {
	if len(blob) < 5+4 {
		return nil, false
	}
	r := blob[5 : len(blob)-4]
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(r)
		if n <= 0 {
			return 0, false
		}
		r = r[n:]
		return v, true
	}
	skip := func(k uint64) bool {
		if uint64(len(r)) < k {
			return false
		}
		r = r[k:]
		return true
	}
	var out []wireLabel
	for i := 0; i < 3; i++ {
		if _, ok := next(); !ok {
			return out, false
		}
	}
	if !skip(8) {
		return out, false
	}
	nProps, ok := next()
	if !ok {
		return out, false
	}
	for p := uint64(0); p < nProps; p++ {
		nameLen, ok := next()
		if !ok || !skip(nameLen) {
			return out, false
		}
		nEdges, ok := next()
		if !ok {
			return out, false
		}
		for e := uint64(0); e < nEdges; e++ {
			_, okU := next()
			_, okV := next()
			nbits, okB := next()
			if !okU || !okV || !okB || nbits > 1<<30 || uint64(len(r)) < (nbits+7)/8 {
				return out, false
			}
			out = append(out, wireLabel{data: r[:(nbits+7)/8], nbits: int(nbits)})
			r = r[(nbits+7)/8:]
		}
	}
	return out, len(r) == 0
}

// sameVerdict decodes one label through both paths and fails on any
// disagreement; it reports acceptance.
func sameVerdict(t *testing.T, where string, l wireLabel) bool {
	t.Helper()
	_, fastErr := core.DecodeLabel(l.data, l.nbits)
	_, refErr := core.OracleDecode(l.data, l.nbits)
	if (fastErr == nil) != (refErr == nil) {
		t.Fatalf("%s: %d-bit label: canonical decoder error %v, oracle error %v", where, l.nbits, fastErr, refErr)
	}
	return fastErr == nil
}

// TestCertificateCorpusDifferential replays certify's committed
// FuzzCertificateDecode corpus: every label a blob declares gets the same
// verdict from both decoders, and UnmarshalBinary accepts a blob only if
// the oracle accepts every one of its labels (the container checks are
// shared code) and the blob re-marshals byte-identically.
func TestCertificateCorpusDifferential(t *testing.T) {
	labels, accepted := 0, 0
	for _, path := range corpusFiles(t, "../../certify/testdata/fuzz/FuzzCertificateDecode") {
		vals := corpusValues(t, path)
		blob, ok := vals[0].([]byte)
		if len(vals) != 1 || !ok {
			t.Fatalf("%s: want one []byte value", path)
		}
		ls, complete := containerLabels(blob)
		allAccepted := complete
		for _, l := range ls {
			labels++
			if !sameVerdict(t, path, l) {
				allAccepted = false
			}
		}
		var c certify.Certificate
		if err := c.UnmarshalBinary(blob); err != nil {
			continue
		}
		accepted++
		if !allAccepted {
			t.Fatalf("%s: UnmarshalBinary accepted a blob the oracle rejects", path)
		}
		again, err := c.MarshalBinary()
		if err != nil || !bytes.Equal(again, blob) {
			t.Fatalf("%s: accepted blob does not re-marshal byte-identically (%v)", path, err)
		}
	}
	if labels == 0 || accepted == 0 {
		t.Fatalf("vacuous replay: %d labels, %d accepted blobs", labels, accepted)
	}
}

// TestLabelCorpusDifferential replays this package's committed
// FuzzDecodeLabel corpus through both decoders.
func TestLabelCorpusDifferential(t *testing.T) {
	for _, path := range corpusFiles(t, "testdata/fuzz/FuzzDecodeLabel") {
		vals := corpusValues(t, path)
		data, okData := vals[0].([]byte)
		nbits, okBits := vals[1].(int)
		if len(vals) != 2 || !okData || !okBits {
			t.Fatalf("%s: want ([]byte, int)", path)
		}
		// FuzzDecodeLabel clamps nbits into [0, 8·len(data)]; so does this
		// replay.
		nbits = max(0, min(nbits, len(data)*8))
		for _, cut := range []int{len(data), (nbits + 7) / 8} {
			sameVerdict(t, path, wireLabel{data: data[:cut], nbits: nbits})
		}
	}
}

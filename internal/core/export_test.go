package core

import (
	"context"
	"testing"

	"repro/internal/bits"
	"repro/internal/cert"
)

// OracleDecode exposes the decode-then-re-encode oracle to the external
// differential tests.
var OracleDecode = oracleDecode

// EncodeRawReference is the reference edge-label encoding AppendLabel must
// reproduce: the label's raw encoder run into a fresh Writer.
func EncodeRawReference(l *EdgeLabel) ([]byte, int) {
	var w bits.Writer
	l.encodeRaw(&w)
	return w.Bytes(), w.Bits()
}

// RegressionLabeling is one regressionConfigs family, proved.
type RegressionLabeling struct {
	Name     string
	Labeling *Labeling
}

// RegressionLabelings proves every regressionConfigs family for the
// external differential tests.
func RegressionLabelings(t *testing.T) []RegressionLabeling {
	t.Helper()
	var out []RegressionLabeling
	for _, tc := range regressionConfigs(t) {
		l, _, err := NewScheme(tc.prop, 8).ProveCtx(context.Background(), cert.NewConfig(tc.g), nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		out = append(out, RegressionLabeling{tc.name, l})
	}
	return out
}

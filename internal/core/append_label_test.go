package core_test

// Differential test of the single edge-label encoder: AppendLabel splices a
// label into a caller's buffer from its components' cached encodings, and
// certify.MarshalBinary writes each label's bit count from Bits() before
// appending its bytes. Both are pinned here against the raw encoder run
// into a fresh Writer, on proved, decoded and fault-injected labels.

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
)

func TestAppendLabelMatchesRawEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	injected := map[dist.Fault]int{}
	for _, rl := range core.RegressionLabelings(t) {
		t.Run(rl.Name, func(t *testing.T) {
			check := func(what string, l *core.Labeling) {
				t.Helper()
				for _, e := range sortedEdges(l) {
					el := l.Edges[e]
					prefix := make([]byte, rng.Intn(10))
					rng.Read(prefix)
					saved := bytes.Clone(prefix)
					got, nbits := core.AppendLabel(prefix, el)
					want, wantBits := core.EncodeRawReference(el)
					if !bytes.Equal(got[:len(saved)], saved) {
						t.Fatalf("%s edge %v: AppendLabel overwrote the prefix", what, e)
					}
					if nbits != wantBits || !bytes.Equal(got[len(saved):], want) {
						t.Fatalf("%s edge %v: AppendLabel gave %d bits %x, raw encoder %d bits %x",
							what, e, nbits, got[len(saved):], wantBits, want)
					}
					if b := el.Bits(); nbits != b {
						t.Fatalf("%s edge %v: appended %d bits, Bits() accounts %d", what, e, nbits, b)
					}
				}
			}
			check("proved", rl.Labeling)

			var dec core.LabelDecoder
			decoded := &core.Labeling{Edges: map[graph.Edge]*core.EdgeLabel{}}
			for _, e := range sortedEdges(rl.Labeling) {
				data, nbits := core.EncodeLabel(rl.Labeling.Edges[e])
				el, err := dec.Decode(data, nbits)
				if err != nil {
					t.Fatalf("edge %v: %v", e, err)
				}
				decoded.Edges[e] = el
			}
			check("decoded", decoded)

			for _, f := range dist.AllFaults {
				if mutated, ok := dist.Inject(rng, rl.Labeling, f); ok {
					injected[f]++
					check(f.String(), mutated)
				}
			}
		})
	}
	for _, f := range dist.AllFaults {
		if injected[f] == 0 {
			t.Errorf("fault %s was injectable on no family", f)
		}
	}
}

// sortedEdges returns the labeling's edges in endpoint order, so the test's
// random prefixes are reproducible.
func sortedEdges(l *core.Labeling) []graph.Edge {
	edges := make([]graph.Edge, 0, len(l.Edges))
	for e := range l.Edges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	return edges
}

package core

// Differential tests of the canonical single-pass decoder against the
// decode-then-re-encode oracle (decode_oracle_test.go): both must accept
// exactly the same (data, nbits) pairs, and every accepted pair must
// re-encode to itself.

import (
	"context"
	"sort"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bits"
	"repro/internal/cert"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/msoc"
)

// encodedLabel is one label's encoding: its bytes and exact bit count.
type encodedLabel struct {
	data  []byte
	nbits int
}

// canonicalCorpus proves the sweep's labelings — bipartite, 3color,
// matching and one compiled MSO₂ formula, each on a caterpillar and a
// ladder — and returns three labels' encodings from each, in a fixed order.
func canonicalCorpus(tb testing.TB) []encodedLabel {
	tb.Helper()
	formula, err := msoc.CompileSource("(forall u V (exists v V (adj u v)))")
	if err != nil {
		tb.Fatal(err)
	}
	matching, err := algebra.ByName("matching")
	if err != nil {
		tb.Fatal(err)
	}
	props := []algebra.Property{algebra.Colorable{Q: 2}, algebra.Colorable{Q: 3}, matching, formula}
	var out []encodedLabel
	for _, g := range []*graph.Graph{gen.Caterpillar(3, 1), gen.Ladder(3)} {
		for _, p := range props {
			s := NewScheme(p, 6)
			labeling, _, err := s.ProveCtx(context.Background(), cert.NewConfig(g), nil)
			if err != nil {
				tb.Fatal(err)
			}
			edges := make([]graph.Edge, 0, len(labeling.Edges))
			for e := range labeling.Edges {
				edges = append(edges, e)
			}
			sort.Slice(edges, func(i, j int) bool {
				if edges[i].U != edges[j].U {
					return edges[i].U < edges[j].U
				}
				return edges[i].V < edges[j].V
			})
			// The first, middle and last label: labels of one labeling
			// share their shape, and exhaustive sweeps over every label
			// would only repeat it.
			for _, e := range []graph.Edge{edges[0], edges[len(edges)/2], edges[len(edges)-1]} {
				data, nbits := EncodeLabel(labeling.Edges[e])
				out = append(out, encodedLabel{data, nbits})
			}
		}
	}
	return out
}

// checkCanonical decodes (data, nbits) through both paths and fails on any
// disagreement. It reports whether the input was accepted.
func checkCanonical(tb testing.TB, data []byte, nbits int) bool {
	tb.Helper()
	fast, fastErr := DecodeLabel(data, nbits)
	_, refErr := oracleDecode(data, nbits)
	if (fastErr == nil) != (refErr == nil) {
		tb.Fatalf("%d bits %x: canonical decoder error %v, oracle error %v", nbits, data, fastErr, refErr)
	}
	if fastErr != nil {
		return false
	}
	back, backBits := EncodeLabel(fast)
	if backBits != nbits || string(back) != string(data) {
		tb.Fatalf("%d bits %x: accepted label re-encodes to %d bits %x", nbits, data, backBits, back)
	}
	// The filled cache must agree with the fields: a clone re-runs the
	// raw encoder, and its key must equal the filled one (the verifier
	// compares keys of decoded and cloned components).
	clone := fast.Clone()
	cold, coldBits := EncodeLabel(clone)
	if coldBits != nbits || string(cold) != string(data) || clone.Key() != fast.Key() {
		tb.Fatalf("%d bits %x: decoded fields encode to %d bits %x", nbits, data, coldBits, cold)
	}
	return true
}

// FuzzDecodeCanonical asserts that DecodeLabel and the decode-then-re-encode
// oracle accept exactly the same byte strings, and that accepted strings
// re-encode identically (from the cache and from the fields).
func FuzzDecodeCanonical(f *testing.F) {
	for _, l := range canonicalCorpus(f) {
		f.Add(l.data, l.nbits)
		f.Add(l.data, l.nbits+1)
	}
	f.Add([]byte{}, 0)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00}, 80)
	f.Fuzz(func(t *testing.T, data []byte, nbits int) {
		checkCanonical(t, data, nbits)
	})
}

// TestDecodeCanonicalSweep runs every honest label of the corpus through
// every single-bit flip, every truncation, every dirtied padding bit and
// several extensions, and requires the canonical decoder and the oracle to
// agree on each case.
func TestDecodeCanonicalSweep(t *testing.T) {
	cases, accepted := 0, 0
	check := func(data []byte, nbits int) {
		cases++
		if checkCanonical(t, data, nbits) {
			accepted++
		}
	}
	for _, l := range canonicalCorpus(t) {
		data, nbits := l.data, l.nbits
		if !checkCanonical(t, data, nbits) {
			t.Fatalf("honest %d-bit label rejected", nbits)
		}
		mut := make([]byte, len(data))
		for pos := 0; pos < nbits; pos++ {
			copy(mut, data)
			mut[pos/8] ^= 1 << uint(7-pos%8)
			check(mut, nbits)
		}
		for cut := 0; cut < nbits; cut++ {
			trunc := append([]byte(nil), data[:(cut+7)/8]...)
			if cut%8 != 0 {
				trunc[len(trunc)-1] &= 0xff << uint(8-cut%8)
			}
			check(trunc, cut)
		}
		for pos := nbits; pos < len(data)*8; pos++ {
			copy(mut, data)
			mut[pos/8] |= 1 << uint(7-pos%8)
			check(mut, nbits)
		}
		for _, extra := range []int{1, 7, 8, 9, 64} {
			for _, fill := range []byte{0x00, 0xff} {
				var w bits.Writer
				w.WriteChunk(string(data), nbits)
				for i := 0; i < extra; i++ {
					w.WriteBit(fill != 0)
				}
				check(w.Bytes(), w.Bits())
			}
		}
		check(append(append([]byte(nil), data...), 0), nbits)
	}
	if accepted == 0 || accepted == cases {
		t.Fatalf("vacuous sweep: %d of %d cases accepted", accepted, cases)
	}
	t.Logf("%d cases, %d accepted by both decoders", cases, accepted)
}

// TestInternedEntriesMatchContent decodes honest labels and single-bit
// variants of them through one shared LabelDecoder. Interning must hand out
// a shared pointer only for identical bit content: every decoded entry and
// certificate equals, field for field, the one a fresh decoder builds for
// the same input, so two entries that differ in one bit never share.
func TestInternedEntriesMatchContent(t *testing.T) {
	corpus := canonicalCorpus(t)
	var shared LabelDecoder
	variants := 0
	for _, l := range corpus {
		data, nbits := l.data, l.nbits
		inputs := [][]byte{data}
		for pos := 0; pos < nbits; pos += 5 {
			mut := append([]byte(nil), data...)
			mut[pos/8] ^= 1 << uint(7-pos%8)
			inputs = append(inputs, mut)
		}
		for _, in := range inputs {
			got, err := shared.Decode(in, nbits)
			if err != nil {
				continue
			}
			variants++
			want, err := DecodeLabel(in, nbits)
			if err != nil {
				t.Fatal(err)
			}
			gotParts, wantParts := labelParts(got), labelParts(want)
			if len(gotParts) != len(wantParts) {
				t.Fatalf("%d vs %d components", len(gotParts), len(wantParts))
			}
			for i := range gotParts {
				if gotParts[i] != wantParts[i] {
					t.Fatalf("component %d: interned content differs from a fresh decode", i)
				}
			}
		}
	}
	// Distinct content must never share: one pointer, one key.
	byPtr := map[*NodeEntry]string{}
	for k, e := range shared.entries {
		if prev, ok := byPtr[e]; ok && prev != k {
			t.Fatal("one interned entry registered under two contents")
		}
		byPtr[e] = k
		if e.Key() != k || e.clone().Key() != k {
			t.Fatal("interned entry's key differs from its content")
		}
	}
	if len(shared.entries) == 0 || variants == 0 {
		t.Fatal("vacuous: nothing interned")
	}
	t.Logf("%d decoded variants share %d distinct entries", variants, len(shared.entries))
}

// labelParts lists a label's entries and certificates as cold encodings
// (the raw encoder over a clone's fields, bypassing every cache).
func labelParts(l *EdgeLabel) []string {
	var out []string
	cedge := func(c *CEdgeLabel) {
		for _, e := range c.Path {
			out = append(out, e.clone().Key())
		}
		out = append(out, c.clone().Key())
	}
	if l.Own != nil {
		cedge(l.Own)
	}
	for _, e := range l.Emb {
		cedge(e.Payload)
	}
	return out
}

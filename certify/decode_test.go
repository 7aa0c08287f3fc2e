package certify

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// ladderCert proves {bipartite, matching} on a 256-vertex ladder — the
// largest certificate certifyd's round-trip workload uploads.
func ladderCert(tb testing.TB) *Certificate {
	tb.Helper()
	props, err := PropertiesByName("bipartite", "matching")
	if err != nil {
		tb.Fatal(err)
	}
	c, err := New(WithProperties(props...))
	if err != nil {
		tb.Fatal(err)
	}
	crt, _, err := c.ProveBatch(context.Background(), Ladder(128))
	if err != nil {
		tb.Fatal(err)
	}
	return crt
}

// ladderBlob marshals the ladderCert certificate.
func ladderBlob(tb testing.TB) []byte {
	tb.Helper()
	blob, err := ladderCert(tb).MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// BenchmarkUnmarshalBinary decodes the ladder certificate: the wire-codec
// cost of one certifyd verify request.
func BenchmarkUnmarshalBinary(b *testing.B) {
	blob := ladderBlob(b)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	for b.Loop() {
		var c Certificate
		if err := c.UnmarshalBinary(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarshalBinary encodes the ladder certificate. "cold" marshals a
// fresh ProveBatch result (the prove runs outside the timer), as certifyd's
// prove handler does; "warm" re-marshals a certificate whose component
// encodings are already cached.
func BenchmarkMarshalBinary(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			crt := ladderCert(b)
			b.StartTimer()
			blob, err := crt.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(blob)))
		}
	})
	b.Run("warm", func(b *testing.B) {
		crt := ladderCert(b)
		blob, err := crt.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := crt.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestWarmMarshalAllocations bounds what a warm re-marshal allocates: the
// blob itself plus 64 KiB of bookkeeping (the sorted edge lists), so no
// per-label copy creeps back into the encode path. It covers a fresh proof
// and a decoded certificate, and takes the smallest of a few runs so a
// stray background allocation cannot fail it.
func TestWarmMarshalAllocations(t *testing.T) {
	fresh := ladderCert(t)
	blob, err := fresh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var decoded Certificate
	if err := decoded.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for name, crt := range map[string]*Certificate{"fresh": fresh, "decoded": &decoded} {
		if _, err := crt.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		least := uint64(1 << 63)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			again, err := crt.MarshalBinary()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, blob) {
				t.Fatalf("%s: re-marshal differs from the first blob", name)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(len(blob) + 64<<10); least > limit {
			t.Errorf("%s: warm marshal of a %d-byte blob allocated %d bytes, want ≤ %d",
				name, len(blob), least, limit)
		}
	}
}

// TestMarshalRejectsStaleAccounting mutates a label after its size was
// accounted (labels are immutable by contract) and checks that
// MarshalBinary refuses it rather than write a bit count that disagrees
// with the label bytes that follow it.
func TestMarshalRejectsStaleAccounting(t *testing.T) {
	crt := ladderCert(t)
	for _, el := range crt.labelings[crt.props[0]].Edges {
		if el.Pointing == nil {
			continue
		}
		el.Bits()
		p := *el.Pointing
		p.X += 1 << 20
		el.Pointing = &p
		if _, err := crt.MarshalBinary(); !errors.Is(err, ErrBadCertificate) {
			t.Fatalf("marshal of a label changed after accounting: err = %v, want ErrBadCertificate", err)
		}
		return
	}
	t.Fatal("no label carries a pointing label")
}

// padField re-emits an honest blob with the first occurrence of one outer
// varint field in padded form (its last byte gets a continuation bit and a
// 0x00 follows — same value, one byte longer) and a fixed CRC.
func padField(t *testing.T, blob []byte, target string) []byte {
	t.Helper()
	r := blob[len(certMagic)+1 : len(blob)-4]
	out := append([]byte(nil), blob[:len(certMagic)+1]...)
	padded := false
	field := func(name string) uint64 {
		v, n := binary.Uvarint(r)
		if n <= 0 {
			t.Fatalf("honest blob: bad varint at %s", name)
		}
		if name == target && !padded {
			out = append(out, r[:n-1]...)
			out = append(out, r[n-1]|0x80, 0x00)
			padded = true
		} else {
			out = append(out, r[:n]...)
		}
		r = r[n:]
		return v
	}
	raw := func(k uint64) {
		out = append(out, r[:k]...)
		r = r[k:]
	}
	field("lane budget")
	field("vertex count")
	field("edge count")
	raw(8)
	nProps := field("property count")
	for p := uint64(0); p < nProps; p++ {
		raw(field("property name length"))
		nEdges := field("labeling edge count")
		for e := uint64(0); e < nEdges; e++ {
			field("edge endpoint u")
			field("edge endpoint v")
			raw((field("label bit count") + 7) / 8)
		}
	}
	if !padded || len(r) != 0 {
		t.Fatalf("field %q not found (padded=%v, %d bytes left)", target, padded, len(r))
	}
	out = append(out, 0, 0, 0, 0)
	fixCRC(out)
	return out
}

// TestUnmarshalRejectsPaddedVarints pins the minimal-varint rule on every
// outer field: a padded varint decodes to the same value but would
// re-marshal shorter, so it is rejected as non-canonical.
func TestUnmarshalRejectsPaddedVarints(t *testing.T) {
	blob := honestBlob(t)
	for _, field := range []string{
		"lane budget", "vertex count", "edge count", "property count",
		"property name length", "labeling edge count",
		"edge endpoint u", "edge endpoint v", "label bit count",
	} {
		t.Run(field, func(t *testing.T) {
			var c Certificate
			err := c.UnmarshalBinary(padField(t, blob, field))
			if !errors.Is(err, ErrBadCertificate) || !strings.Contains(err.Error(), "non-minimal varint") {
				t.Fatalf("padded %s: got %v, want a non-minimal varint ErrBadCertificate", field, err)
			}
		})
	}
}

// decodedLadder proves bipartite on a ladder — whose labels carry many
// copies of each embedded completion-edge certificate — and decodes the
// marshaled blob.
func decodedLadder(t *testing.T) (*Graph, []byte, *Certificate) {
	t.Helper()
	g := Ladder(12)
	prover, err := New(WithProperty(mustProp(t, "bipartite")))
	if err != nil {
		t.Fatal(err)
	}
	crt, _, err := prover.Prove(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := crt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var decoded Certificate
	if err := decoded.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	return g, blob, &decoded
}

// TestInterningSurvivesCorruption pins that content interning never lets a
// fault leak across labels: every catalog fault injected into a decoded
// certificate (whose labels share entries by content) is rejected, and the
// original still verifies and re-marshals byte-identically afterwards —
// Corrupt's Clone and Inject never mutate a shared entry.
func TestInterningSurvivesCorruption(t *testing.T) {
	ctx := context.Background()
	g, blob, decoded := decodedLadder(t)
	verifier, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for _, fault := range FaultNames() {
		for seed := int64(1); seed <= 3; seed++ {
			corrupted, err := decoded.Corrupt(seed, fault)
			if err != nil {
				t.Fatalf("%s: %v", fault, err)
			}
			if err := verifier.Verify(ctx, g, corrupted); !errors.Is(err, ErrVerifyFailed) {
				t.Fatalf("%s (seed %d): corrupted decoded certificate not rejected: %v", fault, seed, err)
			}
		}
	}
	if err := verifier.Verify(ctx, g, decoded); err != nil {
		t.Fatalf("original rejected after corruption runs: %v", err)
	}
	again, err := decoded.MarshalBinary()
	if err != nil || !bytes.Equal(again, blob) {
		t.Fatalf("original no longer re-marshals byte-identically (err %v)", err)
	}
}

// TestConcurrentUseOfInternedCertificate runs verification, distributed
// verification and re-marshaling of one decoded certificate concurrently;
// under -race this pins that shared interned entries are read-only.
func TestConcurrentUseOfInternedCertificate(t *testing.T) {
	ctx := context.Background()
	g, blob, decoded := decodedLadder(t)
	verifier, err := New()
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 6)
	for i := 0; i < 2; i++ {
		go func() { errs <- verifier.Verify(ctx, g, decoded) }()
		go func() { errs <- verifier.VerifyDistributed(ctx, g, decoded) }()
		go func() {
			again, err := decoded.MarshalBinary()
			if err == nil && !bytes.Equal(again, blob) {
				err = errors.New("concurrent re-marshal differs")
			}
			errs <- err
		}()
	}
	for i := 0; i < 6; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

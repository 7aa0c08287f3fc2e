package certify

// WithParallelism is a throughput knob with no observable semantics: the
// certificate bytes and the reported stats must be identical at every
// parallelism level, on every generator family. These tests are the public
// face of the byte-identity guarantee the core prover pins internally.

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
)

func TestProveByteIdenticalAcrossParallelism(t *testing.T) {
	ctx := context.Background()
	levels := []int{1, 2, runtime.NumCPU()}
	for name, fc := range families() {
		t.Run(name, func(t *testing.T) {
			var refBlob []byte
			var refStats *Stats
			for _, p := range levels {
				c, err := New(WithProperty(mustProp(t, fc.prop)), WithParallelism(p))
				if err != nil {
					t.Fatal(err)
				}
				crt, stats, err := c.Prove(ctx, fc.g)
				if err != nil {
					t.Fatal(err)
				}
				blob, err := crt.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Verify(ctx, fc.g, crt); err != nil {
					t.Fatalf("parallelism %d: verify: %v", p, err)
				}
				if refBlob == nil {
					refBlob, refStats = blob, stats
					continue
				}
				if string(blob) != string(refBlob) {
					t.Fatalf("parallelism %d: certificate bytes differ from parallelism %d", p, levels[0])
				}
				if *stats != *refStats {
					t.Fatalf("parallelism %d: stats %+v differ from parallelism %d stats %+v", p, *stats, levels[0], *refStats)
				}
			}
		})
	}
}

func TestWithParallelismValidation(t *testing.T) {
	if _, err := New(WithParallelism(-1)); err == nil {
		t.Fatal("negative parallelism accepted")
	}
	for _, p := range []int{0, 1, 2, runtime.NumCPU()} {
		if _, err := New(WithParallelism(p)); err != nil {
			t.Fatalf("parallelism %d rejected: %v", p, err)
		}
	}
}

// TestParallelismOneSequentialVerify checks that Verify runs at the
// verifying certifier's WithParallelism level — whatever level a fresh
// certificate was proved at, and for decoded certificates, which carry none —
// and that the verdict is the same at every level: on accepted, wrong-graph,
// decoded and corrupted certificates (identical rejecting vertices), and on
// an already-cancelled context.
func TestParallelismOneSequentialVerify(t *testing.T) {
	ctx := context.Background()
	g := Path(24)
	prover, err := New(WithProperty(mustProp(t, "acyclic")), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	crt, _, err := prover.Prove(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := crt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decoded := new(Certificate)
	if err := decoded.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	corrupted, err := decoded.Corrupt(5, "shift-terminal")
	if err != nil {
		t.Fatal(err)
	}
	var refRejected []int
	for _, p := range []int{1, 0, 2, runtime.NumCPU()} {
		v, err := New(WithParallelism(p))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*Certificate{crt, decoded} {
			if err := v.Verify(ctx, g, c); err != nil {
				t.Fatalf("parallelism %d: verify: %v", p, err)
			}
			// Wrong graph: every verifier must reject identically.
			if err := v.Verify(ctx, Cycle(24), c); err == nil {
				t.Fatalf("parallelism %d: accepted certificate for wrong graph", p)
			}
		}
		var ve *VerifyError
		if err := v.Verify(ctx, g, corrupted); !errors.As(err, &ve) || len(ve.Rejected) == 0 {
			t.Fatalf("parallelism %d: corrupted certificate: %v", p, err)
		}
		if refRejected == nil {
			refRejected = ve.Rejected
		} else if !slices.Equal(ve.Rejected, refRejected) {
			t.Fatalf("parallelism %d: rejected %v, parallelism 1 rejected %v", p, ve.Rejected, refRejected)
		}
	}

	// An already-cancelled context stops every verifier before any work.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, p := range []int{1, 4} {
		v, err := New(WithParallelism(p))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*Certificate{crt, decoded} {
			if err := v.Verify(cancelled, g, c); !errors.Is(err, context.Canceled) {
				t.Fatalf("parallelism %d: Verify: err=%v, want context.Canceled", p, err)
			}
			if err := v.VerifyDistributed(cancelled, g, c); !errors.Is(err, context.Canceled) {
				t.Fatalf("parallelism %d: VerifyDistributed: err=%v, want context.Canceled", p, err)
			}
		}
	}
}

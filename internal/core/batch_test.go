package core

// Pins for the StructuralProof / batch split: ProveAllWithCtx's labelings
// must be byte-identical to B independent ProveCtx calls, across every
// generator family, including failure parity (a property failing in the
// batch fails the same way independently).

import (
	"context"
	"errors"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/gen"
	"repro/internal/graph"
)

// batchProps is a property mix with both holding and failing members on
// most families, exercising the Failed bookkeeping alongside labelings.
func batchProps() []algebra.Property {
	return []algebra.Property{
		algebra.Colorable{Q: 2},
		algebra.Colorable{Q: 3},
		algebra.Acyclic{},
		algebra.MaxDegreeAtMost{D: 3},
		algebra.EvenEdges{},
	}
}

func TestProveAllByteIdenticalToIndependentProves(t *testing.T) {
	props := batchProps()
	for _, tc := range regressionConfigs(t) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cert.NewConfig(tc.g)
			b, err := NewBatch(props, BatchOptions{MaxLanes: 8, Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			sp, err := BuildStructureCtx(context.Background(), cfg, nil, StructureOptions{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			labelings, stats, err := b.ProveAllWithCtx(context.Background(), sp)
			if err != nil {
				t.Fatal(err)
			}
			for _, prop := range props {
				name := prop.Name()
				s := NewScheme(prop, 8)
				refLabeling, refStats, refErr := s.ProveCtx(context.Background(), cert.NewConfig(tc.g), nil)
				if refErr != nil {
					if !errors.Is(refErr, ErrPropertyFails) {
						t.Fatalf("%s: independent Prove: %v", name, refErr)
					}
					if ferr, failed := stats.Failed[name]; !failed || !errors.Is(ferr, ErrPropertyFails) {
						t.Fatalf("%s: independent Prove fails (%v) but batch recorded %v", name, refErr, ferr)
					}
					if _, ok := labelings[name]; ok {
						t.Fatalf("%s: failing property has a batch labeling", name)
					}
					continue
				}
				got, ok := labelings[name]
				if !ok {
					t.Fatalf("%s: independent Prove succeeds but batch has no labeling (failed: %v)",
						name, stats.Failed[name])
				}
				st := stats.PerProperty[name]
				if st == nil {
					t.Fatalf("%s: batch has no stats", name)
				}
				// Stage timings are wall-clock, never comparable across runs.
				gotSt, wantSt := *st, *refStats
				gotSt.Stages, wantSt.Stages = StageTimings{}, StageTimings{}
				if gotSt != wantSt {
					t.Fatalf("%s: stats differ: batch %+v vs independent %+v", name, gotSt, wantSt)
				}
				if len(got.Edges) != len(refLabeling.Edges) {
					t.Fatalf("%s: edge count differs", name)
				}
				for e, el := range refLabeling.Edges {
					bl := got.Edges[e]
					if bl == nil {
						t.Fatalf("%s: edge %v missing from batch labeling", name, e)
					}
					if el.Key() != bl.Key() {
						t.Fatalf("%s: edge %v label differs between batch and independent Prove", name, e)
					}
					if el.Bits() != bl.Bits() {
						t.Fatalf("%s: edge %v bit size differs", name, e)
					}
				}
			}
			// Shared-structure stats must match any successful property's
			// structural stats.
			for name, st := range stats.PerProperty {
				if st.Lanes != stats.Lanes || st.VirtualEdges != stats.VirtualEdges ||
					st.Congestion != stats.Congestion || st.HierarchyDepth != stats.HierarchyDepth {
					t.Fatalf("%s: structural stats diverge: %+v vs batch %+v", name, st, stats)
				}
			}
		})
	}
}

func TestVerifyAllAcceptsBatchLabelings(t *testing.T) {
	g := gen.Caterpillar(10, 1)
	cfg := cert.NewConfig(g)
	b, err := NewBatch(batchProps(), BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := BuildStructureCtx(context.Background(), cfg, nil, StructureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	labelings, _, err := b.ProveAllWithCtx(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(labelings) == 0 {
		t.Fatal("no property certified")
	}
	for name, l := range labelings {
		if !AllAccept(verify(b.Scheme(name), cfg, l)) {
			t.Errorf("%s: honest batch labeling rejected", name)
		}
	}
	// Cross-wiring labelings to the wrong scheme must not be silently
	// accepted as a batch of this shape.
	if b.Scheme("no-such-property") != nil {
		t.Error("batch has a scheme for an unknown property")
	}
}

func TestProveAllSharedStructureReuse(t *testing.T) {
	g := graph.PathGraph(24)
	cfg := cert.NewConfig(g)
	sp, err := BuildStructureCtx(context.Background(), cfg, nil, StructureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := NewBatch([]algebra.Property{algebra.Colorable{Q: 2}}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := NewBatch([]algebra.Property{algebra.Acyclic{}}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// One structure served to two batches: both must certify and verify.
	for _, b := range []*Batch{b1, b2} {
		labelings, _, err := b.ProveAllWithCtx(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		for name, l := range labelings {
			if !AllAccept(verify(b.Scheme(name), cfg, l)) {
				t.Errorf("%s: rejected on reused structure", name)
			}
		}
	}
}

func TestProveAllSingleVertex(t *testing.T) {
	g := graph.New(1)
	cfg := cert.NewConfig(g)
	b, err := NewBatch([]algebra.Property{algebra.Colorable{Q: 2}, algebra.Acyclic{}}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := BuildStructureCtx(context.Background(), cfg, nil, StructureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	labelings, stats, err := b.ProveAllWithCtx(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(labelings) != 2 {
		t.Fatalf("expected 2 single-vertex labelings, got %d", len(labelings))
	}
	for name, l := range labelings {
		if len(l.Edges) != 0 {
			t.Errorf("%s: single-vertex labeling has edges", name)
		}
	}
	if stats.Lanes != 0 || stats.HierarchyDepth != 0 {
		t.Errorf("single-vertex batch has structural stats: %+v", stats)
	}
}

func TestNewBatchRejectsBadInputs(t *testing.T) {
	if _, err := NewBatch(nil, BatchOptions{}); err == nil {
		t.Error("empty batch accepted")
	}
	dup := []algebra.Property{algebra.Acyclic{}, algebra.Acyclic{}}
	if _, err := NewBatch(dup, BatchOptions{}); err == nil {
		t.Error("duplicate property accepted")
	}
}

func TestProveWithRejectsLaneBudgetOverflow(t *testing.T) {
	g := gen.Caterpillar(8, 2)
	cfg := cert.NewConfig(g)
	sp, err := BuildStructureCtx(context.Background(), cfg, nil, StructureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheme(algebra.Colorable{Q: 2}, 1)
	if _, _, err := s.ProveWithCtx(context.Background(), sp); !errors.Is(err, ErrTooManyLanes) {
		t.Fatalf("expected ErrTooManyLanes, got %v", err)
	}
}

package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/cert"
	"repro/internal/lanewidth"
)

// Terminal identifiers are lists aligned with their lane sets. An in-memory
// label (one never decoded, so never length-checked by the wire grammar)
// can break that alignment; these tests forge every such shape on every
// copy of a node's entry — so the cross-edge agreement checks pass and the
// deeper checks run — and require some vertex to reject without panicking.

// layoutForgery mutates one node entry in place and reports whether the
// forgery applies to it.
type layoutForgery struct {
	name  string
	apply func(s *Scheme, e *NodeEntry) bool
}

func shorter(ids []uint64) []uint64 { return slices.Clone(ids[:len(ids)-1]) }
func longer(ids []uint64) []uint64  { return append(slices.Clone(ids), 1) }

// resize drops the last id of a non-empty list, or appends one id when grow
// is set, and reports whether it changed the list.
func resize(ids *[]uint64, grow bool) bool {
	if grow {
		*ids = longer(*ids)
		return true
	}
	if len(*ids) == 0 {
		return false
	}
	*ids = shorter(*ids)
	return true
}

func layoutForgeries() []layoutForgery {
	var out []layoutForgery
	for _, grow := range []bool{false, true} {
		size := "short"
		if grow {
			size = "long"
		}
		out = append(out,
			layoutForgery{"entry-in-" + size, func(_ *Scheme, e *NodeEntry) bool { return resize(&e.InIDs, grow) }},
			layoutForgery{"entry-out-" + size, func(_ *Scheme, e *NodeEntry) bool { return resize(&e.OutIDs, grow) }},
			layoutForgery{"entry-mergedout-" + size, func(_ *Scheme, e *NodeEntry) bool {
				return e.ParentID != -1 && resize(&e.MergedOutIDs, grow)
			}},
			layoutForgery{"child-in-" + size, func(_ *Scheme, e *NodeEntry) bool {
				return len(e.Children) > 0 && resize(&e.Children[0].InIDs, grow)
			}},
			layoutForgery{"child-mergedout-" + size, func(_ *Scheme, e *NodeEntry) bool {
				return len(e.Children) > 0 && resize(&e.Children[0].MergedOutIDs, grow)
			}},
			layoutForgery{"rootmember-in-" + size, func(_ *Scheme, e *NodeEntry) bool {
				return e.RootMember != nil && resize(&e.RootMember.InIDs, grow)
			}},
			layoutForgery{"rootmember-mergedout-" + size, func(_ *Scheme, e *NodeEntry) bool {
				return e.RootMember != nil && resize(&e.RootMember.MergedOutIDs, grow)
			}},
			layoutForgery{"operand-in-" + size, func(_ *Scheme, e *NodeEntry) bool {
				return e.Left != nil && resize(&e.Left.InIDs, grow)
			}},
			layoutForgery{"operand-out-" + size, func(_ *Scheme, e *NodeEntry) bool {
				return e.Right != nil && resize(&e.Right.OutIDs, grow)
			}},
		)
	}
	// Merge lanes absent from their operand: the other operand's lane (a
	// lane of the B-node itself) and a lane of no node at all.
	out = append(out,
		layoutForgery{"lanei-other-operand", func(_ *Scheme, e *NodeEntry) bool {
			if e.Kind != lanewidth.BNode || e.Right == nil || len(e.Right.Lanes) == 0 {
				return false
			}
			e.LaneI = e.Right.Lanes[0]
			return true
		}},
		layoutForgery{"lanej-other-operand", func(_ *Scheme, e *NodeEntry) bool {
			if e.Kind != lanewidth.BNode || e.Left == nil || len(e.Left.Lanes) == 0 {
				return false
			}
			e.LaneJ = e.Left.Lanes[0]
			return true
		}},
		layoutForgery{"lanei-unused", func(s *Scheme, e *NodeEntry) bool {
			if e.Kind != lanewidth.BNode {
				return false
			}
			e.LaneI = s.MaxLanes + 3
			return true
		}},
		layoutForgery{"lanej-unused", func(s *Scheme, e *NodeEntry) bool {
			if e.Kind != lanewidth.BNode {
				return false
			}
			e.LaneJ = s.MaxLanes + 3
			return true
		}},
	)
	return out
}

// entryCopies returns every entry of the labeling (own certificates and
// embedded payloads alike) grouped by node id, and the ids in first-seen
// order over the graph's sorted edges.
func entryCopies(cfg *cert.Config, l *Labeling) (map[int][]*NodeEntry, []int) {
	byID := map[int][]*NodeEntry{}
	var order []int
	add := func(c *CEdgeLabel) {
		for _, e := range c.Path {
			if _, seen := byID[e.NodeID]; !seen {
				order = append(order, e.NodeID)
			}
			byID[e.NodeID] = append(byID[e.NodeID], e)
		}
	}
	for edge := range cfg.G.EdgesSeq() {
		el := l.Edges[edge]
		if el.Own != nil {
			add(el.Own)
		}
		for _, emb := range el.Emb {
			add(emb.Payload)
		}
	}
	return byID, order
}

// verifyNoPanic runs the verifier, turning a panic into a test failure.
func verifyNoPanic(t *testing.T, s *Scheme, cfg *cert.Config, l *Labeling) (verdicts []bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("verifier panicked: %v", r)
		}
	}()
	return verify(s, cfg, l)
}

func TestVerifierRejectsMisalignedLayouts(t *testing.T) {
	const perForgery = 3 // forged node ids per family and forgery
	applied := map[string]int{}
	for _, tc := range regressionConfigs(t) {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheme(tc.prop, 8)
			cfg := cert.NewConfig(tc.g)
			labeling, _, err := s.ProveCtx(context.Background(), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, order := entryCopies(cfg, labeling)
			for _, f := range layoutForgeries() {
				forged := 0
				for _, id := range order {
					if forged == perForgery {
						break
					}
					clone := labeling.Clone()
					copies, _ := entryCopies(cfg, clone)
					hit := false
					for _, e := range copies[id] {
						if f.apply(s, e) {
							hit = true
						}
					}
					if !hit {
						continue
					}
					forged++
					if AllAccept(verifyNoPanic(t, s, cfg, clone)) {
						t.Errorf("%s on node %d accepted", f.name, id)
					}
				}
				applied[f.name] += forged
			}
		})
	}
	for _, f := range layoutForgeries() {
		if applied[f.name] == 0 {
			t.Errorf("%s applies to no node of any family", f.name)
		}
	}
}

package lanewidth

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/lanes"
)

// figure10Builder builds a small 3-lane construction in the style of the
// paper's Figure 10, exercising all hierarchy cases: V-inserts on several
// lanes and E-inserts whose owners are leaves, siblings, and ancestors.
func figure10Builder(t *testing.T) *Builder {
	t.Helper()
	b, err := NewBuilder(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.VInsert(0); err != nil {
		t.Fatal(err)
	}
	if err := b.EInsert(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.VInsert(1); err != nil {
		t.Fatal(err)
	}
	if err := b.EInsert(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.EInsert(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.VInsert(2); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBuilderBasics(t *testing.T) {
	b, err := NewBuilder(4)
	if err != nil {
		t.Fatal(err)
	}
	g := b.Graph()
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("initial path: n=%d m=%d", g.N(), g.M())
	}
	v, err := b.VInsert(1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 4 || b.Designated(1) != 4 || !g.HasEdge(1, 4) {
		t.Fatalf("V-insert wrong: v=%d τ1=%d", v, b.Designated(1))
	}
	if err := b.EInsert(1, 3); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(4, 3) {
		t.Fatal("E-insert edge missing")
	}
	if err := b.EInsert(1, 1); err == nil {
		t.Fatal("same-lane E-insert accepted")
	}
	if err := b.EInsert(1, 3); err == nil {
		t.Fatal("duplicate E-insert accepted")
	}
	if _, err := b.VInsert(9); err == nil {
		t.Fatal("out-of-range V-insert accepted")
	}
	if _, err := NewBuilder(0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestReplayMatchesBuilder(t *testing.T) {
	b := figure10Builder(t)
	g2, err := b.Log().Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(b.Graph(), g2) {
		t.Fatal("replay differs from built graph")
	}
}

func sameGraph(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for _, e := range a.Edges() {
		if !b.HasEdge(e.U, e.V) {
			return false
		}
	}
	return true
}

func TestToCompletionIsCompletion(t *testing.T) {
	// Proposition 5.2, item 1 ⇒ item 2: the completion of (G', I', P')
	// derived from the transcript equals the built graph.
	b := figure10Builder(t)
	gPrime, r, p := b.Log().ToCompletion(b.Graph())
	if err := r.Validate(gPrime); err != nil {
		t.Fatalf("interval representation invalid: %v", err)
	}
	if err := p.Validate(r); err != nil {
		t.Fatalf("lane partition invalid: %v", err)
	}
	c := lanes.Complete(gPrime, p, false)
	if !sameGraph(c.Graph, b.Graph()) {
		t.Fatal("completion differs from built graph")
	}
}

func TestFromCompletionRoundTrip(t *testing.T) {
	// item 2 ⇒ item 1: converting the completion data back to an OpLog and
	// replaying reproduces the graph.
	b := figure10Builder(t)
	gPrime, r, p := b.Log().ToCompletion(b.Graph())
	log, err := FromCompletion(gPrime, r, p)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := log.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(b.Graph(), g2) {
		t.Fatal("FromCompletion replay differs from original graph")
	}
}

func TestKLaneMerges(t *testing.T) {
	// Bridge-merge of two single-edge graphs on lanes 0 and 1.
	a := SingleEdge(0)
	bEdge := SingleEdge(1)
	m, err := BridgeMerge(a, bEdge, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.G.N() != 4 || m.G.M() != 3 {
		t.Fatalf("bridge merge: n=%d m=%d", m.G.N(), m.G.M())
	}
	if !m.G.HasEdge(a.Out[0], bEdge.Out[1]+2) {
		t.Fatal("bridge edge missing")
	}
	if got := m.Lanes(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("merged lanes = %v", got)
	}
	// Lane clash.
	if _, err := BridgeMerge(a, SingleEdge(0), 0, 0); err == nil {
		t.Fatal("lane clash accepted")
	}
	// Missing lane.
	if _, err := BridgeMerge(a, bEdge, 5, 1); err == nil {
		t.Fatal("missing lane accepted")
	}
}

func TestParentMergeGluing(t *testing.T) {
	// Parent: path on 2 lanes. Child: single edge on lane 0.
	parent := InitialPath(2)
	child := SingleEdge(0)
	m, _, err := ParentMerge(child, parent)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Glued vertex: child's in-terminal onto parent's out-terminal 0.
	if m.G.N() != 3 {
		t.Fatalf("n=%d, want 3 (one glued vertex)", m.G.N())
	}
	if m.Out[0] == parent.Out[0] {
		t.Fatal("lane 0 out-terminal not advanced to child's")
	}
	if m.Out[1] != parent.Out[1] {
		t.Fatal("lane 1 out-terminal should remain the parent's")
	}
	if m.In[0] != parent.In[0] || m.In[1] != parent.In[1] {
		t.Fatal("in-terminals must come from the parent")
	}
	// Child lane missing from parent.
	if _, _, err := ParentMerge(SingleEdge(7), parent); err == nil {
		t.Fatal("child lane outside parent accepted")
	}
	// Edge identification: gluing a single edge onto a parent that already
	// has that edge between out-terminals.
	p2 := InitialPath(2) // edge between vertices 0,1 = out-terminals 0,1
	badChild := &KLane{
		G:   graph.PathGraph(2),
		In:  map[int]graph.Vertex{0: 0, 1: 1},
		Out: map[int]graph.Vertex{0: 0, 1: 1},
	}
	if _, _, err := ParentMerge(badChild, p2); err == nil {
		t.Fatal("edge identification accepted")
	}
}

func TestHierarchyFigure10(t *testing.T) {
	b := figure10Builder(t)
	h, err := BuildHierarchy(b.Graph(), b.Log())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ValidateP(1); err != nil {
		t.Fatal(err)
	}
	if d := h.Depth(); d > 2*3 {
		t.Fatalf("depth %d exceeds 2k=6", d)
	}
	if h.Root.Kind != TNode {
		t.Fatalf("root kind %v", h.Root.Kind)
	}
	// Every edge of the graph is owned exactly once (checked by Validate);
	// spot-check owners map covers all edges.
	owners := h.EdgeOwners()
	if len(owners) != b.Graph().M() {
		t.Fatalf("owners cover %d of %d edges", len(owners), b.Graph().M())
	}
	for e, n := range owners {
		path := n.NodePath()
		if path[0] != h.Root {
			t.Fatalf("node path of %v does not start at root", e)
		}
		if len(path) > 2*3 {
			t.Fatalf("edge %v has node path of length %d", e, len(path))
		}
	}
}

func randomOpLog(rng *rand.Rand, k, nOps int) (*Builder, error) {
	b, err := NewBuilder(k)
	if err != nil {
		return nil, err
	}
	for len(b.Log().Ops) < nOps {
		if rng.Intn(2) == 0 {
			if _, err := b.VInsert(rng.Intn(k)); err != nil {
				return nil, err
			}
			continue
		}
		i, j := rng.Intn(k), rng.Intn(k)
		if i == j || b.Graph().HasEdge(b.Designated(i), b.Designated(j)) {
			continue
		}
		if err := b.EInsert(i, j); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func TestQuickHierarchyValidAndBoundedDepth(t *testing.T) {
	// Property (Prop 5.6 + Obs 5.5): every random lanewidth-k construction
	// yields a valid hierarchical decomposition of depth ≤ 2k.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(4)
		b, err := randomOpLog(rng, k, 5+rng.Intn(30))
		if err != nil {
			t.Logf("seed %d: builder: %v", seed, err)
			return false
		}
		h, err := BuildHierarchy(b.Graph(), b.Log())
		if err != nil {
			t.Logf("seed %d: hierarchy: %v", seed, err)
			return false
		}
		if err := h.ValidateP(1); err != nil {
			t.Logf("seed %d: validate: %v", seed, err)
			return false
		}
		return h.Depth() <= 2*k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompletionRoundTrip(t *testing.T) {
	// Property (Prop 5.2 both directions): builder → completion → OpLog →
	// replay is the identity on graphs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(4)
		b, err := randomOpLog(rng, k, 3+rng.Intn(25))
		if err != nil {
			return false
		}
		gPrime, r, p := b.Log().ToCompletion(b.Graph())
		if r.Validate(gPrime) != nil || p.Validate(r) != nil {
			t.Logf("seed %d: invalid completion data", seed)
			return false
		}
		c := lanes.Complete(gPrime, p, false)
		if !sameGraph(c.Graph, b.Graph()) {
			t.Logf("seed %d: completion mismatch", seed)
			return false
		}
		log, err := FromCompletion(gPrime, r, p)
		if err != nil {
			t.Logf("seed %d: FromCompletion: %v", seed, err)
			return false
		}
		g2, err := log.Replay()
		if err != nil {
			t.Logf("seed %d: replay: %v", seed, err)
			return false
		}
		return sameGraph(b.Graph(), g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineSection4ToSection5(t *testing.T) {
	// End-to-end: a bounded-pathwidth graph → Prop 4.6 lanes/completion →
	// Prop 5.2 OpLog → Prop 5.6 hierarchy, all validated.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		g, r := randomConnectedIntervalGraph(rng, 4+rng.Intn(16), 2+rng.Intn(2))
		p, c, _, err := lanes.BuildLowCongestion(g, r)
		if err != nil {
			t.Fatal(err)
		}
		// The completion's "G'" for Prop 5.2 is the original graph g; its
		// interval data is r and the lanes are p. The completed graph is
		// c.Graph.
		log, err := FromCompletion(g, r, p)
		if err != nil {
			t.Fatalf("trial %d: FromCompletion: %v", trial, err)
		}
		g2, err := log.Replay()
		if err != nil {
			t.Fatalf("trial %d: replay: %v", trial, err)
		}
		if !sameGraph(c.Graph, g2) {
			t.Fatalf("trial %d: replay differs from completion", trial)
		}
		h, err := BuildHierarchy(c.Graph, log)
		if err != nil {
			t.Fatalf("trial %d: hierarchy: %v", trial, err)
		}
		if err := h.ValidateP(1); err != nil {
			t.Fatalf("trial %d: validate: %v", trial, err)
		}
		if h.Depth() > 2*p.K() {
			t.Fatalf("trial %d: depth %d > 2·%d", trial, h.Depth(), p.K())
		}
	}
}

// randomConnectedIntervalGraph mirrors the generator in the lanes tests: a
// birth/death process with ≤ k active vertices.
func randomConnectedIntervalGraph(rng *rand.Rand, n, k int) (*graph.Graph, *interval.Representation) {
	g := graph.New(n)
	r := interval.NewRepresentation(n)
	var active []graph.Vertex
	step, next := 0, 0
	for next < n || len(active) > 0 {
		step++
		canOpen := next < n && len(active) < k
		mustOpen := len(active) == 0
		if mustOpen || (canOpen && rng.Intn(2) == 0) {
			v := next
			next++
			r.Ivs[v] = interval.Interval{L: step, R: step}
			if len(active) > 0 {
				g.MustAddEdge(v, active[rng.Intn(len(active))])
				for _, w := range active {
					if !g.HasEdge(v, w) && rng.Intn(3) == 0 {
						g.MustAddEdge(v, w)
					}
				}
			}
			active = append(active, v)
			continue
		}
		if len(active) == 1 && next < n {
			continue
		}
		idx := rng.Intn(len(active))
		v := active[idx]
		r.Ivs[v] = interval.Interval{L: r.Ivs[v].L, R: step}
		active = append(active[:idx], active[idx+1:]...)
	}
	return g, r
}

// TestValidateRejectsUnsortedLanes pins the sorted-lanes invariant the Node
// doc promises and core relies on (artifacts alias Lanes without sorting):
// a node whose lanes are listed out of order, with terminals still aligned,
// fails validation, and so does a node with fewer terminals than lanes.
func TestValidateRejectsUnsortedLanes(t *testing.T) {
	build := func() (*Hierarchy, *Node) {
		b := figure10Builder(t)
		h, err := BuildHierarchy(b.Graph(), b.Log())
		if err != nil {
			t.Fatal(err)
		}
		if err := h.ValidateP(2); err != nil {
			t.Fatal(err)
		}
		for _, n := range h.Nodes {
			if n.Kind == PNode {
				return h, n
			}
		}
		t.Fatal("no P-node in the Figure 10 hierarchy")
		return nil, nil
	}

	h, p := build()
	p.Lanes = []int{p.Lanes[2], p.Lanes[1], p.Lanes[0]}
	p.In = []graph.Vertex{p.In[2], p.In[1], p.In[0]}
	p.Out = []graph.Vertex{p.Out[2], p.Out[1], p.Out[0]}
	err := h.ValidateP(2)
	if err == nil || !strings.Contains(err.Error(), "not strictly increasing") {
		t.Fatalf("unsorted lanes: got %v", err)
	}

	h, p = build()
	p.In = p.In[:len(p.In)-1]
	err = h.ValidateP(2)
	if err == nil || !strings.Contains(err.Error(), "terminals for") {
		t.Fatalf("short in-terminal list: got %v", err)
	}
}

package dist

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// verify runs the sequential reference verifier (one worker, on the calling
// goroutine) and returns the per-vertex verdicts.
func verify(s *core.Scheme, cfg *cert.Config, l *core.Labeling) []bool {
	seq := *s
	seq.Workers = 1
	verdicts, _ := seq.VerifyParallelCtx(context.Background(), cfg, l)
	return verdicts
}

func maxDegree(g *graph.Graph) int {
	best := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > best {
			best = d
		}
	}
	return best
}

// completenessCases pairs every graph family of internal/gen (plus the
// plain path and cycle) with a property that holds on it.
func completenessCases(t *testing.T) []struct {
	name string
	g    *graph.Graph
	prop algebra.Property
} {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ig, _ := gen.IntervalGraph(rng, 24, 2)
	lb, err := gen.LanewidthGraph(rng, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	lg := lb.Graph()
	return []struct {
		name string
		g    *graph.Graph
		prop algebra.Property
	}{
		{"path", graph.PathGraph(12), algebra.Colorable{Q: 2}},
		{"cycle", graph.CycleGraph(10), algebra.Colorable{Q: 2}},
		{"caterpillar", gen.Caterpillar(8, 1), algebra.Colorable{Q: 2}},
		{"lobster", gen.Lobster(5, 1), algebra.Acyclic{}},
		{"ladder", gen.Ladder(6), algebra.Colorable{Q: 2}},
		{"grid", gen.Grid(2, 5), algebra.Colorable{Q: 2}},
		{"binarytree", gen.BinaryTree(3), algebra.Acyclic{}},
		{"interval", ig, algebra.Colorable{Q: 3}},
		{"lanewidth", lg, algebra.MaxDegreeAtMost{D: maxDegree(lg)}},
		{"spiderfree", gen.SpiderFreeCaterpillar(rng, 20), algebra.Colorable{Q: 2}},
	}
}

// TestRunCompleteness: an honestly proven labeling is accepted by every
// processor of the simulator on every graph family.
func TestRunCompleteness(t *testing.T) {
	for _, tc := range completenessCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			s := core.NewScheme(tc.prop, 8)
			cfg := cert.NewConfig(tc.g)
			labeling, _, err := s.ProveCtx(context.Background(), cfg, nil)
			if err != nil {
				t.Fatalf("prove: %v", err)
			}
			net := NewNetwork(cfg, s)
			res, err := net.Run(context.Background(), labeling)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !res.Accepted() {
				t.Fatalf("clean labeling rejected at %v", res.Rejected)
			}
			if len(res.Verdicts) != tc.g.N() {
				t.Fatalf("got %d verdicts for %d vertices", len(res.Verdicts), tc.g.N())
			}
		})
	}
}

// TestRunMatchesSequentialVerify: the simulator's verdicts equal the
// sequential verifier's on both clean and corrupted labelings.
func TestRunMatchesSequentialVerify(t *testing.T) {
	g := gen.Caterpillar(8, 1)
	s := core.NewScheme(algebra.Colorable{Q: 2}, 6)
	cfg := cert.NewConfig(g)
	labeling, _, err := s.ProveCtx(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(cfg, s)
	rng := rand.New(rand.NewSource(3))
	labelings := []*core.Labeling{labeling}
	for _, f := range AllFaults {
		if mutated, ok := Inject(rng, labeling, f); ok {
			labelings = append(labelings, mutated)
		}
	}
	for i, l := range labelings {
		want := verify(s, cfg, l)
		res, err := net.Run(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if res.Verdicts[v] != want[v] {
				t.Fatalf("labeling %d vertex %d: dist=%v sequential=%v",
					i, v, res.Verdicts[v], want[v])
			}
		}
	}
}

// TestRunSoundness mirrors internal/core's random-corruption battery on the
// simulator: every fault kind, injected into an honest labeling, makes at
// least one processor reject within the single verification round.
func TestRunSoundness(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		prop algebra.Property
	}{
		{"caterpillar-bipartite", gen.Caterpillar(8, 1), algebra.Colorable{Q: 2}},
		{"cycle-3color", graph.CycleGraph(9), algebra.Colorable{Q: 3}},
		{"lobster-acyclic", gen.Lobster(6, 1), algebra.Acyclic{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := core.NewScheme(tc.prop, 6)
			cfg := cert.NewConfig(tc.g)
			labeling, _, err := s.ProveCtx(context.Background(), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			net := NewNetwork(cfg, s)
			rng := rand.New(rand.NewSource(11))
			for _, fault := range AllFaults {
				for trial := 0; trial < 20; trial++ {
					mutated, ok := Inject(rng, labeling, fault)
					if !ok {
						t.Fatalf("fault %v not injectable", fault)
					}
					res, err := net.Run(context.Background(), mutated)
					if err != nil {
						t.Fatal(err)
					}
					if res.Accepted() {
						t.Fatalf("fault %v trial %d went undetected", fault, trial)
					}
				}
			}
		})
	}
}

// TestRunWithMemoryFault: corrupting one processor's private copy of a
// shared edge label is asymmetric — only the exchange round can reveal the
// disagreement, and some processor (the corrupted one or a neighbor) must
// reject. The honest labeling itself stays accepted afterwards.
func TestRunWithMemoryFault(t *testing.T) {
	g := gen.Caterpillar(8, 1)
	s := core.NewScheme(algebra.Colorable{Q: 2}, 6)
	cfg := cert.NewConfig(g)
	labeling, _, err := s.ProveCtx(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(cfg, s)
	rng := rand.New(rand.NewSource(9))
	for _, fault := range AllFaults {
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) == 0 {
				continue
			}
			res, ok, err := net.RunWithMemoryFault(context.Background(), labeling, rng, v, fault)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue // no incident label hosts this fault at v
			}
			if res.Accepted() {
				t.Fatalf("fault %v in processor %d's memory went undetected", fault, v)
			}
		}
	}
	res, err := net.Run(context.Background(), labeling)
	if err != nil || !res.Accepted() {
		t.Fatalf("honest labeling no longer accepted: %v err=%v", res.Rejected, err)
	}
	if _, _, err := net.RunWithMemoryFault(context.Background(), nil, rng, 0, FlipClass); err == nil {
		t.Fatal("nil labeling accepted")
	}
	if _, _, err := net.RunWithMemoryFault(context.Background(), labeling, rng, 0, numFaults); err == nil {
		t.Fatal("unknown fault accepted")
	}
}

// TestRunContextCancellation: a canceled context aborts the round with
// context.Canceled and no verdicts.
func TestRunContextCancellation(t *testing.T) {
	g := gen.Caterpillar(10, 1)
	s := core.NewScheme(algebra.Colorable{Q: 2}, 6)
	cfg := cert.NewConfig(g)
	labeling, _, err := s.ProveCtx(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(cfg, s)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := net.Run(ctx, labeling); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with canceled context: err=%v, want context.Canceled", err)
	}

	// Sanity: the same network still works with a live context afterwards.
	res, err := net.Run(context.Background(), labeling)
	if err != nil || !res.Accepted() {
		t.Fatalf("Run after cancellation: accepted=%v err=%v", res.Accepted(), err)
	}
}

// TestRunRepeatable: Run can be invoked repeatedly on one Network (the
// self-stabilization loop re-verifies after every recovery).
func TestRunRepeatable(t *testing.T) {
	g := gen.Ladder(5)
	s := core.NewScheme(algebra.Colorable{Q: 2}, 6)
	cfg := cert.NewConfig(g)
	labeling, _, err := s.ProveCtx(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(cfg, s)
	for i := 0; i < 3; i++ {
		res, err := net.Run(context.Background(), labeling)
		if err != nil || !res.Accepted() {
			t.Fatalf("run %d: accepted=%v err=%v", i, res.Accepted(), err)
		}
	}
}

// TestRunNilLabeling: a nil labeling is an error, not a panic.
func TestRunNilLabeling(t *testing.T) {
	g := graph.PathGraph(4)
	s := core.NewScheme(algebra.Colorable{Q: 2}, 4)
	net := NewNetwork(cert.NewConfig(g), s)
	if _, err := net.Run(context.Background(), nil); err == nil {
		t.Fatal("nil labeling accepted")
	}
}

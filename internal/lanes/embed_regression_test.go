package lanes_test

// Regression pin for the batched-BFS embedding: EmbedShortestPathsP must
// return, for every virtual edge, exactly the path the naive per-edge
// g.Path(ve.U, ve.V) reference produces. The prover's labels are built from
// these paths, so path identity is what keeps the optimized prover's output
// bit-identical to the naive one.

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/lanes"
)

// genFamilies returns one representative connected graph per internal/gen
// family (plus the plain path/cycle used throughout the experiments).
func genFamilies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ig, _ := gen.IntervalGraph(rng, 60, 3)
	lb, err := gen.LanewidthGraph(rng, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"path":        graph.PathGraph(48),
		"cycle":       graph.CycleGraph(33),
		"caterpillar": gen.Caterpillar(10, 2),
		"lobster":     gen.Lobster(8, 1),
		"ladder":      gen.Ladder(9),
		"grid":        gen.Grid(4, 5),
		"binarytree":  gen.BinaryTree(4),
		"interval":    ig,
		"lanewidth":   lb.Graph(),
		"spiderfree":  gen.SpiderFreeCaterpillar(rng, 30),
	}
}

// naiveEmbed is the pre-optimization reference: one full BFS per virtual
// edge via g.Path.
func naiveEmbed(t *testing.T, g *graph.Graph, c *lanes.Completion) lanes.Embedding {
	t.Helper()
	emb := make(lanes.Embedding, len(c.Virtual))
	for _, ve := range c.Virtual {
		path := g.Path(ve.U, ve.V)
		if path == nil {
			t.Fatalf("reference: no path for virtual edge %v", ve)
		}
		emb[ve] = path
	}
	return emb
}

func TestEmbedShortestPathsMatchesNaiveReference(t *testing.T) {
	for name, g := range genFamilies(t) {
		t.Run(name, func(t *testing.T) {
			pd, err := interval.Decompose(g)
			if err != nil {
				t.Fatal(err)
			}
			r := pd.ToIntervals(g.N())
			p := lanes.Greedy(r)
			for _, weak := range []bool{false, true} {
				c := lanes.Complete(g, p, weak)
				got, err := lanes.EmbedShortestPathsP(g, c, 1)
				if err != nil {
					t.Fatal(err)
				}
				want := naiveEmbed(t, g, c)
				if len(got) != len(want) {
					t.Fatalf("weak=%v: %d paths, reference has %d", weak, len(got), len(want))
				}
				for ve, wp := range want {
					gp, ok := got[ve]
					if !ok {
						t.Fatalf("weak=%v: virtual edge %v missing", weak, ve)
					}
					if len(gp) != len(wp) {
						t.Fatalf("weak=%v: %v path %v, reference %v", weak, ve, gp, wp)
					}
					for i := range wp {
						if gp[i] != wp[i] {
							t.Fatalf("weak=%v: %v path %v, reference %v", weak, ve, gp, wp)
						}
					}
				}
				if err := got.Validate(g, c); err != nil {
					t.Fatalf("weak=%v: %v", weak, err)
				}
			}
		})
	}
}

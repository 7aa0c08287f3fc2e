package dist

// Regression pin for the parallel verifier: VerifyParallelCtx on a pool of
// four workers must agree with the one-worker sequential reference
// verdict-for-verdict — on honest labelings of every generator family, and
// under every fault of the corruption catalog. Both worker counts are set
// explicitly, so the pool runs even where GOMAXPROCS is 1.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

type verifyFamily struct {
	name string
	g    *graph.Graph
	prop algebra.Property
}

// verifyFamilies pairs one representative graph per internal/gen family with
// a property that holds on it (bipartite where the family is bipartite;
// 3-colorability for the triangle-bearing interval and lanewidth families,
// whose pathwidth ≤ 2 guarantees χ ≤ 3).
func verifyFamilies(t *testing.T) []verifyFamily {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	ig, _ := gen.IntervalGraph(rng, 40, 2)
	lb, err := gen.LanewidthGraph(rng, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	two := algebra.Colorable{Q: 2}
	three := algebra.Colorable{Q: 3}
	return []verifyFamily{
		{"path", graph.PathGraph(40), two},
		{"cycle", graph.CycleGraph(26), two},
		{"caterpillar", gen.Caterpillar(9, 2), two},
		{"lobster", gen.Lobster(7, 1), two},
		{"ladder", gen.Ladder(8), two},
		{"interval", ig, three},
		{"lanewidth", lb.Graph(), three},
		{"spiderfree", gen.SpiderFreeCaterpillar(rng, 26), two},
		// Several 64-vertex chunks, so more than one worker claims work.
		{"ladder-large", gen.Ladder(150), two},
	}
}

func sameVerdicts(t *testing.T, context string, seq, pool []bool) {
	t.Helper()
	if len(seq) != len(pool) {
		t.Fatalf("%s: verdict count %d vs %d", context, len(seq), len(pool))
	}
	for v := range seq {
		if seq[v] != pool[v] {
			t.Fatalf("%s: vertex %d: 1 worker=%v 4 workers=%v", context, v, seq[v], pool[v])
		}
	}
}

func TestVerifyWorkersOneMatchesFour(t *testing.T) {
	for _, fam := range verifyFamilies(t) {
		t.Run(fam.name, func(t *testing.T) {
			s := core.NewScheme(fam.prop, 8)
			cfg := cert.NewConfig(fam.g)
			labeling, _, err := s.ProveCtx(context.Background(), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			pool := *s
			pool.Workers = 4
			verifyPool := func(l *core.Labeling) []bool {
				verdicts, err := pool.VerifyParallelCtx(context.Background(), cfg, l)
				if err != nil {
					t.Fatal(err)
				}
				return verdicts
			}
			sameVerdicts(t, "honest", verify(s, cfg, labeling), verifyPool(labeling))

			rng := rand.New(rand.NewSource(42))
			for _, fault := range AllFaults {
				for trial := 0; trial < 8; trial++ {
					mutated, ok := Inject(rng, labeling, fault)
					if !ok {
						continue
					}
					got := verifyPool(mutated)
					sameVerdicts(t, fault.String(), verify(s, cfg, mutated), got)
					if core.AllAccept(got) {
						t.Fatalf("fault %s trial %d: corruption accepted", fault, trial)
					}
				}
			}
		})
	}
}

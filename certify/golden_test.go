package certify

// Golden wire digests. Every other byte-identity test compares the code
// with itself (prove twice, clone and re-encode, vary worker counts), so a
// layout change that shifted bytes the same way everywhere would pass them
// all. This one compares MarshalBinary output with SHA-256 digests committed
// in testdata/golden_digests.txt. The digests change only with a deliberate
// wire-format change; a refactor that alters any of them is a bug.

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

const goldenDigestsFile = "testdata/golden_digests.txt"

type goldenCase struct {
	name  string
	g     *Graph
	props []string
}

// goldenCases mirrors core's regressionConfigs (one graph per internal/gen
// family, the same seed and draw order), plus one multi-property batch and
// one compiled formula.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ig, _ := gen.IntervalGraph(rng, 40, 2)
	lb, err := gen.LanewidthGraph(rng, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	sf := gen.SpiderFreeCaterpillar(rng, 24)
	wrap := func(g *graph.Graph) *Graph { return &Graph{g: g} }
	return []goldenCase{
		{"path", wrap(graph.PathGraph(32)), []string{"bipartite"}},
		{"cycle", wrap(graph.CycleGraph(22)), []string{"bipartite"}},
		{"caterpillar", wrap(gen.Caterpillar(8, 2)), []string{"bipartite"}},
		{"lobster", wrap(gen.Lobster(6, 1)), []string{"bipartite"}},
		{"ladder", wrap(gen.Ladder(7)), []string{"bipartite"}},
		{"interval", wrap(ig), []string{"3color"}},
		{"lanewidth", wrap(lb.Graph()), []string{"3color"}},
		{"spiderfree", wrap(sf), []string{"bipartite"}},
		{"batch-ladder", wrap(gen.Ladder(7)), []string{"bipartite", "3color", "matching"}},
		{"formula-interval", wrap(ig), []string{"mso:(forall u V (exists v V (adj u v)))"}},
	}
}

func goldenDigest(t *testing.T, tc goldenCase) string {
	t.Helper()
	props, err := PropertiesByName(tc.props...)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(WithProperties(props...))
	if err != nil {
		t.Fatal(err)
	}
	crt, bst, err := c.ProveBatch(context.Background(), tc.g)
	if err != nil {
		t.Fatal(err)
	}
	if len(bst.Failed) != 0 {
		t.Fatalf("%s: properties do not hold: %v", tc.name, bst.Failed)
	}
	blob, err := crt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

func readGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenDigestsFile, line)
		}
		want[name] = strings.TrimSpace(digest)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestGoldenWireDigests(t *testing.T) {
	want := readGoldenDigests(t)
	cases := goldenCases(t)
	var got strings.Builder
	failed := false
	for _, tc := range cases {
		d := goldenDigest(t, tc)
		fmt.Fprintf(&got, "%s %s\n", tc.name, d)
		if want[tc.name] != d {
			t.Errorf("%s: certificate digest %s, golden %q", tc.name, d, want[tc.name])
			failed = true
		}
	}
	if len(want) != len(cases) {
		t.Errorf("%s lists %d cases, the test has %d", goldenDigestsFile, len(want), len(cases))
		failed = true
	}
	if failed {
		t.Logf("digests of this build:\n%s", got.String())
	}
}

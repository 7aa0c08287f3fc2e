package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// contract is the part of BENCHMARK.json the result lines must match.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func shortRun(t *testing.T, o options) (*resultLine, string) {
	t.Helper()
	var out bytes.Buffer
	line, err := run(context.Background(), o, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", o.workload, err, out.String())
	}
	return line, out.String()
}

var digestRE = regexp.MustCompile(`# certificate digest ([0-9a-f]+)`)

// TestWorkloadsEmitContractMetrics runs every workload briefly, untraced
// and traced, and requires exactly the metrics BENCHMARK.json names, with
// their units, and a passing gate. Every workload BENCHMARK.json lists must
// exist; prove-large runs here too although it is not listed.
func TestWorkloadsEmitContractMetrics(t *testing.T) {
	c := loadContract(t)
	have := map[string]bool{}
	for _, sp := range specs {
		have[sp.name] = true
	}
	for _, w := range c.Workloads {
		if !have[w.Name] {
			t.Errorf("BENCHMARK.json lists workload %q, which certbench does not have", w.Name)
		}
	}
	for _, sp := range specs {
		name := sp.name
		t.Run(name, func(t *testing.T) {
			digests := map[string]bool{}
			for trace, want := range [][]metricSpec{c.EndToEnd, c.PerLayer} {
				line, out := shortRun(t, options{workload: name, seed: 7, seconds: 1, trace: trace == 1})
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Fatalf("trace=%d: correct=%t attempted=%d failed=%d\n%s", trace, line.Correct, line.Attempted, line.Failed, out)
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("trace=%d: %d metrics, want %d", trace, len(line.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := line.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace=%d: metric %s missing", trace, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("trace=%d: metric %s has unit %q, want %q", trace, m.Name, got.Unit, m.Unit)
					}
				}
				if m := digestRE.FindStringSubmatch(out); m != nil {
					digests[m[1]] = true
				}
			}
			if len(digests) > 1 {
				t.Errorf("certificate digest differs between two runs at one seed: %v", digests)
			}
		})
	}
}

// TestPlantedFaultsFailTheGate plants the two client-side faults the gate
// must catch: an honest upload swapped for a corrupted blob, and a flipped
// byte in a fetched blob.
func TestPlantedFaultsFailTheGate(t *testing.T) {
	for _, plant := range []string{"swap", "flip"} {
		t.Run(plant, func(t *testing.T) {
			line, out := shortRun(t, options{workload: "serve-roundtrip", seed: 3, seconds: 1, plant: plant})
			if line.Correct || line.Failed == 0 {
				t.Fatalf("planted %s: correct=%t failed=%d, want a failing gate\n%s", plant, line.Correct, line.Failed, out)
			}
		})
	}
}

// TestOpsPerSecondIgnoresABurst checks that a burst slowing one block of
// operations does not move ops_per_s, and that a short window gives its
// own rate.
func TestOpsPerSecondIgnoresABurst(t *testing.T) {
	s := newSamples()
	for i := 0; i < 5*rateBlock; i++ {
		d := 10 * time.Millisecond
		if i/rateBlock == 2 {
			d = 50 * time.Millisecond
		}
		s.add("op", d)
	}
	if got := opsPerSecond(s); math.Abs(got-100) > 1e-9 {
		t.Errorf("ops_per_s = %v, want 100", got)
	}
	short := newSamples()
	short.add("op", time.Millisecond)
	short.window = 500 * time.Millisecond
	if got := opsPerSecond(short); got != 2 {
		t.Errorf("short window: ops_per_s = %v, want 2", got)
	}
}

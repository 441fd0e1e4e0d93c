package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"secmon/internal/core"
	"secmon/internal/model"
	"secmon/internal/synth"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests hold the output
// to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return spec
}

// runCLI runs the benchmark in smoke mode and decodes its last output line.
func runCLI(t *testing.T, workload string, seed, trace string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", seed, "--seconds", "1", "--trace", trace,
		"--smoke", "--tmp", t.TempDir()}
	if code := cli(args, &out, &errOut); code != 0 {
		t.Fatalf("%s exited %d: %s", workload, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %s: correct %v, %d of %d failed\n%s", workload, seed, res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res
}

func assertMetrics(t *testing.T, workload string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", workload, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s unit %q, want %q", workload, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: metric %s is %v", workload, m.Name, g.Value)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, on the
// default seed and one other, and holds the output to BENCHMARK.json: every
// end-to-end and per-layer metric present with its unit, no failed op.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			for _, seed := range []string{"1", "2"} {
				res := runCLI(t, w.Name, seed, "0")
				assertMetrics(t, w.Name, res.Metrics, spec.EndToEnd)
				for _, m := range spec.EndToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s seed %s: end-to-end metric %s is %v, want positive", w.Name, seed, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
			res := runCLI(t, w.Name, "1", "1")
			assertMetrics(t, w.Name, res.Metrics, spec.PerLayer)
		})
	}
}

// TestCorruptedReferenceFails proves the output checks are live: with every
// reference optimum perturbed, each workload must report failed ops.
func TestCorruptedReferenceFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := env{seed: 1, tmp: t.TempDir(), smoke: true, corrupt: true}
			var out bytes.Buffer
			res, err := runPlain(w, e, time.Second, 1, 0, &out)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted references passed every check (%d ops)\n%s", res.Attempted, out.String())
			}
		})
	}
}

// TestScaleOptima re-derives the committed scale optima on the monolithic
// path (no decomposition), a different solver path from the one measured.
func TestScaleOptima(t *testing.T) {
	if testing.Short() {
		t.Skip("monolithic scale solves take tens of seconds")
	}
	sys, err := synth.Generate(scaleMaxUtil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := model.NewIndex(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewOptimizer(idx, core.WithWorkers(1), core.WithoutDecomposition()).
		MaxUtility(sys.TotalMonitorCost() * scaleMaxUtilBudgetFraction)
	if err != nil || !res.Proven {
		t.Fatalf("maxutil: %v (proven %v)", err, res != nil && res.Proven)
	}
	if math.Abs(res.Utility-scaleMaxUtilOptimum) > 1e-9 {
		t.Errorf("scale maxutil optimum %.17g, committed %.17g", res.Utility, scaleMaxUtilOptimum)
	}

	sys, err = synth.Generate(scaleMinCost)
	if err != nil {
		t.Fatal(err)
	}
	if idx, err = model.NewIndex(sys); err != nil {
		t.Fatal(err)
	}
	res, err = core.NewOptimizer(idx, core.WithWorkers(1), core.WithClampToAchievable(), core.WithoutDecomposition()).
		MinCost(core.CoverageTargets{Global: scaleMinCostTarget})
	if err != nil || !res.Proven {
		t.Fatalf("mincost: %v (proven %v)", err, res != nil && res.Proven)
	}
	if math.Abs(res.Cost-scaleMinCostOptimum) > 1e-6 {
		t.Errorf("scale mincost optimum %.17g, committed %.17g", res.Cost, scaleMinCostOptimum)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Op: 1, Name: "c", Start: 15, End: 20},
		{ID: 5, Parent: 1, Op: 1, Name: "d", Start: 90, End: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 50 - 10, 2: 25, 3: 30, 4: 5, 5: 30} {
		if self[id] != want {
			t.Errorf("span %d self %d, want %d", id, self[id], want)
		}
	}
	if got := rootSelfShare(spans); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("root self share %v, want 0.4", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 1: 5, 0.25: 2, 0.9: 4.6} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
}

func TestBodyDiff(t *testing.T) {
	a := []byte(`{"result":{"utility":0.5,"monitors":["m1","m2"],"stats":{"nodes":3,"elapsed":1200}},"deadlineMillis":5000}`)
	for _, c := range []struct {
		b, want string
	}{
		{`{"result":{"utility":0.5,"monitors":["m1","m2"],"stats":{"nodes":3,"elapsed":9999}},"deadlineMillis":5000}`, ""},
		{`{"result":{"utility":0.6,"monitors":["m1","m2"],"stats":{"nodes":3,"elapsed":1200}},"deadlineMillis":5000}`, "$.result.utility"},
		{`{"result":{"utility":0.5,"monitors":["m1","m3"],"stats":{"nodes":3,"elapsed":1200}},"deadlineMillis":5000}`, "$.result.monitors[1]"},
		{`{"result":{"utility":0.5,"monitors":["m1","m2"],"stats":{"nodes":4,"elapsed":1200}},"deadlineMillis":5000}`, "$.result.stats.nodes"},
		{`{"result":{"utility":0.5,"monitors":["m1","m2"],"stats":{"nodes":3}},"deadlineMillis":5000}`, ""},
		{`{"result":{"utility":0.5,"monitors":["m1","m2"],"stats":{"nodes":3,"elapsed":1200}}}`, "$.deadlineMillis"},
	} {
		if got := bodyDiff(a, []byte(c.b)); got != c.want {
			t.Errorf("bodyDiff(%s) = %q, want %q", c.b, got, c.want)
		}
	}
}

package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"secmon/internal/casestudy"
	"secmon/internal/model"
	"secmon/internal/synth"
)

// decisionRecorder is the postPassCheck the decision-check tests install:
// it counts the prune and swap decisions the threshold preview settled and
// records every one the full rescoring took differently.
type decisionRecorder struct {
	mu         sync.Mutex
	settled    map[string]int
	mismatches []string
}

// recordDecisions installs a fresh recorder for the rest of the test.
func recordDecisions(t *testing.T) *decisionRecorder {
	t.Helper()
	if postPassCheck != nil {
		t.Fatal("post-pass check already installed")
	}
	r := &decisionRecorder{settled: map[string]int{}}
	postPassCheck = func(move string, preview, full bool) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.settled[move]++
		if preview != full {
			r.mismatches = append(r.mismatches, fmt.Sprintf("%s: preview %v, full rescoring %v", move, preview, full))
		}
	}
	t.Cleanup(func() { postPassCheck = nil })
	return r
}

// checkInstance is one system of the decision-check suite with the budget
// fractions and MinCost targets it is solved at.
type checkInstance struct {
	name    string
	idx     *model.Index
	budgets []float64 // fractions of the total monitor cost
	targets []float64
}

// decisionInstances are the case study at the E3 budget fractions and the
// E6 targets, the E7 scalability points up to 200 monitors, and 20 small
// synthetic seeds.
func decisionInstances(t *testing.T) []checkInstance {
	t.Helper()
	cs, err := casestudy.BuildIndex()
	if err != nil {
		t.Fatalf("case study: %v", err)
	}
	out := []checkInstance{
		{name: "E3/E6", idx: cs, budgets: []float64{0.10, 0.25, 0.50, 0.75, 1.00}, targets: []float64{0.5, 0.8, 1}},
	}
	gen := func(name string, cfg synth.Config, budgets []float64) {
		sys, err := synth.Generate(cfg)
		if err != nil {
			t.Fatalf("%s: synth: %v", name, err)
		}
		idx, err := model.NewIndex(sys)
		if err != nil {
			t.Fatalf("%s: index: %v", name, err)
		}
		out = append(out, checkInstance{name: name, idx: idx, budgets: budgets})
	}
	for _, m := range []int{50, 100, 200} {
		gen(fmt.Sprintf("E7/%dx100", m), synth.Config{Seed: 1000 + int64(m), Monitors: m, Attacks: 100}, []float64{0.3})
	}
	for seed := int64(1); seed <= 20; seed++ {
		gen(fmt.Sprintf("synth/%d", seed), synth.Config{Seed: seed, Monitors: 16 + int(seed), Attacks: 12, Assets: 3},
			[]float64{0.2, 0.45})
	}
	return out
}

// fixedFor picks the monitors an incremental solve keeps: the first three
// greedy picks at a tenth of the total cost.
func fixedFor(idx *model.Index) *model.Deployment {
	picks := greedyPicks(idx, idx.System().TotalMonitorCost()*0.1, nil)
	d := model.NewDeployment()
	for _, m := range picks[:min(3, len(picks))] {
		d.Add(idx.MonitorAt(int(m)))
	}
	return d
}

// TestPostPassDecisionsMatchFullRescore reruns the full CorroboratedUtility
// recompute on every prune and swap decision the threshold preview settles,
// across the decision-check instances at corroboration 1 and 2, with and
// without fixed monitors, and on the MinCost answers' canonicalization. No
// decision may differ, and each result must equal the one the preview
// alone produces, bit for bit.
func TestPostPassDecisionsMatchFullRescore(t *testing.T) {
	type answer struct {
		monitors []model.MonitorID
		utility  uint64
	}
	run := func(opt *Optimizer, in checkInstance, fixed *model.Deployment) []answer {
		var out []answer
		total := in.idx.System().TotalMonitorCost()
		for _, frac := range in.budgets {
			res, err := opt.MaxUtilityIncremental(total*frac, fixed)
			if err != nil {
				t.Fatalf("%s budget %v: %v", in.name, frac, err)
			}
			out = append(out, answer{res.Monitors, math.Float64bits(res.Utility)})
		}
		for _, tau := range in.targets {
			res, err := opt.MinCostIncremental(CoverageTargets{Global: tau}, fixed)
			if err != nil {
				t.Fatalf("%s target %v: %v", in.name, tau, err)
			}
			d := res.Deployment.Clone()
			opt.Canonicalize(d, true)
			out = append(out, answer{d.IDs(), math.Float64bits(opt.Objective(d))})
		}
		return out
	}

	instances := decisionInstances(t)
	plain := map[string][]answer{}
	key := func(in checkInstance, k int, fixed bool) string {
		return fmt.Sprintf("%s k=%d fixed=%v", in.name, k, fixed)
	}
	for _, in := range instances {
		for k := 1; k <= 2; k++ {
			for _, fixed := range []*model.Deployment{nil, fixedFor(in.idx)} {
				opt := NewOptimizer(in.idx, WithWorkers(1), WithCorroboration(k), WithClampToAchievable())
				plain[key(in, k, fixed != nil)] = run(opt, in, fixed)
			}
		}
	}

	rec := recordDecisions(t)
	for _, in := range instances {
		for k := 1; k <= 2; k++ {
			for _, fixed := range []*model.Deployment{nil, fixedFor(in.idx)} {
				opt := NewOptimizer(in.idx, WithWorkers(1), WithCorroboration(k), WithClampToAchievable())
				name := key(in, k, fixed != nil)
				got := run(opt, in, fixed)
				for i := range got {
					if !slices.Equal(got[i].monitors, plain[name][i].monitors) || got[i].utility != plain[name][i].utility {
						t.Errorf("%s answer %d: full rescoring %v, preview %v", name, i, got[i], plain[name][i])
					}
				}
			}
		}
	}
	for _, m := range rec.mismatches {
		t.Error(m)
	}
	if rec.settled["prune"] == 0 || rec.settled["swap"] == 0 {
		t.Fatalf("preview settled too few decisions to check: %v", rec.settled)
	}
	t.Logf("decisions settled by the preview and confirmed: %v", rec.settled)
}

// TestCanonicalizeRandomSetsMatchesFullRescore drives the post-passes over
// random deployments, where the prune and swap moves cross the threshold in
// every combination, and checks each settled decision against the full
// rescoring.
func TestCanonicalizeRandomSetsMatchesFullRescore(t *testing.T) {
	rec := recordDecisions(t)
	for seed := int64(1); seed <= 20; seed++ {
		sys, err := synth.Generate(synth.Config{Seed: seed, Monitors: 30, Attacks: 15, Assets: 2})
		if err != nil {
			t.Fatalf("synth: %v", err)
		}
		// Equal costs make every pair a swap candidate.
		for i := range sys.Monitors {
			sys.Monitors[i].CapitalCost, sys.Monitors[i].OperationalCost = float64(1+i%3), 0
		}
		idx, err := model.NewIndex(sys)
		if err != nil {
			t.Fatalf("index: %v", err)
		}
		ids := idx.MonitorIDs()
		for k := 1; k <= 2; k++ {
			opt := NewOptimizer(idx, WithCorroboration(k))
			for trial := 0; trial < 5; trial++ {
				d := model.NewDeployment()
				for i, id := range ids {
					if (i*7+trial*3+int(seed))%4 != 0 {
						d.Add(id)
					}
				}
				opt.Canonicalize(d, trial%2 == 0)
			}
		}
	}
	for _, m := range rec.mismatches {
		t.Error(m)
	}
	if rec.settled["prune"] == 0 || rec.settled["swap"] == 0 {
		t.Fatalf("preview settled too few decisions to check: %v", rec.settled)
	}
}

// referenceGreedyPicks is the map-based greedy cost-benefit selection:
// string-keyed coverage and contribution maps over the sorted monitor list,
// every monitor rescored every round. It returns the monitors it adds in
// pick order.
func referenceGreedyPicks(idx *model.Index, budget float64, fixed *model.Deployment) []model.MonitorID {
	total := idx.System().TotalAttackWeight()
	contrib := make(map[model.DataTypeID]float64)
	for _, a := range idx.System().Attacks {
		ev := idx.AttackEvidence(a.ID)
		share := model.AttackWeight(a) / (total * float64(len(ev)))
		for _, e := range ev {
			contrib[e] += share
		}
	}
	deployment := model.NewDeployment()
	covered := make(map[model.DataTypeID]bool)
	remaining := budget
	if fixed != nil {
		for _, id := range fixed.IDs() {
			deployment.Add(id)
			m, _ := idx.Monitor(id)
			for _, d := range m.Produces {
				covered[d] = true
			}
		}
	}
	marginal := func(id model.MonitorID) float64 {
		m, _ := idx.Monitor(id)
		gain := 0.0
		for _, d := range m.Produces {
			if !covered[d] {
				gain += contrib[d]
			}
		}
		return gain
	}
	var picks []model.MonitorID
	for {
		best := model.MonitorID("")
		bestRatio, bestGain := 0.0, 0.0
		for _, id := range idx.MonitorIDs() {
			if deployment.Contains(id) {
				continue
			}
			m, _ := idx.Monitor(id)
			cost := m.TotalCost()
			if cost > remaining {
				continue
			}
			gain := marginal(id)
			if gain <= 0 {
				continue
			}
			ratio := gain / math.Max(cost, 1e-12)
			if best == "" || ratio > bestRatio+1e-15 ||
				(math.Abs(ratio-bestRatio) <= 1e-15 && gain > bestGain) {
				best, bestRatio, bestGain = id, ratio, gain
			}
		}
		if best == "" {
			return picks
		}
		picks = append(picks, best)
		deployment.Add(best)
		m, _ := idx.Monitor(best)
		remaining -= m.TotalCost()
		for _, d := range m.Produces {
			covered[d] = true
		}
	}
}

// TestGreedyMatchesMapReference compares the ordinal greedy with the
// map-based reference pick by pick, across the decision-check instances at
// budgets from 0 to the total cost, with and without fixed monitors.
func TestGreedyMatchesMapReference(t *testing.T) {
	for _, in := range decisionInstances(t) {
		total := in.idx.System().TotalMonitorCost()
		for _, fixed := range []*model.Deployment{nil, fixedFor(in.idx)} {
			for i := 0; i <= 10; i++ {
				budget := total * float64(i) / 10
				want := referenceGreedyPicks(in.idx, budget, fixed)
				got := greedyPicks(in.idx, budget, fixed)
				if len(got) != len(want) {
					t.Fatalf("%s budget %v fixed=%v: %d picks, reference %d", in.name, budget, fixed != nil, len(got), len(want))
				}
				for j, m := range got {
					if in.idx.MonitorAt(int(m)) != want[j] {
						t.Fatalf("%s budget %v fixed=%v: pick %d is %s, reference %s",
							in.name, budget, fixed != nil, j, in.idx.MonitorAt(int(m)), want[j])
					}
				}
			}
		}
	}
}

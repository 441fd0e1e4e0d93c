package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"secmon/internal/metrics"
	"secmon/internal/model"
	"secmon/internal/synth"
)

func TestMaxWeightedPureUtilityMatchesMaxUtility(t *testing.T) {
	// Under corroboration both objectives count only evidence k monitors
	// produce, so their corroborated utilities must agree, and the weighted
	// score is that corroborated utility; at k = 1 it is plain utility.
	idx := testIndex(t)
	for _, k := range []int{1, 2} {
		for _, budget := range []float64{15, 45, 75} {
			exact, err := NewOptimizer(idx, WithCorroboration(k)).MaxUtility(budget)
			if err != nil {
				t.Fatalf("k=%d MaxUtility(%v): %v", k, budget, err)
			}
			weighted, err := NewOptimizer(idx, WithCorroboration(k)).MaxWeighted(budget, Objectives{Utility: 1})
			if err != nil {
				t.Fatalf("k=%d MaxWeighted(%v): %v", k, budget, err)
			}
			got := metrics.CorroboratedUtility(idx, weighted.Deployment, k)
			want := metrics.CorroboratedUtility(idx, exact.Deployment, k)
			if !approx(got, want) {
				t.Errorf("k=%d budget %v: weighted corroborated utility %v != exact %v", k, budget, got, want)
			}
			if !approx(weighted.Score, got) {
				t.Errorf("k=%d budget %v: score %v != corroborated utility %v", k, budget, weighted.Score, got)
			}
		}
	}
}

func TestMaxWeightedRedundancyPrefersOverlap(t *testing.T) {
	// With a pure redundancy objective and enough budget, the optimizer
	// deploys everything: every monitor adds redundancy.
	idx := testIndex(t)
	res, err := NewOptimizer(idx).MaxWeighted(idx.System().TotalMonitorCost(), Objectives{Redundancy: 1})
	if err != nil {
		t.Fatalf("MaxWeighted: %v", err)
	}
	if len(res.Monitors) != len(idx.MonitorIDs()) {
		t.Errorf("deployment = %v, want all monitors", res.Monitors)
	}
	if !approx(res.RedundancyValue, metrics.MeanRedundancy(idx, res.Deployment)) {
		t.Errorf("redundancy value %v mismatch", res.RedundancyValue)
	}
}

func TestMaxWeightedRichnessComponent(t *testing.T) {
	idx := testIndex(t)
	res, err := NewOptimizer(idx).MaxWeighted(45, Objectives{Richness: 1})
	if err != nil {
		t.Fatalf("MaxWeighted: %v", err)
	}
	if !approx(res.RichnessValue, metrics.Richness(idx, res.Deployment)) {
		t.Errorf("richness value %v != metric %v", res.RichnessValue, metrics.Richness(idx, res.Deployment))
	}
	if res.Cost > 45+testTol {
		t.Errorf("cost %v over budget", res.Cost)
	}
}

func TestMaxWeightedValidation(t *testing.T) {
	idx := testIndex(t)
	opt := NewOptimizer(idx)
	for _, w := range []Objectives{
		{},
		{Utility: -1},
		{Richness: math.NaN()},
		{Redundancy: math.Inf(1)},
	} {
		if _, err := opt.MaxWeighted(10, w); !errors.Is(err, ErrBadObjectives) {
			t.Errorf("MaxWeighted(%+v) error = %v, want ErrBadObjectives", w, err)
		}
	}
	if _, err := opt.MaxWeighted(-1, Objectives{Utility: 1}); !errors.Is(err, ErrBadBudget) {
		t.Errorf("error = %v, want ErrBadBudget", err)
	}
}

// TestQuickWeightedScoreIsExhaustiveOptimum cross-checks the weighted ILP
// against subset enumeration of the weighted score.
func TestQuickWeightedScoreIsExhaustiveOptimum(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	property := func(seed int64) bool {
		idx := randomIndex(t, seed, 4+r.Intn(5), 2+r.Intn(4))
		budget := idx.System().TotalMonitorCost() * r.Float64()
		weights := Objectives{
			Utility:    r.Float64(),
			Richness:   r.Float64(),
			Redundancy: r.Float64() * 0.3,
		}
		if weights.Utility+weights.Richness+weights.Redundancy == 0 {
			weights.Utility = 1
		}

		res, err := NewOptimizer(idx).MaxWeighted(budget, weights)
		if err != nil {
			t.Logf("MaxWeighted: %v", err)
			return false
		}

		score := func(d *model.Deployment) float64 {
			return weights.Utility*metrics.Utility(idx, d) +
				weights.Richness*metrics.Richness(idx, d) +
				weights.Redundancy*metrics.MeanRedundancy(idx, d)
		}
		// Exhaustive check over all subsets within budget.
		ids := idx.MonitorIDs()
		best := 0.0
		for mask := 0; mask < 1<<len(ids); mask++ {
			d := model.NewDeployment()
			for i := range ids {
				if mask>>i&1 == 1 {
					d.Add(ids[i])
				}
			}
			if metrics.Cost(idx, d) > budget {
				continue
			}
			if s := score(d); s > best {
				best = s
			}
		}
		if res.Score < best-1e-6 {
			t.Logf("seed %d: weighted ILP score %v below exhaustive %v", seed, res.Score, best)
			return false
		}
		if res.Score > best+1e-6 {
			t.Logf("seed %d: weighted ILP score %v above exhaustive %v (metric mismatch)", seed, res.Score, best)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMaxWeightedCorroboratedScore checks that Score is the objective the
// ILP maximized: under corroboration k = 2 a proven solve's Score equals its
// BestBound, while Utility and RichnessValue stay plain. At k = 1 the score
// is the plain weighted sum.
func TestMaxWeightedCorroboratedScore(t *testing.T) {
	idx := synthIndex(t, synth.Config{Seed: 3, Monitors: 40, Attacks: 40})
	budget := idx.System().TotalMonitorCost() * 0.4
	weights := Objectives{Utility: 1, Richness: 0.5}

	res, err := NewOptimizer(idx, WithCorroboration(2)).MaxWeighted(budget, weights)
	if err != nil {
		t.Fatalf("k=2: %v", err)
	}
	if !res.Proven || math.Abs(res.Score-res.BestBound) > 1e-9 {
		t.Errorf("k=2: proven %v, score %v, best bound %v; want a proven score equal to the bound",
			res.Proven, res.Score, res.BestBound)
	}
	if res.Utility != metrics.Utility(idx, res.Deployment) ||
		res.RichnessValue != metrics.Richness(idx, res.Deployment) {
		t.Errorf("k=2: utility %v, richness %v; want the plain metrics", res.Utility, res.RichnessValue)
	}

	plain, err := NewOptimizer(idx).MaxWeighted(budget, weights)
	if err != nil {
		t.Fatalf("k=1: %v", err)
	}
	if math.Abs(plain.Score-1.457343) > 5e-7 {
		t.Errorf("k=1: score %v, want 1.457343", plain.Score)
	}
}

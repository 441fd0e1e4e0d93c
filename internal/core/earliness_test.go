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

func TestMaxEarlinessPureUtilityMatchesMaxUtility(t *testing.T) {
	idx := testIndex(t)
	for _, budget := range []float64{30, 60} {
		plain, err := NewOptimizer(idx).MaxUtility(budget)
		if err != nil {
			t.Fatal(err)
		}
		res, err := NewOptimizer(idx).MaxEarliness(budget, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(plain.Utility, res.Utility) {
			t.Errorf("budget %v: earliness(1,0) utility %v != MaxUtility %v", budget, res.Utility, plain.Utility)
		}
	}
}

func TestMaxEarlinessPrefersEarlyEvidence(t *testing.T) {
	// Two monitors, equal cost; attack with two steps. Covering the first
	// step gives earliness 1, covering the second gives 0.5. Both give
	// utility 0.5. A pure earliness objective must pick the early monitor.
	sys, err := model.NewBuilder("early").
		Asset("h", "Host", "host").
		DataType("d-early", "Early data", "h", "f").
		DataType("d-late", "Late data", "h", "f").
		Monitor("m-early", "Early monitor", "h", 10, 0, "d-early").
		Monitor("m-late", "Late monitor", "h", 10, 0, "d-late").
		Attack("a", "Two-step attack", 1).
		Step("first", "d-early").
		Step("second", "d-late").
		Done().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	idx, err := model.NewIndex(sys)
	if err != nil {
		t.Fatal(err)
	}

	res, err := NewOptimizer(idx).MaxEarliness(10, 0, 1)
	if err != nil {
		t.Fatalf("MaxEarliness: %v", err)
	}
	if !res.Deployment.Contains("m-early") {
		t.Errorf("deployment %v, want m-early", res.Monitors)
	}
	if !approx(res.EarlinessValue, 1) {
		t.Errorf("earliness = %v, want 1", res.EarlinessValue)
	}
}

func TestMaxEarlinessValidation(t *testing.T) {
	idx := testIndex(t)
	opt := NewOptimizer(idx)
	if _, err := opt.MaxEarliness(-1, 1, 1); !errors.Is(err, ErrBadBudget) {
		t.Errorf("error = %v, want ErrBadBudget", err)
	}
	for _, weights := range [][2]float64{{0, 0}, {-1, 1}, {1, math.NaN()}, {math.Inf(1), 0}} {
		if _, err := opt.MaxEarliness(10, weights[0], weights[1]); !errors.Is(err, ErrBadObjectives) {
			t.Errorf("MaxEarliness(%v) error = %v, want ErrBadObjectives", weights, err)
		}
	}
}

// TestQuickEarlinessOptimumMatchesExhaustive cross-checks the telescoped
// encoding against enumeration of the weighted utility+earliness score on
// staged kill-chain systems (which have genuinely multi-step attacks), and
// the minimality post-pass against the unpruned solve.
func TestQuickEarlinessOptimumMatchesExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	property := func(seed int64) bool {
		sys, err := synth.Generate(synth.Config{
			Seed:      seed,
			Monitors:  4 + r.Intn(5),
			Attacks:   2 + r.Intn(4),
			Assets:    3,
			DataTypes: 12,
			Staged:    true,
		})
		if err != nil {
			return false
		}
		idx, err := model.NewIndex(sys)
		if err != nil {
			return false
		}
		budget := sys.TotalMonitorCost() * (0.2 + 0.8*r.Float64())
		wu, we := r.Float64(), 0.2+r.Float64()

		res, err := NewOptimizer(idx).MaxEarliness(budget, wu, we)
		if err != nil {
			t.Logf("MaxEarliness: %v", err)
			return false
		}

		score := func(d *model.Deployment) float64 {
			return wu*metrics.Utility(idx, d) + we*metrics.Earliness(idx, d)
		}
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
		if math.Abs(res.Score-best) > 1e-6 {
			t.Logf("seed %d: earliness ILP score %v != exhaustive %v", seed, res.Score, best)
			return false
		}
		raw, err := NewOptimizer(idx, WithoutPruning()).MaxEarliness(budget, wu, we)
		if err != nil {
			t.Logf("unpruned MaxEarliness: %v", err)
			return false
		}
		if !prunedMinimal(t, res.Deployment, raw.Score, score) {
			t.Logf("seed %d: earliness pruning", seed)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

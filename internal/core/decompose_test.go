package core

import (
	"context"
	"math"
	"testing"
	"time"

	"secmon/internal/lp"
	"secmon/internal/model"
	"secmon/internal/synth"
)

func decompBlockIndex(t *testing.T, seed int64, monitors, attacks, segments int, cross float64) *model.Index {
	t.Helper()
	sys, err := synth.Generate(synth.Config{
		Seed: seed, Monitors: monitors, Attacks: attacks,
		Segments: segments, CrossFraction: cross,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	idx, err := model.NewIndex(sys)
	if err != nil {
		t.Fatalf("index: %v", err)
	}
	return idx
}

// TestDecompositionEquivalence solves the same instances with the
// decomposition coordinator forced on and forced off, across both problem
// modes and worker counts, and requires identical proven objectives.
func TestDecompositionEquivalence(t *testing.T) {
	idx := decompBlockIndex(t, 71, 100, 50, 4, 0.06)
	full := 0.0
	for _, id := range idx.MonitorIDs() {
		m, _ := idx.Monitor(id)
		full += m.TotalCost()
	}
	for _, w := range []int{1, 4} {
		for _, frac := range []float64{0.15, 0.4} {
			budget := frac * full
			mono, err := NewOptimizer(idx, WithoutDecomposition(), WithWorkers(w)).MaxUtility(budget)
			if err != nil {
				t.Fatalf("workers %d frac %v: monolithic: %v", w, frac, err)
			}
			dec, err := NewOptimizer(idx, WithDecomposition(), WithWorkers(w)).MaxUtility(budget)
			if err != nil {
				t.Fatalf("workers %d frac %v: decomposed: %v", w, frac, err)
			}
			if !mono.Proven || !dec.Proven {
				t.Fatalf("workers %d frac %v: proven mono=%v dec=%v", w, frac, mono.Proven, dec.Proven)
			}
			if mono.Status != dec.Status {
				t.Errorf("workers %d frac %v: status mono=%q dec=%q", w, frac, mono.Status, dec.Status)
			}
			if math.Abs(mono.Utility-dec.Utility) > 1e-6 {
				t.Errorf("workers %d frac %v: utility mono=%v dec=%v", w, frac, mono.Utility, dec.Utility)
			}
			if dec.Cost > budget+1e-9 {
				t.Errorf("workers %d frac %v: decomposed cost %v over budget %v", w, frac, dec.Cost, budget)
			}
			if dec.Stats.Decomposition == nil {
				t.Errorf("workers %d frac %v: decomposed solve reported no decomposition stats", w, frac)
			} else if dec.Stats.Decomposition.Segments < 2 {
				t.Errorf("workers %d frac %v: %d segments", w, frac, dec.Stats.Decomposition.Segments)
			}
			if mono.Stats.Decomposition != nil {
				t.Errorf("workers %d frac %v: monolithic solve carries decomposition stats", w, frac)
			}
		}
	}

	// MinCost equivalence on a component-disjoint instance. The monolithic
	// solver does not always prove set-cover optima within its node budget,
	// so equality is required only against proven monolithic runs; the
	// decomposed optimum must never be beaten either way.
	cidx := decompBlockIndex(t, 72, 80, 40, 4, 0)
	for _, w := range []int{1, 4} {
		for _, target := range []float64{0.4, 0.8} {
			targets := CoverageTargets{Global: target}
			mono, err := NewOptimizer(cidx, WithoutDecomposition(), WithWorkers(w), WithClampToAchievable()).MinCost(targets)
			if err != nil {
				t.Fatalf("workers %d target %v: monolithic: %v", w, target, err)
			}
			dec, err := NewOptimizer(cidx, WithDecomposition(), WithWorkers(w), WithClampToAchievable()).MinCost(targets)
			if err != nil {
				t.Fatalf("workers %d target %v: decomposed: %v", w, target, err)
			}
			if !dec.Proven {
				t.Fatalf("workers %d target %v: decomposed not proven", w, target)
			}
			if mono.Proven && math.Abs(mono.Cost-dec.Cost) > 1e-6 {
				t.Errorf("workers %d target %v: cost mono=%v dec=%v", w, target, mono.Cost, dec.Cost)
			}
			if dec.Cost > mono.Cost+1e-6 {
				t.Errorf("workers %d target %v: decomposed cost %v above monolithic incumbent %v",
					w, target, dec.Cost, mono.Cost)
			}
		}
	}
}

// TestDecompositionAutoThreshold: below the threshold the default optimizer
// must keep the monolithic path (goldens depend on it), and the forced
// option must decompose the same small instance.
func TestDecompositionAutoThreshold(t *testing.T) {
	idx := decompBlockIndex(t, 73, 60, 30, 3, 0.05)
	res, err := NewOptimizer(idx).MaxUtility(40)
	if err != nil {
		t.Fatalf("default MaxUtility: %v", err)
	}
	if res.Stats.Decomposition != nil {
		t.Fatalf("small default solve used decomposition")
	}
	forced, err := NewOptimizer(idx, WithDecomposition()).MaxUtility(40)
	if err != nil {
		t.Fatalf("forced MaxUtility: %v", err)
	}
	if forced.Stats.Decomposition == nil {
		t.Fatalf("forced solve did not decompose")
	}
	if math.Abs(forced.Utility-res.Utility) > 1e-6 {
		t.Fatalf("forced utility %v, monolithic %v", forced.Utility, res.Utility)
	}
}

// TestDecompositionGating: incompatible formulations silently keep the
// monolithic path even when decomposition is forced on.
func TestDecompositionGating(t *testing.T) {
	idx := decompBlockIndex(t, 74, 40, 20, 3, 0.05)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"expanded", []Option{WithDecomposition(), WithExpandedFormulation()}},
		{"corroboration", []Option{WithDecomposition(), WithCorroboration(2)}},
		{"certify", []Option{WithDecomposition(), WithCertificate()}},
		{"dense", []Option{WithDecomposition(), WithDenseKernel()}},
	} {
		res, err := NewOptimizer(idx, tc.opts...).MaxUtility(30)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Stats.Decomposition != nil {
			t.Errorf("%s: decomposition ran despite incompatible formulation", tc.name)
		}
	}
}

// TestDecompositionAnytimeScale is the scale acceptance test: a 5,000-monitor,
// 1,000-attack instance under a 100ms deadline must still return a feasible
// in-budget deployment with a valid bound — the anytime contract at the scale
// the decomposition layer targets.
func TestDecompositionAnytimeScale(t *testing.T) {
	idx := decompBlockIndex(t, 75, 5000, 1000, 12, 0.04)
	full := 0.0
	for _, id := range idx.MonitorIDs() {
		m, _ := idx.Monitor(id)
		full += m.TotalCost()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	res, err := NewOptimizer(idx, WithContext(ctx)).MaxUtility(0.2 * full)
	if err != nil {
		t.Fatalf("MaxUtility: %v", err)
	}
	if res.Stats.Decomposition == nil {
		t.Fatalf("5000-monitor solve did not auto-decompose")
	}
	if res.Status != "feasible" && res.Status != "optimal" {
		t.Fatalf("status %q, want feasible or optimal", res.Status)
	}
	if len(res.Monitors) == 0 {
		t.Fatalf("anytime return carried no deployment")
	}
	if res.Cost > 0.2*full+1e-6 {
		t.Fatalf("cost %v exceeds budget %v", res.Cost, 0.2*full)
	}
	if !res.BoundKnown {
		t.Fatalf("anytime return must carry a bound")
	}
	if res.BestBound+1e-9 < res.Utility {
		t.Fatalf("bound %v below achieved utility %v", res.BestBound, res.Utility)
	}
}

// TestDecompositionKernelPin checks that a WithKernel pin reaches every ILP
// solve of a decomposed solve. Auto dispatch runs the small primal-start
// MaxUtility segments on eta and the dual-start MinCost components on LU,
// so each pin must move one mode off its auto kernel: an eta pin appends
// eta vectors in both modes, an LU pin none. Both pins must prove the same
// objective.
func TestDecompositionKernelPin(t *testing.T) {
	idx := decompBlockIndex(t, 71, 100, 50, 4, 0.06)
	budget := 0.3 * idx.System().TotalMonitorCost()
	for _, mode := range []struct {
		name  string
		idx   *model.Index
		solve func(o *Optimizer) (*Result, error)
		value func(r *Result) float64
	}{
		{"maxutil", idx, func(o *Optimizer) (*Result, error) { return o.MaxUtility(budget) },
			func(r *Result) float64 { return r.Utility }},
		{"mincost", decompBlockIndex(t, 72, 80, 40, 4, 0), func(o *Optimizer) (*Result, error) {
			return o.MinCost(CoverageTargets{Global: 0.8})
		}, func(r *Result) float64 { return r.Cost }},
	} {
		var values [2]float64
		for i, k := range []lp.Kernel{lp.KernelEta, lp.KernelLU} {
			res, err := mode.solve(NewOptimizer(mode.idx, WithDecomposition(), WithWorkers(1),
				WithClampToAchievable(), WithKernel(k)))
			if err != nil {
				t.Fatalf("%s kernel %v: %v", mode.name, k, err)
			}
			if res.Stats.Decomposition == nil || !res.Proven {
				t.Fatalf("%s kernel %v: decomposed %v, proven %v", mode.name, k,
					res.Stats.Decomposition != nil, res.Proven)
			}
			if eta := k == lp.KernelEta; eta != (res.Stats.Etas > 0) {
				t.Errorf("%s kernel %v: %d eta vectors", mode.name, k, res.Stats.Etas)
			}
			values[i] = mode.value(res)
		}
		if values[0] != values[1] {
			t.Errorf("%s: eta pin %v, LU pin %v", mode.name, values[0], values[1])
		}
	}
}

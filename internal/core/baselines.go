package core

import (
	"fmt"
	"math"
	"math/rand"

	"secmon/internal/metrics"
	"secmon/internal/model"
)

// Greedy computes a deployment under the budget with the classic cost-benefit
// heuristic: repeatedly add the affordable monitor with the highest marginal
// utility per unit cost (marginal utility breaking ties, then identifier
// order) until no affordable monitor improves utility. It is the baseline the
// exact optimization is compared against; its utility is always <= the ILP
// optimum for the same budget.
func Greedy(idx *model.Index, budget float64) (*Result, error) {
	if budget < 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
		return nil, fmt.Errorf("%w: %v", ErrBadBudget, budget)
	}
	deployment := greedyFrom(idx, budget, nil)
	return &Result{
		Deployment: deployment,
		Monitors:   deployment.IDs(),
		Utility:    metrics.Utility(idx, deployment),
		Cost:       metrics.Cost(idx, deployment),
		Budget:     budget,
	}, nil
}

// greedyFrom runs the greedy cost-benefit selection starting from the fixed
// deployment (may be nil). Fixed monitors are kept and their cost does not
// count against the budget, matching the incremental exact formulation.
func greedyFrom(idx *model.Index, budget float64, fixed *model.Deployment) *model.Deployment {
	d := model.NewDeployment()
	if fixed != nil {
		d = fixed.Clone()
	}
	for _, m := range greedyPicks(idx, budget, fixed) {
		d.Add(idx.MonitorAt(int(m)))
	}
	return d
}

// greedyPicks returns the monitor ordinals greedyFrom adds, in pick order.
// A candidate that is unaffordable or adds no utility stays so for the rest
// of the run (the remaining budget only shrinks, coverage only grows), so it
// leaves the candidate list for good; the others are scanned in ordinal,
// that is identifier, order every round.
func greedyPicks(idx *model.Index, budget float64, fixed *model.Deployment) []int32 {
	covered := make([]bool, idx.NumDataTypes())
	chosen := make([]bool, idx.NumMonitors())
	if fixed != nil {
		for _, m := range fixed.Ordinals(idx) {
			chosen[m] = true
			for _, d := range idx.MonitorData(int(m)) {
				covered[d] = true
			}
		}
	}
	// marginal returns the utility gained by adding monitor ordinal m given
	// the currently covered data types.
	marginal := func(m int) float64 {
		gain := 0.0
		for _, d := range idx.MonitorData(m) {
			if !covered[d] {
				gain += idx.Contribution(int(d))
			}
		}
		return gain
	}

	candidates := make([]int32, 0, len(chosen))
	for m, in := range chosen {
		if !in {
			candidates = append(candidates, int32(m))
		}
	}
	var picks []int32
	remaining := budget
	for {
		best := -1
		bestRatio, bestGain := 0.0, 0.0
		kept := candidates[:0]
		for _, m := range candidates {
			cost := idx.MonitorCost(int(m))
			if cost > remaining {
				continue
			}
			gain := marginal(int(m))
			if gain <= 0 {
				continue
			}
			kept = append(kept, m)
			ratio := gain / math.Max(cost, 1e-12)
			if best < 0 || ratio > bestRatio+1e-15 ||
				(math.Abs(ratio-bestRatio) <= 1e-15 && gain > bestGain) {
				best, bestRatio, bestGain = int(m), ratio, gain
			}
		}
		candidates = kept
		if best < 0 {
			return picks
		}
		// The pick covers everything it produces, so its gain drops to zero
		// and the next round drops it from the candidates.
		picks = append(picks, int32(best))
		remaining -= idx.MonitorCost(best)
		for _, d := range idx.MonitorData(best) {
			covered[d] = true
		}
	}
}

// RandomDeployment adds monitors in a seeded random order while they fit the
// budget; it is the weak baseline of the comparison experiments.
func RandomDeployment(idx *model.Index, budget float64, seed int64) (*Result, error) {
	if budget < 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
		return nil, fmt.Errorf("%w: %v", ErrBadBudget, budget)
	}
	r := rand.New(rand.NewSource(seed))
	ids := idx.MonitorIDs()
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

	deployment := model.NewDeployment()
	remaining := budget
	for _, id := range ids {
		m, _ := idx.Monitor(id)
		if m.TotalCost() <= remaining {
			deployment.Add(id)
			remaining -= m.TotalCost()
		}
	}
	return &Result{
		Deployment: deployment,
		Monitors:   deployment.IDs(),
		Utility:    metrics.Utility(idx, deployment),
		Cost:       metrics.Cost(idx, deployment),
		Budget:     budget,
	}, nil
}

// exhaustiveLimit bounds the subset enumeration of Exhaustive (2^16 subsets).
const exhaustiveLimit = 16

// Exhaustive enumerates every subset of monitors within the budget and
// returns the best; it exists to cross-check the exact solver on small
// systems and fails with ErrTooLarge beyond 16 monitors.
func Exhaustive(idx *model.Index, budget float64) (*Result, error) {
	if budget < 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
		return nil, fmt.Errorf("%w: %v", ErrBadBudget, budget)
	}
	ids := idx.MonitorIDs()
	n := len(ids)
	if n > exhaustiveLimit {
		return nil, fmt.Errorf("%w: %d monitors (limit %d)", ErrTooLarge, n, exhaustiveLimit)
	}
	costs := make([]float64, n)
	for i, id := range ids {
		m, _ := idx.Monitor(id)
		costs[i] = m.TotalCost()
	}

	var (
		bestUtility = -1.0
		bestCost    = 0.0
		bestMask    = 0
	)
	for mask := 0; mask < 1<<n; mask++ {
		cost := 0.0
		for i := 0; i < n; i++ {
			if mask>>i&1 == 1 {
				cost += costs[i]
			}
		}
		if cost > budget {
			continue
		}
		d := model.NewDeployment()
		for i := 0; i < n; i++ {
			if mask>>i&1 == 1 {
				d.Add(ids[i])
			}
		}
		u := metrics.Utility(idx, d)
		if u > bestUtility+1e-12 || (math.Abs(u-bestUtility) <= 1e-12 && cost < bestCost) {
			bestUtility, bestCost, bestMask = u, cost, mask
		}
	}

	d := model.NewDeployment()
	for i := 0; i < n; i++ {
		if bestMask>>i&1 == 1 {
			d.Add(ids[i])
		}
	}
	return &Result{
		Deployment: d,
		Monitors:   d.IDs(),
		Utility:    metrics.Utility(idx, d),
		Cost:       bestCost,
		Budget:     budget,
		Proven:     true,
	}, nil
}

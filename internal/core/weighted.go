package core

import (
	"errors"
	"fmt"
	"math"

	"secmon/internal/metrics"
	"secmon/internal/model"
)

// ErrBadObjectives is returned for negative, non-finite or all-zero
// objective weights.
var ErrBadObjectives = errors.New("core: invalid objective weights")

// Objectives weights the linear goals of the multi-objective deployment
// optimization. All three metrics are linear in the decision variables, so a
// weighted combination remains an exact ILP:
//
//   - Utility: detection utility (evidence coverage), as in MaxUtility.
//   - Richness: data richness (fraction of security-relevant event fields
//     recorded), valuable for forensics beyond mere detection.
//   - Redundancy: mean evidence redundancy (independent monitors per
//     evidence item), valuable against monitor compromise. Unlike the other
//     two it is not capped at 1 per evidence item — each extra producer
//     keeps adding value.
type Objectives struct {
	Utility    float64
	Richness   float64
	Redundancy float64
}

func (w Objectives) validate() error {
	for _, v := range []float64{w.Utility, w.Richness, w.Redundancy} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %+v", ErrBadObjectives, w)
		}
	}
	if w.Utility == 0 && w.Richness == 0 && w.Redundancy == 0 {
		return fmt.Errorf("%w: all weights zero", ErrBadObjectives)
	}
	return nil
}

// WeightedResult extends Result with the component metrics of a
// multi-objective solve.
type WeightedResult struct {
	Result
	// Score is the achieved value of the weighted objective the ILP
	// maximized. Under WithCorroboration(k >= 2) its utility and richness
	// terms count only data types with at least k deployed producers.
	Score float64 `json:"score"`
	// RichnessValue and RedundancyValue are the component metrics of the
	// selected deployment (Utility lives in the embedded Result), plain at
	// every corroboration level.
	RichnessValue   float64 `json:"richness"`
	RedundancyValue float64 `json:"redundancy"`
}

// MaxWeighted computes the deployment maximizing the weighted combination of
// utility, richness and redundancy under the budget. With Objectives{Utility: 1}
// it reduces to MaxUtility (without the minimality pruning, which is only
// valid for pure utility objectives).
func (o *Optimizer) MaxWeighted(budget float64, weights Objectives) (*WeightedResult, error) {
	if budget < 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
		return nil, fmt.Errorf("%w: %v", ErrBadBudget, budget)
	}
	if err := weights.validate(); err != nil {
		return nil, err
	}
	spec := formulationSpec{kind: kindWeighted, budget: budget, fixed: model.NewDeployment(), weights: weights}
	res, _, err := o.solve(spec, nil)
	if err != nil {
		return nil, err
	}
	return &WeightedResult{
		Result:          *res,
		Score:           o.objective(spec)(res.Deployment),
		RichnessValue:   metrics.Richness(o.idx, res.Deployment),
		RedundancyValue: metrics.MeanRedundancy(o.idx, res.Deployment),
	}, nil
}

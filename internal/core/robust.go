package core

import (
	"errors"
	"fmt"
	"math"

	"secmon/internal/ilp"
	"secmon/internal/lp"
	"secmon/internal/metrics"
	"secmon/internal/model"
)

// ErrBadFailureProb is returned for failure probabilities outside [0, 1).
var ErrBadFailureProb = errors.New("core: invalid failure probability")

// RobustResult extends Result with the expected utility under monitor
// failures.
type RobustResult struct {
	Result
	// FailureProb is the per-monitor independent failure probability the
	// deployment was optimized for.
	FailureProb float64 `json:"failureProb"`
	// ExpectedUtility is metrics.ExpectedUtility of the deployment at
	// FailureProb: the objective that was maximized.
	ExpectedUtility float64 `json:"expectedUtility"`
}

// MaxExpectedUtility computes the deployment maximizing the expected
// detection utility when every deployed monitor independently fails (or is
// silently compromised) with probability failProb, subject to the budget.
//
// The expectation 1 - failProb^r of covering evidence with r deployed
// producers is concave in r, so it is encoded exactly with one coverage
// level variable per producer rank whose objective weights
// failProb^(j-1) * (1-failProb) decrease with the rank j: the LP fills lower
// levels first, making the encoding exact without extra integrality.
// With failProb = 0 the problem reduces to MaxUtility.
func (o *Optimizer) MaxExpectedUtility(budget, failProb float64) (*RobustResult, error) {
	if budget < 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
		return nil, fmt.Errorf("%w: %v", ErrBadBudget, budget)
	}
	if failProb < 0 || failProb >= 1 || math.IsNaN(failProb) {
		return nil, fmt.Errorf("%w: %v", ErrBadFailureProb, failProb)
	}
	spec := formulationSpec{kind: kindExpected, budget: budget, fixed: model.NewDeployment(), failProb: failProb}
	if failProb == 0 {
		spec.kind = kindUtility // no failures: plain MaxUtility
	}
	res, _, err := o.solve(spec, nil)
	if err != nil {
		return nil, err
	}
	return &RobustResult{
		Result:          *res,
		FailureProb:     failProb,
		ExpectedUtility: metrics.ExpectedUtility(o.idx, res.Deployment, failProb),
	}, nil
}

// addLevelCoverage encodes the concave expected-coverage objective with
// per-rank coverage level variables.
func (o *Optimizer) addLevelCoverage(prob *ilp.Problem, f *formulation, spec formulationSpec) error {
	for d := 0; d < o.idx.NumDataTypes(); d++ {
		producers := o.idx.DataProducers(d)
		if !o.idx.Relevant(d) || len(producers) == 0 {
			continue
		}
		// Level variables: z_j = 1 when at least j producers are deployed;
		// the marginal value of the j-th producer is share * q^(j-1)*(1-q).
		terms := make([]lp.Term, 0, 2*len(producers))
		marginal := o.idx.Contribution(d) * (1 - spec.failProb)
		for j := 1; j <= len(producers); j++ {
			z, err := prob.AddVariable(fmt.Sprintf("z:%s:%d", o.idx.DataTypeAt(d), j), 0, 1, marginal)
			if err != nil {
				return fmt.Errorf("core: add level variable: %w", err)
			}
			terms = append(terms, lp.Term{Var: z, Coeff: 1})
			marginal *= spec.failProb
		}
		// sum_j z_j <= sum of deployed producers.
		terms = f.appendProducers(terms, producers, -1)
		if _, err := prob.AddConstraint("levels:"+string(o.idx.DataTypeAt(d)), terms, lp.LE, 0); err != nil {
			return fmt.Errorf("core: level row: %w", err)
		}
	}
	return nil
}

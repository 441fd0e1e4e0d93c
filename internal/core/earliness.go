package core

import (
	"fmt"
	"math"

	"secmon/internal/ilp"
	"secmon/internal/lp"
	"secmon/internal/metrics"
	"secmon/internal/model"
)

// EarlinessResult extends Result with the earliness achieved by an
// earliness-aware solve.
type EarlinessResult struct {
	Result
	// EarlinessValue is metrics.Earliness of the selected deployment.
	EarlinessValue float64 `json:"earliness"`
	// Score is the achieved weighted objective
	// utilityWeight*Utility + earlinessWeight*Earliness.
	Score float64 `json:"score"`
}

// MaxEarliness computes the deployment maximizing
//
//	utilityWeight * Utility + earlinessWeight * Earliness
//
// under the budget. Earliness rewards observing attacks in their earliest
// steps: an attack whose first observable step is step s of S contributes
// 1 - (s-1)/S (1 for the first step, decreasing linearly, 0 if unobserved).
//
// Although earliness is a maximum over steps, it is encoded exactly: with
// per-step observability indicators u_s and the telescoping identity
//
//	max_s e_s*u_s = sum_s (e_s - e_{s+1}) * OR(u_1..u_s)
//
// for decreasing step values e_s, the OR terms relax to linear rows whose
// objective coefficients are non-negative, so the LP drives them to their
// exact values once the monitor variables are integral.
func (o *Optimizer) MaxEarliness(budget, utilityWeight, earlinessWeight float64) (*EarlinessResult, error) {
	if budget < 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
		return nil, fmt.Errorf("%w: %v", ErrBadBudget, budget)
	}
	if utilityWeight < 0 || earlinessWeight < 0 ||
		math.IsNaN(utilityWeight) || math.IsNaN(earlinessWeight) ||
		math.IsInf(utilityWeight, 0) || math.IsInf(earlinessWeight, 0) ||
		(utilityWeight == 0 && earlinessWeight == 0) {
		return nil, fmt.Errorf("%w: utility %v, earliness %v", ErrBadObjectives, utilityWeight, earlinessWeight)
	}
	spec := formulationSpec{kind: kindEarliness, budget: budget, fixed: model.NewDeployment(),
		weights: Objectives{Utility: utilityWeight}, earliness: earlinessWeight}
	res, _, err := o.solve(spec, nil)
	if err != nil {
		return nil, err
	}
	return &EarlinessResult{
		Result:         *res,
		EarlinessValue: metrics.Earliness(o.idx, res.Deployment),
		Score:          o.objective(spec)(res.Deployment),
	}, nil
}

// addEarlinessRows adds the earliness terms of the objective: per attack
// and step, u_s <= sum of the step's covered evidence (the shared coverage
// variables zVars, by data type ordinal), and prefix OR variables
// v_s <= u_1 + ... + u_s with the telescoped objective coefficients.
func (o *Optimizer) addEarlinessRows(prob *ilp.Problem, spec formulationSpec, zVars []lp.VarID) error {
	totalWeight := o.idx.System().TotalAttackWeight()
	if spec.earliness == 0 || totalWeight == 0 {
		return nil
	}
	for _, aid := range o.idx.AttackIDs() {
		attack, _ := o.idx.Attack(aid)
		nSteps := len(attack.Steps)
		if nSteps == 0 {
			continue
		}
		weight := model.AttackWeight(*attack) / totalWeight

		uVars := make([]lp.Term, 0, nSteps)
		for si, step := range attack.Steps {
			var evTerms []lp.Term
			for _, e := range step.Evidence {
				if d, _ := o.idx.DataTypeOrdinal(e); zVars[d] >= 0 {
					evTerms = append(evTerms, lp.Term{Var: zVars[d], Coeff: -1})
				}
			}
			u, err := prob.AddVariable(fmt.Sprintf("u:%s:%d", aid, si), 0, 1, 0)
			if err != nil {
				return fmt.Errorf("core: add step variable: %w", err)
			}
			terms := append([]lp.Term{{Var: u, Coeff: 1}}, evTerms...)
			if _, err := prob.AddConstraint(fmt.Sprintf("step:%s:%d", aid, si), terms, lp.LE, 0); err != nil {
				return fmt.Errorf("core: step row: %w", err)
			}
			uVars = append(uVars, lp.Term{Var: u, Coeff: -1})

			// Prefix OR variable for steps 1..si with telescoped objective
			// coefficient e_si - e_{si+1} (e_s = 1 - s/S, e_{S+1} = 0).
			eHere := 1 - float64(si)/float64(nSteps)
			eNext := 0.0
			if si+1 < nSteps {
				eNext = 1 - float64(si+1)/float64(nSteps)
			}
			coeff := weight * spec.earliness * (eHere - eNext)
			v, err := prob.AddVariable(fmt.Sprintf("v:%s:%d", aid, si), 0, 1, coeff)
			if err != nil {
				return fmt.Errorf("core: add prefix variable: %w", err)
			}
			prefix := append([]lp.Term{{Var: v, Coeff: 1}}, uVars...)
			if _, err := prob.AddConstraint(fmt.Sprintf("prefix:%s:%d", aid, si), prefix, lp.LE, 0); err != nil {
				return fmt.Errorf("core: prefix row: %w", err)
			}
		}
	}
	return nil
}

package core

import (
	"fmt"
	"math"
	"strings"

	"secmon/internal/certify"
	"secmon/internal/ilp"
	"secmon/internal/lp"
	"secmon/internal/metrics"
	"secmon/internal/model"
)

// objectiveKind names the objective an exact solve optimizes. Every kind
// shares the monitor variables and the budget row (all but MinCost); they
// differ in the coverage variables and objective coefficients.
type objectiveKind uint8

const (
	kindUtility   objectiveKind = iota // MaxUtility: corroborated detection utility
	kindCost                           // MinCost: cost of meeting coverage targets
	kindWeighted                       // MaxWeighted: utility, richness and redundancy
	kindExpected                       // MaxExpectedUtility: utility under monitor failures
	kindEarliness                      // MaxEarliness: utility and earliness
)

// formulationSpec selects which ILP to build.
type formulationSpec struct {
	kind objectiveKind
	// budget is the new-spend budget (every kind but kindCost).
	budget float64
	// targets are the MinCost coverage targets.
	targets *CoverageTargets
	// fixed monitors are forced into the deployment; their cost is excluded
	// from the budget row and the MinCost objective.
	fixed *model.Deployment
	// weights weight a kindWeighted objective. A kindEarliness objective
	// reads weights.Utility and its earliness weight.
	weights   Objectives
	earliness float64
	// failProb is the kindExpected per-monitor failure probability.
	failProb float64
}

// paperObjective reports whether the spec is one of the paper's two
// formulations, the only ones the expanded encoding and the decomposition
// coordinator support.
func (s formulationSpec) paperObjective() bool { return s.kind == kindUtility || s.kind == kindCost }

// name labels the spec's solve in errors.
func (s formulationSpec) name() string {
	return [...]string{"max-utility", "min-cost", "weighted", "robust", "earliness"}[s.kind]
}

// formulation is a built ILP together with the variable mapping needed to
// decode solutions.
type formulation struct {
	prob *ilp.Problem
	// xVars holds the selection variable of each monitor ordinal.
	xVars []lp.VarID
	// terms is the scratch row the link rows are built in.
	terms []lp.Term
	// budgetRow is the ConID of the budget constraint (every kind but
	// kindCost); -1 when absent.
	budgetRow lp.ConID
}

// buildFormulation constructs the exact ILP for the spec: the monitor
// variables and the budget row, then the kind's coverage variables. Utility
// and cost use the compact shared-coverage encoding unless the expanded
// ablation encoding was selected.
func (o *Optimizer) buildFormulation(spec formulationSpec) (*formulation, error) {
	sense := lp.Maximize
	if spec.kind == kindCost {
		sense = lp.Minimize
	}
	prob := ilp.NewProblem(sense)

	idx := o.idx
	f := &formulation{prob: prob, xVars: make([]lp.VarID, idx.NumMonitors()), budgetRow: -1}

	relevant := 0 // relevant data types, the redundancy share's denominator
	for d := 0; spec.kind == kindWeighted && d < idx.NumDataTypes(); d++ {
		if idx.Relevant(d) {
			relevant++
		}
	}

	// Monitor selection variables.
	var budgetTerms []lp.Term
	xNames := prefixed("x:", len(f.xVars), func(m int) string { return string(idx.MonitorAt(m)) })
	for m := range f.xVars {
		id := idx.MonitorAt(m)
		v, err := prob.AddBinaryVariable(xNames[m], spec.monitorObjective(idx, m, relevant))
		if err != nil {
			return nil, fmt.Errorf("core: add monitor variable: %w", err)
		}
		f.xVars[m] = v
		prob.SetBranchPriority(v, 1)
		if spec.fixed.Contains(id) {
			if err := prob.SetVariableBounds(v, 1, 1); err != nil {
				return nil, fmt.Errorf("core: fix monitor %q: %w", id, err)
			}
			continue
		}
		if spec.kind != kindCost {
			budgetTerms = append(budgetTerms, lp.Term{Var: v, Coeff: idx.MonitorCost(m)})
		}
	}
	if spec.kind != kindCost {
		row, err := prob.AddConstraint("budget", budgetTerms, lp.LE, spec.budget)
		if err != nil {
			return nil, fmt.Errorf("core: budget row: %w", err)
		}
		f.budgetRow = row
	}

	var err error
	switch {
	case spec.kind == kindExpected:
		err = o.addLevelCoverage(prob, f, spec)
	case o.cfg.expanded && spec.paperObjective():
		err = o.addExpandedCoverage(prob, f, spec)
	default:
		err = o.addCompactCoverage(prob, f, spec)
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// prefixed returns prefix+id(i) for every i below n. The names are cut
// from one string, so they cost one allocation instead of n.
func prefixed(prefix string, n int, id func(int) string) []string {
	size := n * len(prefix)
	for i := 0; i < n; i++ {
		size += len(id(i))
	}
	var b strings.Builder
	b.Grow(size)
	for i := 0; i < n; i++ {
		b.WriteString(prefix)
		b.WriteString(id(i))
	}
	all := b.String()
	out := make([]string, n)
	for i := range out {
		end := len(prefix) + len(id(i))
		out[i], all = all[:end], all[end:]
	}
	return out
}

// monitorObjective is the objective coefficient of monitor ordinal m's
// selection variable: its cost under MinCost (zero when fixed), its
// redundancy share under a weighted objective, and zero otherwise, where the
// coverage variables carry the objective. The redundancy share is the number
// of relevant evidence data types m produces over the relevant count,
// normalized the same way as metrics.MeanRedundancy.
func (s formulationSpec) monitorObjective(idx *model.Index, m, relevant int) float64 {
	switch {
	case s.kind == kindCost && !s.fixed.Contains(idx.MonitorAt(m)):
		return idx.MonitorCost(m)
	case s.kind == kindWeighted && s.weights.Redundancy > 0 && relevant > 0:
		produced := 0
		for _, d := range idx.MonitorData(m) {
			if idx.Relevant(int(d)) {
				produced++
			}
		}
		return s.weights.Redundancy * float64(produced) / float64(relevant)
	}
	return 0
}

// addLinkRows ties a coverage variable to the monitors producing its data
// type. At corroboration level k = 1 a single aggregated row z <= sum(x)
// suffices and z stays implied-integral. At k >= 2 the variable becomes
// integer and, in addition to the aggregated row k*z <= sum(x), one
// disaggregated row (k-1)*z <= sum(x) - x_m per producer m tightens the LP
// relaxation (z = 1 then provably needs k distinct producers even
// fractionally).
func (o *Optimizer) addLinkRows(prob *ilp.Problem, f *formulation, d int, z lp.VarID, k int) error {
	producers := o.idx.DataProducers(d)
	if k > 1 {
		// Corroboration makes z no longer implied integral by the monitor
		// variables (z <= sum(x)/k can be fractional), so z must be branched
		// on too; monitor variables keep priority.
		prob.SetInteger(z)
	}
	// AddConstraint copies its terms, so every row is built in f.terms.
	f.terms = f.appendProducers(append(f.terms[:0], lp.Term{Var: z, Coeff: float64(k)}), producers, -1)
	if _, err := prob.AddConstraint("link:"+string(o.idx.DataTypeAt(d)), f.terms, lp.LE, 0); err != nil {
		return fmt.Errorf("core: link row: %w", err)
	}
	if k > 1 {
		for _, m := range producers {
			f.terms = f.appendProducers(append(f.terms[:0], lp.Term{Var: z, Coeff: float64(k - 1)}), producers, m)
			rowName := fmt.Sprintf("link:%s-minus-%s", o.idx.DataTypeAt(d), o.idx.MonitorAt(int(m)))
			if _, err := prob.AddConstraint(rowName, f.terms, lp.LE, 0); err != nil {
				return fmt.Errorf("core: disaggregated link row: %w", err)
			}
		}
	}
	return nil
}

// appendProducers appends a -1 term for the selection variable of every
// producer ordinal except skip.
func (f *formulation) appendProducers(terms []lp.Term, producers []int32, skip int32) []lp.Term {
	for _, m := range producers {
		if m != skip {
			terms = append(terms, lp.Term{Var: f.xVars[m], Coeff: -1})
		}
	}
	return terms
}

// addCompactCoverage adds one shared coverage variable z_d per producible
// evidence data type, linked to the monitors producing it, then the kind's
// remaining rows: per-attack coverage rows (MinCost) or earliness rows. The
// z variables carry the utility share (and, for a weighted objective, the
// richness share) of the objective.
func (o *Optimizer) addCompactCoverage(prob *ilp.Problem, f *formulation, spec formulationSpec) error {
	idx := o.idx
	var fields []int
	totalFields := 0
	if spec.kind == kindWeighted {
		fields = metrics.RelevantFields(idx)
		for _, nf := range fields {
			totalFields += nf
		}
	}
	k := o.corroborationLevel()
	if spec.kind == kindEarliness {
		k = 1 // earliness scores plain, single-producer utility
	}

	// zVars holds each data type ordinal's coverage variable, -1 for none.
	zVars := make([]lp.VarID, idx.NumDataTypes())
	zNames := prefixed("z:", len(zVars), func(d int) string { return string(idx.DataTypeAt(d)) })
	for d := range zVars {
		zVars[d] = -1
		if !idx.Relevant(d) || len(idx.DataProducers(d)) == 0 {
			continue // irrelevant, or nobody can cover it: identically zero
		}
		share := idx.Contribution(d)
		obj := 0.0
		switch spec.kind {
		case kindUtility:
			obj = share
		case kindWeighted:
			obj = spec.weights.Utility * share
			if totalFields > 0 {
				obj += spec.weights.Richness * (float64(fields[d]) / float64(totalFields))
			}
		case kindEarliness:
			obj = spec.weights.Utility * share
		}
		z, err := prob.AddVariable(zNames[d], 0, 1, obj)
		if err != nil {
			return fmt.Errorf("core: add coverage variable: %w", err)
		}
		zVars[d] = z
		if err := o.addLinkRows(prob, f, d, z, k); err != nil {
			return err
		}
	}

	if spec.kind == kindEarliness {
		return o.addEarlinessRows(prob, spec, zVars)
	}
	if spec.kind != kindCost {
		return nil
	}
	for _, aid := range idx.AttackIDs() {
		a, _ := idx.AttackOrdinal(aid)
		required, err := o.requiredEvidence(a, spec.targets)
		if err != nil {
			return err
		}
		if required <= 0 {
			continue
		}
		var terms []lp.Term
		for _, e := range idx.AttackData(a) {
			if z := zVars[e]; z >= 0 {
				terms = append(terms, lp.Term{Var: z, Coeff: 1})
			}
		}
		if _, err := prob.AddConstraint("cover:"+string(aid), terms, lp.GE, required); err != nil {
			return fmt.Errorf("core: coverage row: %w", err)
		}
	}
	return nil
}

// addExpandedCoverage adds one coverage variable per (attack, evidence)
// pair, the paper's direct encoding; kept for the formulation ablation.
func (o *Optimizer) addExpandedCoverage(prob *ilp.Problem, f *formulation, spec formulationSpec) error {
	idx := o.idx
	totalWeight := idx.System().TotalAttackWeight()
	for _, aid := range idx.AttackIDs() {
		a, _ := idx.AttackOrdinal(aid)
		ev := idx.AttackData(a)
		share := 0.0
		if totalWeight > 0 && len(ev) > 0 {
			share = model.AttackWeight(idx.System().Attacks[a]) / (totalWeight * float64(len(ev)))
		}

		var attackTerms []lp.Term
		for _, e := range ev {
			if len(idx.DataProducers(int(e))) == 0 {
				continue
			}
			obj := 0.0
			if spec.kind == kindUtility {
				obj = share
			}
			y, err := prob.AddVariable(fmt.Sprintf("y:%s:%s", aid, idx.DataTypeAt(int(e))), 0, 1, obj)
			if err != nil {
				return fmt.Errorf("core: add pair variable: %w", err)
			}
			if err := o.addLinkRows(prob, f, int(e), y, o.corroborationLevel()); err != nil {
				return err
			}
			attackTerms = append(attackTerms, lp.Term{Var: y, Coeff: 1})
		}

		if spec.kind == kindCost {
			required, err := o.requiredEvidence(a, spec.targets)
			if err != nil {
				return err
			}
			if required <= 0 {
				continue
			}
			if _, err := prob.AddConstraint("cover:"+string(aid), attackTerms, lp.GE, required); err != nil {
				return fmt.Errorf("core: coverage row: %w", err)
			}
		}
	}
	return nil
}

// requiredEvidence converts an attack's coverage target into a required
// number of covered evidence items, applying the achievability clamp or
// reporting infeasibility. The count of covered evidence items any integer
// deployment attains is integral, so a fractional requirement rounds up to
// the next integer: the feasible deployments are unchanged while the LP
// relaxation bound tightens, which prunes branch-and-bound nodes that a
// fractional right-hand side would leave open. A tiny slack absorbs
// floating-point rounding on both the product and the row itself.
func (o *Optimizer) requiredEvidence(a int, targets *CoverageTargets) (float64, error) {
	aid := o.idx.System().Attacks[a].ID
	ev := o.idx.AttackData(a)
	target := targets.Target(aid)
	required := target * float64(len(ev))
	k := o.corroborationLevel()
	achievableCount := 0
	for _, e := range ev {
		if len(o.idx.DataProducers(int(e))) >= k {
			achievableCount++
		}
	}
	achievable := float64(achievableCount)
	if required > achievable+1e-9 {
		if !o.cfg.clampTargets {
			return 0, fmt.Errorf("%w: attack %q needs %.3f of %d evidence items but only %d are observable",
				ErrInfeasible, aid, required, len(ev), int(achievable))
		}
		required = achievable
	}
	if required < 1e-9 {
		return 0, nil
	}
	return math.Ceil(required-1e-9) - 1e-9, nil
}

// decode extracts the selected deployment from an ILP solution.
func (f *formulation) decode(idx *model.Index, sol *ilp.Solution) *model.Deployment {
	d := model.NewDeployment()
	for m, v := range f.xVars {
		if sol.Value(v) > 0.5 {
			d.Add(idx.MonitorAt(m))
		}
	}
	return d
}

// emptyResult builds a Result for the trivial empty deployment. When
// certification was requested it carries the zero-variable certificate, so
// the "certified results are verifiable" invariant holds even for the
// monitor-less short-circuit that never runs the solver.
func (o *Optimizer) emptyResult() *Result {
	d := model.NewDeployment()
	res := &Result{
		Deployment: d,
		Monitors:   d.IDs(),
		Utility:    metrics.Utility(o.idx, d),
		Cost:       0,
		Proven:     true,
	}
	if o.cfg.certify {
		res.Certificate = trivialCertificate()
	}
	return res
}

// trivialCertificate proves the optimum of the empty ILP: no variables, no
// rows, objective 0, closed by a single root bound leaf whose empty dual
// vector bounds the objective by exactly 0.
func trivialCertificate() *certify.Certificate {
	return &certify.Certificate{
		Version: certify.Version,
		Sense:   "maximize",
		Status:  certify.StatusOptimal,
		FeasTol: 1e-6,
		Leaves:  []certify.Leaf{{Node: 0, Kind: certify.KindBound, Dual: 0}},
		Duals:   [][]float64{{}},
	}
}

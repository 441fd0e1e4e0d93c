package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"secmon/internal/lp"
	"secmon/internal/model"
)

// ErrBadSpec marks a Spec setting no solve can run (see Spec.Validate).
var ErrBadSpec = errors.New("core: invalid request spec")

// Spec is one optimization request in the paper's two forms: the
// maximum-utility deployment within a budget, or the cheapest one meeting a
// coverage target, either keeping monitors already deployed. The optimize
// command's flags, the /v1/optimize body (whose JSON names these are) and a
// tenant's solve spec all decode into it and share its one interpretation.
type Spec struct {
	// MinCost selects the cheapest deployment meeting Target instead of
	// the maximum-utility deployment within the budget.
	MinCost bool `json:"minCost,omitempty"`
	// Budget is the absolute MaxUtility spending cap.
	Budget *float64 `json:"budget,omitempty"`
	// BudgetFraction is the budget as a fraction of the system's total
	// monitor cost; it wins over Budget when both are set. A MaxUtility
	// spec needs one of the two.
	BudgetFraction *float64 `json:"budgetFraction,omitempty"`
	// Target is the MinCost global coverage target in [0, 1] (default 1).
	Target *float64 `json:"target,omitempty"`
	// Clamp clamps MinCost targets to the achievable coverage.
	Clamp bool `json:"clamp,omitempty"`
	// Corroboration requires every counted evidence item to be produced by
	// at least k deployed monitors; 0 and 1 both mean one.
	Corroboration int `json:"corroboration,omitempty"`
	// Existing lists already-deployed monitors to keep; their cost does not
	// count against the budget.
	Existing []model.MonitorID `json:"existing,omitempty"`
	// Workers is the branch-and-bound worker count; 0 and 1 both mean one
	// deterministic worker, whose answer does not depend on the search path.
	Workers int `json:"workers,omitempty"`
	// Kernel pins the LP simplex kernel: "" for auto dispatch, "lu" or its
	// alias "sparse" (sparse LU with Forrest-Tomlin updates), "eta" (the
	// eta-file kernel) or "dense" (the tableau oracle, which solves every
	// relaxation cold).
	Kernel string `json:"kernel,omitempty"`
	// Certify makes every exact solve emit an optimality certificate.
	Certify bool `json:"certify,omitempty"`
	// Decompose selects the graph-partitioned decomposition solver: "" or
	// "auto" (on from DecompositionThreshold monitors), "on" or "off".
	Decompose string `json:"decompose,omitempty"`
}

var (
	specKernels    = map[string]lp.Kernel{"": lp.KernelAuto, "lu": lp.KernelLU, "sparse": lp.KernelLU, "eta": lp.KernelEta, "dense": lp.KernelDense}
	specDecomposes = map[string]int{"": 0, "auto": 0, "on": 1, "off": -1}
)

// Validate reports the first setting no solve can run: an unknown kernel or
// decomposition mode, a negative worker count or corroboration level, a
// MaxUtility spec without a budget or with a negative or non-finite one, or
// a MinCost target outside [0, 1]. Its errors wrap ErrBadSpec, ErrBadBudget
// or ErrBadTarget. It needs no system: monitors in Existing are checked
// when the spec runs.
func (s Spec) Validate() error {
	if _, ok := specKernels[s.Kernel]; !ok {
		return fmt.Errorf("%w: unknown kernel %q (want lu, sparse, eta or dense)", ErrBadSpec, s.Kernel)
	}
	if _, ok := specDecomposes[s.Decompose]; !ok {
		return fmt.Errorf("%w: unknown decompose %q (want auto, on or off)", ErrBadSpec, s.Decompose)
	}
	if s.Corroboration < 0 {
		return fmt.Errorf("%w: negative corroboration %d", ErrBadSpec, s.Corroboration)
	}
	if s.Workers < 0 {
		return fmt.Errorf("%w: negative workers %d", ErrBadSpec, s.Workers)
	}
	if s.MinCost {
		if t := s.Target; t != nil && !(*t >= 0 && *t <= 1) {
			return fmt.Errorf("%w: %v", ErrBadTarget, *t)
		}
		return nil
	}
	if s.Budget == nil && s.BudgetFraction == nil {
		return fmt.Errorf("%w: provide budget or budgetFraction", ErrBadBudget)
	}
	for _, b := range []*float64{s.Budget, s.BudgetFraction} {
		if b != nil && (*b < 0 || math.IsNaN(*b) || math.IsInf(*b, 0)) {
			return fmt.Errorf("%w: %v", ErrBadBudget, *b)
		}
	}
	return nil
}

// Options returns the optimizer settings the spec asks for: its workers
// (one when zero), kernel, decomposition mode, clamping, corroboration and
// certification. Pass them to NewOptimizer before any option that should
// override them; the spec must have passed Validate.
func (s Spec) Options() []Option {
	return []Option{optionFunc(func(o *options) {
		o.workers = max(s.Workers, 1)
		o.kernel = specKernels[s.Kernel]
		o.decompose = specDecomposes[s.Decompose]
		o.clampTargets = o.clampTargets || s.Clamp
		o.corroboration = s.Corroboration
		o.certify = o.certify || s.Certify
	})}
}

// BudgetOn resolves the MaxUtility budget on idx: BudgetFraction of the
// total monitor cost when set, else Budget, else -1, which every budgeted
// entry point refuses.
func (s Spec) BudgetOn(idx *model.Index) float64 {
	switch {
	case s.BudgetFraction != nil:
		return idx.System().TotalMonitorCost() * *s.BudgetFraction
	case s.Budget != nil:
		return *s.Budget
	}
	return -1
}

// Targets returns the MinCost coverage targets: Target for every attack,
// full coverage when it is unset.
func (s Spec) Targets() CoverageTargets {
	if s.Target == nil {
		return CoverageTargets{Global: 1}
	}
	return CoverageTargets{Global: *s.Target}
}

// Run solves s on the optimizer's system: MinCostIncremental on its
// targets, or MaxUtilityIncremental on its resolved budget, keeping the
// Existing monitors either way. The optimizer should carry s.Options().
func (o *Optimizer) Run(s Spec) (*Result, error) {
	existing := model.NewDeployment(s.Existing...)
	if s.MinCost {
		return o.MinCostIncremental(s.Targets(), existing)
	}
	return o.MaxUtilityIncremental(s.BudgetOn(o.idx), existing)
}

// RunWarm is Run through the warm entry points (MinCostWarm or
// MaxUtilityWarm), threading prior. The warm entry points keep no existing
// monitors, so a spec with Existing is refused.
func (o *Optimizer) RunWarm(s Spec, prior *Prior) (*Result, *Prior, error) {
	switch {
	case len(s.Existing) > 0:
		return nil, nil, fmt.Errorf("%w: warm solves keep no existing monitors", ErrBadSpec)
	case s.MinCost:
		return o.MinCostWarm(s.Targets(), prior)
	}
	return o.MaxUtilityWarm(s.BudgetOn(o.idx), prior)
}

// Canonical returns s with the spellings of one solve folded together:
// BudgetFraction drops Budget (the fraction wins), kernel "sparse" becomes
// "lu", decompose "auto" becomes "", and a corroboration or worker count
// of 1 becomes 0. Each fold is one a test shows runs the identical solve;
// everything else is kept as given.
func (s Spec) Canonical() Spec {
	if s.BudgetFraction != nil {
		s.Budget = nil
	}
	if s.Kernel == "sparse" {
		s.Kernel = "lu"
	}
	if s.Decompose == "auto" {
		s.Decompose = ""
	}
	if s.Corroboration == 1 {
		s.Corroboration = 0
	}
	if s.Workers == 1 {
		s.Workers = 0
	}
	return s
}

// Hash is the hex SHA-256 of the canonical spec's JSON encoding, so two
// spellings of one solve that Canonical folds share it.
func (s Spec) Hash() string {
	b, _ := json.Marshal(s.Canonical()) // a Spec always encodes
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

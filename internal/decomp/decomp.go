// Package decomp solves large monitor-deployment instances by decomposition:
// the monitor-data production graph is partitioned into segments connected
// through a small set of cross-cut monitors (internal/graph), each segment
// becomes a small ILP solved with the in-repo branch-and-bound solver
// (internal/ilp), and a coordinator recombines the pieces with proven bounds.
//
// MinCost decomposes exactly: per-attack coverage rows couple only the
// attack's own evidence, so connected components (with attack evidence
// treated as cliques) are independent subproblems whose optima sum.
//
// MaxUtility couples every segment through the shared budget. The
// coordinator Lagrangian-relaxes the budget row at a multiplier lambda,
// solves the per-segment subproblems in parallel (reusing each segment's LP
// workspace, root basis and previous incumbent across lambda updates),
// pools the resulting segment plans as Dantzig-Wolfe columns, and closes
// the duality gap with a restricted master ILP over the pools plus
// branch-and-price on disagreeing monitors. When the gap cannot be closed
// within the node budget, the coordinator falls back to the monolithic
// exact solver seeded with the decomposition incumbent — never silently:
// the fallback is counted in Stats.OracleFallbacks.
package decomp

import (
	"context"
	"errors"
	"time"

	"secmon/internal/graph"
	"secmon/internal/ilp"
	"secmon/internal/lp"
	"secmon/internal/model"
)

// ErrNotDecomposable reports that the instance yields a single segment, so
// decomposition cannot help; callers should run the monolithic solver.
var ErrNotDecomposable = errors.New("decomp: instance does not decompose")

// Config tunes the decomposition solver. The zero value selects defaults.
type Config struct {
	// MaxSegments caps the partition size; <= 0 picks a size-based default.
	MaxSegments int
	// Workers bounds concurrent segment solves and is the branch-and-bound
	// worker count of every ILP solve the decomposition runs; <= 0 means
	// GOMAXPROCS. At 1 every solve runs one worker, so the result and its
	// effort counters are deterministic.
	Workers int
	// GapTol is the relative optimality tolerance at which the coordinator
	// declares the bound closed; <= 0 means 1e-6.
	GapTol float64
	// MaxIterations caps coordinator lambda evaluations; <= 0 means 28.
	MaxIterations int
	// MaxBranchNodes caps coordinator branch-and-price nodes before the
	// monolithic oracle fallback; <= 0 means 96.
	MaxBranchNodes int
	// Ctx cancels the solve anytime-style; nil means context.Background().
	Ctx context.Context
	// Kernel pins the LP simplex kernel of every ILP solve the
	// decomposition runs; lp.KernelAuto (the zero value) keeps the lp
	// package's dispatch.
	Kernel lp.Kernel
}

// solveOptions are the options every ILP solve of the decomposition
// carries: the cancellation context, the worker count and the kernel pin.
func (c Config) solveOptions(workers int) []ilp.Option {
	return []ilp.Option{ilp.WithContext(c.Ctx), ilp.WithWorkers(workers), ilp.WithKernel(c.Kernel)}
}

func (c Config) withDefaults(numMonitors int) Config {
	if c.MaxSegments <= 0 {
		// Small segments keep the priced subproblems in the millisecond
		// range, which dominates wall clock at scale; the weaker bound from
		// extra cut monitors is closed by branching and variable fixing.
		c.MaxSegments = numMonitors / 125
		if c.MaxSegments < 4 {
			c.MaxSegments = 4
		}
		if c.MaxSegments > 48 {
			c.MaxSegments = 48
		}
	}
	if c.GapTol <= 0 {
		c.GapTol = 1e-6
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 28
	}
	if c.MaxBranchNodes <= 0 {
		// Memoized child evaluations make nodes cheap (one segment re-solve
		// each), so the budget scales with instance size; the progress
		// checkpoint inside branch-and-price usually hands over to the
		// exclusion-reduced oracle well before this hard cap.
		c.MaxBranchNodes = numMonitors
		if c.MaxBranchNodes < 96 {
			c.MaxBranchNodes = 96
		}
		if c.MaxBranchNodes > 20000 {
			c.MaxBranchNodes = 20000
		}
	}
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	return c
}

// Stats reports decomposition effort and bound progress.
type Stats struct {
	// Segments the instance was split into, and the cross-cut monitors
	// connecting them.
	Segments    int `json:"segments"`
	CutMonitors int `json:"cutMonitors"`
	// Components is the number of connected components of the coupling
	// graph before any splitting.
	Components int `json:"components"`
	// Iterations counts coordinator lambda evaluations (MaxUtility only).
	Iterations int `json:"iterations,omitempty"`
	// BranchNodes counts coordinator branch-and-price nodes.
	BranchNodes int `json:"branchNodes,omitempty"`
	// MasterSolves counts restricted-master ILP solves.
	MasterSolves int `json:"masterSolves,omitempty"`
	// SubproblemSolves counts per-segment ILP solves.
	SubproblemSolves int `json:"subproblemSolves"`
	// OracleFallbacks counts monolithic exact solves the coordinator had to
	// fall back to because the decomposition bound would not close.
	OracleFallbacks int `json:"oracleFallbacks,omitempty"`
	// VariableFixings counts monitors proven absent from every improving
	// solution by the Lagrangian penalty test; they shrink the branching
	// space and any oracle fallback.
	VariableFixings int `json:"variableFixings,omitempty"`
	// FinalGap is the relative gap between incumbent and bound at return.
	FinalGap float64 `json:"finalGap"`
	// GapTrajectory records the relative gap after each coordinator
	// iteration, the convergence trace of the dual search.
	GapTrajectory []float64 `json:"gapTrajectory,omitempty"`
}

// Result is the outcome of a decomposed solve, in raw objective units
// (utility for MaxUtility, cost for MinCost).
type Result struct {
	// Monitors is the selected deployment, sorted.
	Monitors []model.MonitorID
	// Objective is the incumbent objective value.
	Objective float64
	// Status mirrors ilp semantics: StatusOptimal when the bound closed,
	// StatusFeasible for an anytime return, StatusInfeasible for MinCost
	// instances with unmeetable targets.
	Status ilp.Status
	// BestBound is the proven bound on the optimum (upper for MaxUtility,
	// lower for MinCost), valid whenever BoundKnown.
	BestBound  float64
	BoundKnown bool
	// Gap is the relative gap between Objective and BestBound.
	Gap float64
	// Interrupted reports a context cancellation or deadline stop.
	Interrupted bool
	// ShadowPrice is the best budget multiplier lambda found by the dual
	// search (MaxUtility only): the marginal utility of budget.
	ShadowPrice float64
	// Nodes, LPIterations and Elapsed aggregate branch-and-bound effort
	// across every subproblem, master and oracle solve.
	Nodes        int
	LPIterations int
	Elapsed      time.Duration
	// Kernel aggregates the sparse LP kernel counters of the same solves.
	Kernel KernelStats
	// Stats details the decomposition itself.
	Stats Stats
}

// KernelStats sums the sparse LP kernel counters of a run of ILP solves
// (see ilp.Solution); FactorNnz keeps the largest base factorization.
type KernelStats struct {
	Etas                     int
	Refactorizations         int
	DevexResets              int
	Updates                  int
	BoundFlips               int
	AdaptiveRefactorizations int
	FactorNnz                int
	KernelFallbacks          int
}

// kernelOf reads one solve's kernel counters.
func kernelOf(sol *ilp.Solution) KernelStats {
	return KernelStats{
		Etas:                     sol.Etas,
		Refactorizations:         sol.Refactorizations,
		DevexResets:              sol.DevexResets,
		Updates:                  sol.Updates,
		BoundFlips:               sol.BoundFlips,
		AdaptiveRefactorizations: sol.AdaptiveRefactorizations,
		FactorNnz:                sol.FactorNnz,
		KernelFallbacks:          sol.KernelFallbacks,
	}
}

func (k *KernelStats) add(o KernelStats) {
	k.Etas += o.Etas
	k.Refactorizations += o.Refactorizations
	k.DevexResets += o.DevexResets
	k.Updates += o.Updates
	k.BoundFlips += o.BoundFlips
	k.AdaptiveRefactorizations += o.AdaptiveRefactorizations
	k.KernelFallbacks += o.KernelFallbacks
	k.FactorNnz = max(k.FactorNnz, o.FactorNnz)
}

// instance is an indexed system with the monitors a solve keeps fixed; the
// index's ordinal views are the flat arrays the coordinators work on.
type instance struct {
	idx   *model.Index
	fixed []bool // by monitor ordinal: forced into the deployment, cost not charged
}

func newInstance(idx *model.Index, fixed *model.Deployment) *instance {
	in := &instance{idx: idx, fixed: make([]bool, idx.NumMonitors())}
	if fixed != nil {
		for _, m := range fixed.Ordinals(idx) {
			in.fixed[m] = true
		}
	}
	return in
}

// utilityOf computes the exact utility of a monitor selection.
func (in *instance) utilityOf(sel []bool) float64 {
	u := 0.0
	for d := range in.idx.NumDataTypes() {
		if in.idx.Contribution(d) == 0 {
			continue
		}
		for _, m := range in.idx.DataProducers(d) {
			if sel[m] {
				u += in.idx.Contribution(d)
				break
			}
		}
	}
	return u
}

// chargedCostOf sums the cost of selected non-fixed monitors.
func (in *instance) chargedCostOf(sel []bool) float64 {
	c := 0.0
	for m, on := range sel {
		if on && !in.fixed[m] {
			c += in.idx.MonitorCost(m)
		}
	}
	return c
}

// selection converts a monitor mask into a sorted identifier list: ordinal
// order is identifier order.
func (in *instance) selection(sel []bool) []model.MonitorID {
	var ids []model.MonitorID
	for m, on := range sel {
		if on {
			ids = append(ids, in.idx.MonitorAt(m))
		}
	}
	return ids
}

// partitionMaxUtility splits the monitor-data graph for the budgeted
// problem: cross-cut monitors allowed, balanced segments.
func (in *instance) partitionMaxUtility(maxSegments int) *graph.IndexPartition {
	return graph.PartitionIndex(in.idx, false, graph.PartitionConfig{MaxSegments: maxSegments})
}

// cancelled reports whether ctx is done.
func cancelled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// relGap is the relative distance between an incumbent objective and its
// bound, normalized like the ilp solver's gap.
func relGap(obj, bound float64) float64 {
	d := bound - obj
	if d < 0 {
		d = -d
	}
	den := obj
	if den < 0 {
		den = -den
	}
	if den < 1 {
		den = 1
	}
	return d / den
}

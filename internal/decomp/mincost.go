package decomp

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"secmon/internal/graph"
	"secmon/internal/ilp"
	"secmon/internal/lp"
	"secmon/internal/model"
)

// MinCost solves the cheapest-deployment problem by exact component
// decomposition. Per-attack coverage rows couple only the attack's own
// evidence, so with attack evidence treated as cliques the connected
// components of the production graph are fully independent subproblems:
// component optima sum to the global optimum with no duality gap. required
// maps each attack to its required covered-evidence count (attacks absent or
// <= 0 are unconstrained), as computed by the caller's target validation.
// Returns ErrNotDecomposable for single-component instances.
func MinCost(idx *model.Index, required map[model.AttackID]float64, fixed *model.Deployment, cfg Config) (*Result, error) {
	in := newInstance(idx, fixed)
	cfg = cfg.withDefaults(len(in.monitors))
	start := time.Now()

	part := graph.PartitionIndex(idx, true, graph.PartitionConfig{
		// One segment per component: components are the exact decomposition.
		MaxSegments:    len(in.monitors) + len(in.data) + 1,
		ComponentsOnly: true,
	})
	if part.Segments < 2 {
		return nil, ErrNotDecomposable
	}

	// Attacks follow their evidence: the clique coupling guarantees every
	// evidence item of an attack shares one component. The data-type index
	// map is built once and shared read-only by every segment solve.
	dataIdx := make(map[model.DataTypeID]int, len(in.data))
	for i, d := range in.data {
		dataIdx[d] = i
	}
	segAttacks := make([][]model.AttackID, part.Segments)
	for _, aid := range idx.AttackIDs() {
		if required[aid] <= 0 {
			continue
		}
		ev := idx.AttackEvidence(aid)
		if len(ev) == 0 {
			continue
		}
		s := part.GroupSegment[dataIdx[ev[0]]]
		segAttacks[s] = append(segAttacks[s], aid)
	}

	res := &Result{Status: ilp.StatusOptimal, BoundKnown: true}
	res.Stats.Segments = part.Segments
	res.Stats.Components = part.Stats.Components

	sel := make([]bool, len(in.monitors))
	for m, f := range in.fixed {
		sel[m] = f
	}

	if cfg.Workers <= 0 {
		// Resolved once: it bounds both the concurrent segment solves and
		// each segment's branch-and-bound workers.
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	type segOut struct {
		sol *ilp.Solution
		xv  []lp.VarID
		mon []int
		err error
	}
	outs := make([]segOut, part.Segments)
	sem := make(chan struct{}, cfg.Workers)
	var wg sync.WaitGroup
	for s := 0; s < part.Segments; s++ {
		if len(segAttacks[s]) == 0 {
			continue // nothing required here: the component optimum is empty
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			outs[s] = solveMinCostSegment(in, idx, part, dataIdx, s, segAttacks[s], required, cfg)
		}(s)
	}
	wg.Wait()

	for s := range outs {
		out := &outs[s]
		if out.sol == nil && out.err == nil {
			continue // skipped segment
		}
		if out.err != nil {
			return nil, out.err
		}
		res.Stats.SubproblemSolves++
		res.Nodes += out.sol.Nodes
		res.LPIterations += out.sol.LPIterations
		res.Kernel.add(kernelOf(out.sol))
		switch out.sol.Status {
		case ilp.StatusOptimal:
		case ilp.StatusInfeasible:
			res.Status = ilp.StatusInfeasible
			res.BoundKnown = false
			res.Elapsed = time.Since(start)
			return res, nil
		case ilp.StatusFeasible:
			res.Status = ilp.StatusFeasible
			res.Interrupted = res.Interrupted || out.sol.Interrupted
		default:
			// A segment stopped with no incumbent: no feasible global
			// deployment can be assembled.
			res.Status = out.sol.Status
			res.Interrupted = res.Interrupted || out.sol.Interrupted
			res.BoundKnown = false
			res.Elapsed = time.Since(start)
			return res, nil
		}
		for j, m := range out.mon {
			if out.sol.Value(out.xv[j]) > 0.5 {
				sel[m] = true
			}
		}
		if out.sol.BoundKnown {
			res.BestBound += out.sol.BestBound
		} else {
			res.BoundKnown = false
		}
	}

	res.Monitors = in.selection(sel)
	res.Objective = in.chargedCostOf(sel)
	res.Gap = relGap(res.Objective, res.BestBound)
	res.Stats.FinalGap = res.Gap
	res.Elapsed = time.Since(start)
	return res, nil
}

// solveMinCostSegment builds and solves the compact MinCost formulation
// restricted to one component's monitors, data types and attacks.
func solveMinCostSegment(in *instance, idx *model.Index, part *graph.IndexPartition, dataIdx map[model.DataTypeID]int, s int, attacks []model.AttackID, required map[model.AttackID]float64, cfg Config) (out struct {
	sol *ilp.Solution
	xv  []lp.VarID
	mon []int
	err error
}) {
	prob := ilp.NewProblem(lp.Minimize)
	out.mon = part.SegmentItems[s]
	out.xv = make([]lp.VarID, len(out.mon))
	xOf := make(map[int]lp.VarID, len(out.mon))
	for j, m := range out.mon {
		objCost := in.cost[m]
		if in.fixed[m] {
			objCost = 0
		}
		v, err := prob.AddBinaryVariable("x:"+string(in.monitors[m]), objCost)
		if err != nil {
			out.err = fmt.Errorf("decomp: mincost variable: %w", err)
			return
		}
		prob.SetBranchPriority(v, 1)
		if in.fixed[m] {
			if err := prob.SetVariableBounds(v, 1, 1); err != nil {
				out.err = err
				return
			}
		}
		out.xv[j] = v
		xOf[m] = v
	}

	// Coverage variables for the segment's producible evidence data types.
	zOf := make(map[int]lp.VarID)
	for _, d := range part.SegmentGroups[s] {
		if !in.evidence[d] || len(in.prod[d]) == 0 {
			continue
		}
		z, err := prob.AddVariable("z:"+string(in.data[d]), 0, 1, 0)
		if err != nil {
			out.err = err
			return
		}
		zOf[d] = z
		terms := []lp.Term{{Var: z, Coeff: 1}}
		for _, p := range in.prod[d] {
			terms = append(terms, lp.Term{Var: xOf[p], Coeff: -1})
		}
		if _, err := prob.AddConstraint("link:"+string(in.data[d]), terms, lp.LE, 0); err != nil {
			out.err = err
			return
		}
	}

	for _, aid := range attacks {
		var terms []lp.Term
		for _, e := range idx.AttackEvidence(aid) {
			if z, ok := zOf[dataIdx[e]]; ok {
				terms = append(terms, lp.Term{Var: z, Coeff: 1})
			}
		}
		if _, err := prob.AddConstraint("cover:"+string(aid), terms, lp.GE, required[aid]); err != nil {
			out.err = err
			return
		}
	}

	if seed := greedyMinCostSeed(in, idx, part, dataIdx, s, attacks, required, zOf); seed != nil {
		x := make([]float64, len(out.mon)+len(zOf))
		zPos := make(map[int]int, len(zOf))
		pos := len(out.mon)
		for _, d := range part.SegmentGroups[s] {
			if _, ok := zOf[d]; ok {
				zPos[d] = pos
				pos++
			}
		}
		for j, m := range out.mon {
			if seed[m] {
				x[j] = 1
				for _, d := range in.produces[m] {
					if p, ok := zPos[d]; ok {
						x[p] = 1
					}
				}
			}
		}
		out.sol, out.err = prob.Solve(ilp.WithContext(cfg.Ctx), ilp.WithWorkers(cfg.Workers), ilp.WithIncumbent(x))
		return
	}
	out.sol, out.err = prob.Solve(ilp.WithContext(cfg.Ctx), ilp.WithWorkers(cfg.Workers))
	return
}

// greedyMinCostSeed builds a feasible component deployment by cost-benefit
// set cover — repeatedly adding the monitor that newly satisfies the most
// outstanding required evidence per unit cost — then strips redundant picks,
// costliest first. A tight incumbent lets the exact solve prune instead of
// search; returns nil when greedy cannot reach feasibility (the ILP then
// decides feasibility itself).
func greedyMinCostSeed(in *instance, idx *model.Index, part *graph.IndexPartition, dataIdx map[model.DataTypeID]int, s int, attacks []model.AttackID, required map[model.AttackID]float64, zOf map[int]lp.VarID) map[int]bool {
	// need[d] lists attacks short on coverage that count data type d.
	short := make([]float64, len(attacks))
	evs := make([][]int, len(attacks))
	usedBy := make(map[int][]int) // data index -> attack positions counting it
	for i, aid := range attacks {
		short[i] = required[aid]
		for _, e := range idx.AttackEvidence(aid) {
			d := dataIdx[e]
			if _, ok := zOf[d]; !ok {
				continue
			}
			evs[i] = append(evs[i], d)
			usedBy[d] = append(usedBy[d], i)
		}
	}
	member := make(map[int]bool, len(part.SegmentItems[s]))
	for _, m := range part.SegmentItems[s] {
		member[m] = true
	}
	covered := make(map[int]bool)
	sel := make(map[int]bool)
	credit := func(d int, delta float64) {
		for _, i := range usedBy[d] {
			short[i] += delta
		}
	}
	for m, f := range in.fixed {
		if f && member[m] {
			sel[m] = true
			for _, d := range in.produces[m] {
				if _, ok := zOf[d]; ok && !covered[d] {
					covered[d] = true
					credit(d, -1)
				}
			}
		}
	}
	outstanding := func() bool {
		for i := range short {
			if short[i] > 1e-9 {
				return true
			}
		}
		return false
	}
	for outstanding() {
		best, bestScore := -1, 0.0
		for _, m := range part.SegmentItems[s] {
			if sel[m] {
				continue
			}
			gain := 0.0
			for _, d := range in.produces[m] {
				if _, ok := zOf[d]; !ok || covered[d] {
					continue
				}
				for _, i := range usedBy[d] {
					if short[i] > 1e-9 {
						gain++
						break
					}
				}
			}
			if gain == 0 {
				continue
			}
			score := gain
			if in.cost[m] > 1e-12 {
				score = gain / in.cost[m]
			} else {
				score = gain * 1e12
			}
			if score > bestScore {
				best, bestScore = m, score
			}
		}
		if best < 0 {
			return nil // infeasible for greedy; let the ILP prove it
		}
		sel[best] = true
		for _, d := range in.produces[best] {
			if _, ok := zOf[d]; ok && !covered[d] {
				covered[d] = true
				credit(d, -1)
			}
		}
	}
	// Redundancy pass: drop selected monitors, costliest first, whenever
	// every attack keeps its required count.
	order := make([]int, 0, len(sel))
	for m := range sel {
		if !in.fixed[m] {
			order = append(order, m)
		}
	}
	sort.Slice(order, func(a, b int) bool { return in.cost[order[a]] > in.cost[order[b]] })
	prodCount := make(map[int]int)
	for m := range sel {
		for _, d := range in.produces[m] {
			if _, ok := zOf[d]; ok {
				prodCount[d]++
			}
		}
	}
	for _, m := range order {
		loss := make(map[int]float64)
		for _, d := range in.produces[m] {
			if _, zok := zOf[d]; zok && prodCount[d] == 1 {
				for _, i := range usedBy[d] {
					loss[i]++
				}
			}
		}
		ok := true
		for i, l := range loss {
			if l > -short[i]+1e-9 { // slack is -short; removal must fit it
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		delete(sel, m)
		for _, d := range in.produces[m] {
			if _, zok := zOf[d]; zok {
				prodCount[d]--
				if prodCount[d] == 0 {
					covered[d] = false
					credit(d, 1)
				}
			}
		}
	}
	return sel
}

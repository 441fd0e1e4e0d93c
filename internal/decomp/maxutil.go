package decomp

import (
	"container/heap"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"secmon/internal/graph"
	"secmon/internal/ilp"
	"secmon/internal/lp"
	"secmon/internal/model"
)

// MaxUtility solves the budgeted maximum-utility placement by Lagrangian
// decomposition. It returns ErrNotDecomposable when the instance yields a
// single segment; the caller should then run the monolithic solver.
func MaxUtility(idx *model.Index, budget float64, fixed *model.Deployment, cfg Config) (*Result, error) {
	in := newInstance(idx, fixed)
	cfg = cfg.withDefaults(in.idx.NumMonitors())
	co, err := newCoordinator(in, budget, cfg)
	if err != nil {
		return nil, err
	}
	return co.run()
}

// segment is one subproblem of the decomposition: the monitors and data
// types of one partition segment, plus copies of the cross-cut monitors that
// produce into it. The ILP, LP workspace, root basis and last incumbent are
// reused across every lambda the coordinator evaluates.
type segment struct {
	id     int
	mons   []int     // global monitor indices with a variable here
	charge []float64 // lambda-chargeable cost per mons entry
	isCut  []bool
	groups []int // data indices owned by this segment

	prob  *ilp.Problem
	xv    []lp.VarID
	ws    *lp.Workspace
	basis *lp.Basis
	lastX []float64
	// memo caches proven-optimal segment solves by (lambda, local fixings):
	// branch-and-price children differ from their parent in one monitor, so
	// every other segment's subproblem is a cache hit.
	memo map[string]segEval
	// curve holds proven-optimal root solves (no fixings) sorted by lambda.
	// The segment value function is piecewise-linear convex in lambda and
	// each plan's value is linear with slope -charged, so whenever one
	// recorded plan is optimal at both ends of a bracket it is optimal on
	// the whole interval: interior bisection queries resolve analytically.
	curve []curvePoint
}

type curvePoint struct {
	lambda  float64
	value   float64
	charged float64
	plan    plan
}

// plan is one segment solution, a Dantzig-Wolfe column: the selected
// non-fixed monitors, their cost split into segment-local and cross-cut
// parts, and the utility collected on the segment's own data types.
type plan struct {
	mons      []int // all selected non-fixed monitors, ascending
	cut       []int // the cross-cut subset of mons
	localCost float64
	utility   float64
	charged   float64 // lambda-chargeable cost actually selected
	key       string
}

type segEval struct {
	plan    plan
	bound   float64 // segment Lagrangian bound contribution
	boundOK bool
	exact   bool // proven-optimal: safe to memoize
	nodes   int
	lpIters int
	kernel  KernelStats
	err     error
}

type coordinator struct {
	in     *instance
	cfg    Config
	budget float64

	segs    []*segment
	segOf   []int  // per monitor: segment id, -1 for cut or inactive
	active  []bool // per data index: contributes and has a producer
	relev   []bool // per monitor: produces at least one active group
	pools   [][]plan
	poolKey []map[string]bool

	workers        int
	bestSel        []bool
	bestLB         float64
	bestUB         float64
	lamHat         float64
	lastMasterPool int
	duals          []dualPoint // root dual evaluations: (lambda, L(lambda))
	excl           []bool      // monitors proven absent from improving solutions

	stats   Stats
	nodes   int
	lpIters int
	kernel  KernelStats
	start   time.Time
}

func newCoordinator(in *instance, budget float64, cfg Config) (*coordinator, error) {
	co := &coordinator{
		in: in, cfg: cfg, budget: budget,
		workers: cfg.Workers, start: time.Now(),
	}
	if co.workers <= 0 {
		co.workers = runtime.GOMAXPROCS(0)
	}

	co.active = make([]bool, in.idx.NumDataTypes())
	for d := range in.idx.NumDataTypes() {
		co.active[d] = in.idx.Contribution(d) > 0 && len(in.idx.DataProducers(d)) > 0
	}
	co.relev = make([]bool, in.idx.NumMonitors())
	for m := range co.relev {
		for _, d := range in.idx.MonitorData(m) {
			if co.active[d] {
				co.relev[m] = true
				break
			}
		}
	}

	part := in.partitionMaxUtility(cfg.MaxSegments)
	co.stats.Components = part.Stats.Components
	if err := co.buildSegments(part); err != nil {
		return nil, err
	}
	if len(co.segs) < 2 {
		return nil, ErrNotDecomposable
	}
	co.stats.Segments = len(co.segs)
	co.pools = make([][]plan, len(co.segs))
	co.poolKey = make([]map[string]bool, len(co.segs))
	for s := range co.poolKey {
		co.poolKey[s] = make(map[string]bool)
	}
	return co, nil
}

// buildSegments materializes one ILP per partition segment that owns active
// data types. Cross-cut monitors get a variable copy in every segment they
// produce into; their cost is lambda-charged only in their primary segment
// (the one owning most of their active data types) so relaxed bounds stay
// valid — a monitor deployed "everywhere" still pays once.
func (co *coordinator) buildSegments(part *graph.IndexPartition) error {
	in := co.in
	type member struct {
		charge float64
		isCut  bool
	}
	segMon := make([]map[int]*member, part.Segments)
	segGroups := make([][]int, part.Segments)
	for s := range segMon {
		segMon[s] = make(map[int]*member)
	}
	for d, seg := range part.GroupSegment {
		if co.active[d] {
			segGroups[seg] = append(segGroups[seg], d)
		}
	}

	cutCount := 0
	co.segOf = make([]int, in.idx.NumMonitors())
	for m := range in.idx.NumMonitors() {
		co.segOf[m] = -1
		if !co.relev[m] {
			continue
		}
		// Active segments this monitor produces into, with group counts.
		perSeg := map[int]int{}
		for _, d := range in.idx.MonitorData(m) {
			if co.active[d] {
				perSeg[part.GroupSegment[d]]++
			}
		}
		segs := make([]int, 0, len(perSeg))
		for s := range perSeg {
			segs = append(segs, s)
		}
		sort.Ints(segs)
		cut := len(segs) > 1
		if cut {
			cutCount++
		} else {
			co.segOf[m] = segs[0]
		}
		// Primary segment: most active groups, ties to the lowest id.
		primary := segs[0]
		for _, s := range segs[1:] {
			if perSeg[s] > perSeg[primary] {
				primary = s
			}
		}
		for _, s := range segs {
			mm := &member{isCut: cut}
			if !in.fixed[m] && s == primary {
				mm.charge = in.idx.MonitorCost(m)
			}
			segMon[s][m] = mm
		}
	}
	co.stats.CutMonitors = cutCount

	coordID := make([]int, part.Segments)
	for s := range coordID {
		coordID[s] = -1
	}
	for s := 0; s < part.Segments; s++ {
		if len(segGroups[s]) == 0 {
			continue
		}
		coordID[s] = len(co.segs)
		sg := &segment{
			id: len(co.segs), groups: segGroups[s],
			ws: lp.NewWorkspace(), memo: make(map[string]segEval),
		}
		for m := range segMon[s] {
			sg.mons = append(sg.mons, m)
		}
		sort.Ints(sg.mons)
		sg.charge = make([]float64, len(sg.mons))
		sg.isCut = make([]bool, len(sg.mons))
		xOf := make(map[int]lp.VarID, len(sg.mons))
		sg.prob = ilp.NewProblem(lp.Maximize)
		sg.xv = make([]lp.VarID, len(sg.mons))
		for j, m := range sg.mons {
			mm := segMon[s][m]
			sg.charge[j] = mm.charge
			sg.isCut[j] = mm.isCut
			v, err := sg.prob.AddBinaryVariable("x:"+string(in.idx.MonitorAt(m)), 0)
			if err != nil {
				return fmt.Errorf("decomp: segment variable: %w", err)
			}
			sg.prob.SetBranchPriority(v, 1)
			if in.fixed[m] {
				if err := sg.prob.SetVariableBounds(v, 1, 1); err != nil {
					return fmt.Errorf("decomp: fix monitor: %w", err)
				}
			}
			sg.xv[j] = v
			xOf[m] = v
		}
		for _, d := range sg.groups {
			z, err := sg.prob.AddVariable("z:"+string(in.idx.DataTypeAt(d)), 0, 1, in.idx.Contribution(d))
			if err != nil {
				return fmt.Errorf("decomp: coverage variable: %w", err)
			}
			terms := []lp.Term{{Var: z, Coeff: 1}}
			for _, p := range in.idx.DataProducers(d) {
				terms = append(terms, lp.Term{Var: xOf[int(p)], Coeff: -1})
			}
			if _, err := sg.prob.AddConstraint("link:"+string(in.idx.DataTypeAt(d)), terms, lp.LE, 0); err != nil {
				return fmt.Errorf("decomp: link row: %w", err)
			}
		}
		co.segs = append(co.segs, sg)
	}
	// segOf so far holds partition segment ids; rewrite to coordinator
	// segment indices (empty partition segments were dropped).
	for m, s := range co.segOf {
		if s >= 0 {
			co.segOf[m] = coordID[s]
		}
	}
	return nil
}

// solve runs one segment subproblem at multiplier lambda under the branch
// fixings, reusing the workspace, previous root basis and previous incumbent.
func (sg *segment) solve(co *coordinator, lambda float64, fix map[int]int8) segEval {
	in := co.in
	for j, m := range sg.mons {
		if err := sg.prob.SetObjectiveCoefficient(sg.xv[j], -lambda*sg.charge[j]); err != nil {
			return segEval{err: err}
		}
		if in.fixed[m] {
			continue
		}
		lo, hi := 0.0, 1.0
		if v, ok := fix[m]; ok {
			lo, hi = float64(v), float64(v)
		}
		if err := sg.prob.SetVariableBounds(sg.xv[j], lo, hi); err != nil {
			return segEval{err: err}
		}
	}
	opts := append(co.cfg.solveOptions(co.workers), ilp.WithWorkspace(sg.ws))
	if sg.basis != nil {
		opts = append(opts, ilp.WithRootBasis(sg.basis))
	}
	if sg.lastX != nil {
		opts = append(opts, ilp.WithIncumbent(sg.lastX))
	}
	sol, err := sg.prob.Solve(opts...)
	if err != nil {
		return segEval{err: err}
	}
	if sol.RootBasis != nil {
		sg.basis = sol.RootBasis
	}
	ev := segEval{
		bound: sol.BestBound, boundOK: sol.BoundKnown,
		exact: sol.Status == ilp.StatusOptimal,
		nodes: sol.Nodes, lpIters: sol.LPIterations, kernel: kernelOf(sol),
	}
	if sol.Status == ilp.StatusOptimal || sol.Status == ilp.StatusFeasible {
		sg.lastX = sol.X
		ev.plan = sg.extract(co, sol)
	}
	return ev
}

// interpolate answers a root-level (unfixed) query from the recorded value
// curve without an ILP solve. Valid when a bracketing solved plan is optimal
// at both bracket ends: convexity pins the value function to that plan's
// line across the interval.
func (sg *segment) interpolate(lambda float64) (segEval, bool) {
	i := sort.Search(len(sg.curve), func(k int) bool { return sg.curve[k].lambda >= lambda })
	if i == 0 || i == len(sg.curve) {
		return segEval{}, false
	}
	a, b := sg.curve[i-1], sg.curve[i]
	eps := 1e-9 * (1 + math.Abs(b.value))
	// Plan a still optimal at lambda_b: its line meets the value function at
	// both ends, so it IS the value function on [lambda_a, lambda_b].
	if a.value-(b.lambda-a.lambda)*a.charged >= b.value-eps {
		return segEval{
			plan:    a.plan,
			bound:   a.value - (lambda-a.lambda)*a.charged,
			boundOK: true,
			exact:   true,
		}, true
	}
	return segEval{}, false
}

// curveInsert records a proven root solve as a value-curve breakpoint.
func (sg *segment) curveInsert(lambda float64, ev segEval) {
	i := sort.Search(len(sg.curve), func(k int) bool { return sg.curve[k].lambda >= lambda })
	if i < len(sg.curve) && sg.curve[i].lambda == lambda {
		return
	}
	cp := curvePoint{lambda: lambda, value: ev.bound, charged: ev.plan.charged, plan: ev.plan}
	sg.curve = append(sg.curve, curvePoint{})
	copy(sg.curve[i+1:], sg.curve[i:])
	sg.curve[i] = cp
}

// memoKey identifies a segment subproblem: the multiplier plus the branch
// fixings that touch this segment's monitors, in ascending monitor order.
func (sg *segment) memoKey(lambda float64, fix map[int]int8) string {
	var b strings.Builder
	b.WriteString(strconv.FormatUint(math.Float64bits(lambda), 16))
	if len(fix) > 0 {
		local := make([]int, 0, len(fix))
		for m := range fix {
			if contains(sg.mons, m) {
				local = append(local, m)
			}
		}
		sort.Ints(local)
		for _, m := range local {
			b.WriteByte(';')
			b.WriteString(strconv.Itoa(m))
			b.WriteByte(':')
			b.WriteByte('0' + byte(fix[m]))
		}
	}
	return b.String()
}

// extract reads the selected monitors out of a segment solution and prices
// the resulting column.
func (sg *segment) extract(co *coordinator, sol *ilp.Solution) plan {
	in := co.in
	p := plan{}
	selected := make(map[int]bool, len(sg.mons))
	var key strings.Builder
	for j, m := range sg.mons {
		if sol.Value(sg.xv[j]) < 0.5 {
			continue
		}
		selected[m] = true
		p.charged += sg.charge[j]
		if in.fixed[m] {
			continue
		}
		p.mons = append(p.mons, m)
		if sg.isCut[j] {
			p.cut = append(p.cut, m)
		} else {
			p.localCost += in.idx.MonitorCost(m)
		}
		key.WriteString(strconv.Itoa(m))
		key.WriteByte(',')
	}
	for _, d := range sg.groups {
		for _, pr := range in.idx.DataProducers(d) {
			if selected[int(pr)] || in.fixed[pr] {
				p.utility += in.idx.Contribution(d)
				break
			}
		}
	}
	p.key = key.String()
	return p
}

// evaluate solves every segment at lambda in parallel. It returns the
// Lagrangian bound L(lambda) (valid only when boundOK: every segment proved
// its bound), and the total lambda-charged cost of the segment optima — the
// subgradient direction for the dual search.
func (co *coordinator) evaluate(lambda float64, fix map[int]int8) (evals []segEval, L float64, boundOK bool, charged float64, err error) {
	evals = make([]segEval, len(co.segs))
	keys := make([]string, len(co.segs))
	var misses []int
	for i, sg := range co.segs {
		keys[i] = sg.memoKey(lambda, fix)
		if ev, ok := sg.memo[keys[i]]; ok {
			evals[i] = ev
			continue
		}
		if fix == nil {
			if ev, ok := sg.interpolate(lambda); ok {
				evals[i] = ev
				continue
			}
		}
		misses = append(misses, i)
	}
	sem := make(chan struct{}, co.workers)
	var wg sync.WaitGroup
	for _, i := range misses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			evals[i] = co.segs[i].solve(co, lambda, fix)
		}(i)
	}
	wg.Wait()

	L = lambda * co.budget
	boundOK = true
	for i := range evals {
		ev := &evals[i]
		if ev.err != nil {
			return nil, 0, false, 0, ev.err
		}
		if ev.boundOK {
			L += ev.bound
		} else {
			boundOK = false
		}
		charged += ev.plan.charged
	}
	for _, i := range misses {
		ev := &evals[i]
		co.stats.SubproblemSolves++
		co.nodes += ev.nodes
		co.lpIters += ev.lpIters
		co.kernel.add(ev.kernel)
		if ev.exact && ev.boundOK {
			co.segs[i].memo[keys[i]] = *ev
			if fix == nil {
				co.segs[i].curveInsert(lambda, *ev)
			}
		}
		co.pool(i, ev.plan)
	}
	return evals, L, boundOK, charged, nil
}

func (co *coordinator) pool(seg int, p plan) {
	if co.poolKey[seg][p.key] {
		return
	}
	co.poolKey[seg][p.key] = true
	co.pools[seg] = append(co.pools[seg], p)
}

// masterIfGrown re-solves the restricted master only when the pools gained
// columns since the last solve: master ILPs dominate coordinator cost at
// scale, and a restricted master over an unchanged pool cannot beat the last
// unrestricted one. Returns the master selection for branching, or nil.
func (co *coordinator) masterIfGrown(fix map[int]int8) []bool {
	total := 0
	for s := range co.pools {
		total += len(co.pools[s])
	}
	if total == co.lastMasterPool {
		return nil
	}
	co.lastMasterPool = total
	if sel, ok := co.solveMaster(fix); ok {
		co.offerIncumbent(sel)
		return sel
	}
	return nil
}

// offerIncumbent installs sel as the new best deployment if it is feasible
// and improves the incumbent. The utility is recomputed exactly.
func (co *coordinator) offerIncumbent(sel []bool) bool {
	if co.in.chargedCostOf(sel) > co.budget+1e-9 {
		return false
	}
	u := co.in.utilityOf(sel)
	if co.bestSel != nil && u <= co.bestLB+1e-15 {
		return false
	}
	co.bestLB = u
	co.bestSel = append([]bool(nil), sel...)
	return true
}

// unionIncumbent combines the latest segment plans into one deployment and,
// when it overspends by less than half the budget, repairs it by dropping
// the worst utility-per-cost monitors.
func (co *coordinator) unionIncumbent(evals []segEval) {
	in := co.in
	sel := make([]bool, in.idx.NumMonitors())
	for m, f := range in.fixed {
		sel[m] = f
	}
	for i := range evals {
		for _, m := range evals[i].plan.mons {
			sel[m] = true
		}
	}
	cost := in.chargedCostOf(sel)
	if cost > 1.5*co.budget {
		return // too far gone; the master will combine pools instead
	}
	for cost > co.budget+1e-9 {
		// Covered-by-one counts locate each monitor's sole contributions.
		cnt := make([]int, in.idx.NumDataTypes())
		for m, on := range sel {
			if !on {
				continue
			}
			for _, d := range in.idx.MonitorData(m) {
				cnt[d]++
			}
		}
		drop, dropScore := -1, 0.0
		for m, on := range sel {
			if !on || in.fixed[m] || in.idx.MonitorCost(m) <= 0 {
				continue
			}
			loss := 0.0
			for _, d := range in.idx.MonitorData(m) {
				if cnt[d] == 1 {
					loss += in.idx.Contribution(int(d))
				}
			}
			score := loss / in.idx.MonitorCost(m)
			if drop < 0 || score < dropScore {
				drop, dropScore = m, score
			}
		}
		if drop < 0 {
			return
		}
		sel[drop] = false
		cost -= in.idx.MonitorCost(drop)
	}
	co.offerIncumbent(sel)
}

// run is the coordinator main loop: free bound and greedy incumbent first
// (the anytime floor), then the bisection dual search with master re-solves,
// then branch-and-price, then — only if the bound still will not close — the
// monolithic oracle.
func (co *coordinator) run() (*Result, error) {
	in := co.in

	// Free upper bound: L(0) covers everything coverable.
	co.bestUB = 0
	for d, a := range co.active {
		if a {
			co.bestUB += in.idx.Contribution(d)
		}
	}
	// Greedy incumbent: the anytime floor, no LP required.
	co.offerIncumbent(co.greedy())
	co.recordGap()

	// The lambda=0 plan is analytic: every relevant monitor. If it fits the
	// budget, covering everything coverable is optimal outright.
	all := make([]bool, in.idx.NumMonitors())
	allCost := 0.0
	for m := range in.idx.NumMonitors() {
		all[m] = co.relev[m] || in.fixed[m]
		if all[m] && !in.fixed[m] {
			allCost += in.idx.MonitorCost(m)
		}
	}
	if allCost <= co.budget+1e-9 {
		co.offerIncumbent(all)
		co.stats.FinalGap = relGap(co.bestLB, co.bestUB)
		return co.finish(ilp.StatusOptimal, false), nil
	}

	if cancelled(co.cfg.Ctx) {
		return co.finish(ilp.StatusFeasible, true), nil
	}

	// Bisection on lambda: the subgradient of L is budget - charged(lambda),
	// so overspending optima push lambda up and underspending pull it down.
	lamLo, lamHi := 0.0, co.maxDensity()*1.05+1e-9
	co.lamHat = lamHi
	bestL := co.bestUB
	stall := 0
	for iter := 0; iter < co.cfg.MaxIterations; iter++ {
		if cancelled(co.cfg.Ctx) {
			return co.finish(ilp.StatusFeasible, true), nil
		}
		lambda := 0.5 * (lamLo + lamHi)
		if iter == 0 {
			lambda = lamHi // prove the bracket top first
		}
		evals, L, boundOK, charged, err := co.evaluate(lambda, nil)
		if err != nil {
			return nil, err
		}
		co.stats.Iterations++
		improved := false
		if boundOK {
			co.duals = append(co.duals, dualPoint{lambda: lambda, bound: L})
			if L < co.bestUB {
				co.bestUB = L
			}
			if L < bestL-1e-12*(1+math.Abs(bestL)) {
				improved = true
			}
			if L < bestL {
				bestL, co.lamHat = L, lambda
			}
		}
		co.unionIncumbent(evals)
		co.masterIfGrown(nil)
		co.recordGap()
		if co.closed() {
			return co.finish(ilp.StatusOptimal, false), nil
		}
		if charged > co.budget {
			lamLo = lambda
		} else {
			lamHi = lambda
		}
		if improved {
			stall = 0
		} else {
			stall++
		}
		// A stalled dual bound means lambda has converged to working
		// precision; further bisection cannot move L and branch-and-price
		// closes the remaining (integrality) gap instead.
		if iter >= 8 && stall >= 5 {
			break
		}
		if lamHi-lamLo < 1e-12*(1+lamHi) && iter >= 6 {
			break
		}
	}

	co.excl = co.lagrangianExclusions()

	if st, interrupted, done := co.branchAndPrice(); done {
		return co.finish(st, interrupted), nil
	}

	// The decomposition bound would not close: monolithic oracle, seeded
	// with the decomposition incumbent. Counted, never silent. Branch-and-
	// price usually improved the incumbent, so recompute the exclusions
	// first — a tighter incumbent proves more monitors out and shrinks the
	// oracle's search space.
	co.excl = co.lagrangianExclusions()
	return co.oracle()
}

func (co *coordinator) closed() bool {
	return relGap(co.bestLB, co.bestUB) <= co.cfg.GapTol
}

type dualPoint struct {
	lambda, bound float64
}

// lagrangianExclusions marks monitors provably absent from every solution
// that beats the incumbent. For any feasible x containing monitor m and any
// lambda >= 0, U(x) <= L(lambda) - lambda*cost(m) + gainUB(m), where
// gainUB(m) — the full contribution of every active data type m produces —
// bounds m's marginal utility. When that value drops below the incumbent at
// some evaluated lambda, no improving solution contains m: the branching
// space and the oracle shrink without touching optimality.
func (co *coordinator) lagrangianExclusions() []bool {
	if len(co.duals) == 0 {
		return nil
	}
	in := co.in
	tol := 1e-9 * (1 + math.Abs(co.bestLB))
	excl := make([]bool, in.idx.NumMonitors())
	n := 0
	for m := range in.idx.NumMonitors() {
		if in.fixed[m] || !co.relev[m] {
			continue
		}
		gain := 0.0
		for _, d := range in.idx.MonitorData(m) {
			if co.active[d] {
				gain += in.idx.Contribution(int(d))
			}
		}
		for _, dp := range co.duals {
			if dp.bound-dp.lambda*in.idx.MonitorCost(m)+gain < co.bestLB-tol {
				excl[m] = true
				n++
				break
			}
		}
	}
	co.stats.VariableFixings = n
	return excl
}

func (co *coordinator) recordGap() {
	co.stats.GapTrajectory = append(co.stats.GapTrajectory, relGap(co.bestLB, co.bestUB))
}

// maxDensity bounds the useful lambda range: above the best utility-per-cost
// density, no priced subproblem selects anything costly.
func (co *coordinator) maxDensity() float64 {
	in := co.in
	best := 0.0
	for m := range in.idx.NumMonitors() {
		if in.fixed[m] || !co.relev[m] || in.idx.MonitorCost(m) <= 1e-12 {
			continue
		}
		u := 0.0
		for _, d := range in.idx.MonitorData(m) {
			if co.active[d] {
				u += in.idx.Contribution(int(d))
			}
		}
		if r := u / in.idx.MonitorCost(m); r > best {
			best = r
		}
	}
	return best
}

// greedy is the lazy-evaluation cost-benefit heuristic: repeatedly add the
// monitor with the best marginal utility per unit cost that still fits.
func (co *coordinator) greedy() []bool {
	in := co.in
	sel := make([]bool, in.idx.NumMonitors())
	covered := make([]bool, in.idx.NumDataTypes())
	cover := func(m int) {
		sel[m] = true
		for _, d := range in.idx.MonitorData(m) {
			covered[d] = true
		}
	}
	for m, f := range in.fixed {
		if f {
			cover(m)
		}
	}
	gain := func(m int) float64 {
		g := 0.0
		for _, d := range in.idx.MonitorData(m) {
			if co.active[d] && !covered[d] {
				g += in.idx.Contribution(int(d))
			}
		}
		return g
	}
	h := &candHeap{}
	for m := range in.idx.NumMonitors() {
		if in.fixed[m] || !co.relev[m] {
			continue
		}
		heap.Push(h, scored{m, gain(m) / costOr1(in.idx.MonitorCost(m))})
	}
	remaining := co.budget
	for h.Len() > 0 {
		c := heap.Pop(h).(scored)
		if in.idx.MonitorCost(c.m) > remaining+1e-12 || sel[c.m] {
			continue
		}
		fresh := gain(c.m) / costOr1(in.idx.MonitorCost(c.m))
		if h.Len() > 0 && fresh < (*h)[0].score-1e-15 {
			heap.Push(h, scored{c.m, fresh}) // stale score: re-queue
			continue
		}
		if fresh <= 0 {
			break
		}
		cover(c.m)
		remaining -= in.idx.MonitorCost(c.m)
	}
	return sel
}

func costOr1(c float64) float64 {
	if c <= 1e-12 {
		return 1e-12
	}
	return c
}

type scored struct {
	m     int
	score float64
}

type candHeap []scored

func (h candHeap) Len() int            { return len(h) }
func (h candHeap) Less(a, b int) bool  { return h[a].score > h[b].score }
func (h candHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(scored)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// solveMaster solves the restricted master over the pooled columns: pick one
// plan per segment plus explicit cross-cut deployment variables, under the
// true budget. Its optimum is a feasible deployment — the strongest
// incumbent the pools support.
func (co *coordinator) solveMaster(fix map[int]int8) ([]bool, bool) {
	in := co.in
	prob := ilp.NewProblem(lp.Maximize)
	var budgetTerms []lp.Term

	// Explicit variables for cross-cut monitors used by any pooled plan.
	wOf := map[int]lp.VarID{}
	cutUse := map[int][]lp.Term{} // per cut monitor: plan terms needing it
	type col struct {
		seg, idx int
		v        lp.VarID
	}
	var cols []col
	for s := range co.pools {
		var convex []lp.Term
		for pi := range co.pools[s] {
			p := &co.pools[s][pi]
			if !planCompatible(p, fix, co, s) {
				continue
			}
			v, err := prob.AddBinaryVariable(fmt.Sprintf("y:%d:%d", s, pi), p.utility)
			if err != nil {
				return nil, false
			}
			cols = append(cols, col{s, pi, v})
			convex = append(convex, lp.Term{Var: v, Coeff: 1})
			if p.localCost > 0 {
				budgetTerms = append(budgetTerms, lp.Term{Var: v, Coeff: p.localCost})
			}
			for _, m := range p.cut {
				cutUse[m] = append(cutUse[m], lp.Term{Var: v, Coeff: 1})
			}
		}
		if len(convex) == 0 {
			return nil, false // no compatible plan for this segment
		}
		if _, err := prob.AddConstraint(fmt.Sprintf("pick:%d", s), convex, lp.EQ, 1); err != nil {
			return nil, false
		}
	}
	cutList := make([]int, 0, len(cutUse))
	for m := range cutUse {
		cutList = append(cutList, m)
	}
	sort.Ints(cutList)
	for _, m := range cutList {
		w, err := prob.AddBinaryVariable("w:"+strconv.Itoa(m), 0)
		if err != nil {
			return nil, false
		}
		wOf[m] = w
		if v, ok := fix[m]; ok {
			if err := prob.SetVariableBounds(w, float64(v), float64(v)); err != nil {
				return nil, false
			}
		}
		budgetTerms = append(budgetTerms, lp.Term{Var: w, Coeff: in.idx.MonitorCost(m)})
		terms := append(cutUse[m], lp.Term{Var: w, Coeff: float64(-len(cutUse[m]))})
		if _, err := prob.AddConstraint("use:"+strconv.Itoa(m), terms, lp.LE, 0); err != nil {
			return nil, false
		}
	}
	if _, err := prob.AddConstraint("budget", budgetTerms, lp.LE, co.budget); err != nil {
		return nil, false
	}

	sol, err := prob.Solve(append(co.cfg.solveOptions(co.workers), ilp.WithMaxNodes(20000))...)
	co.stats.MasterSolves++
	if err != nil || (sol.Status != ilp.StatusOptimal && sol.Status != ilp.StatusFeasible) {
		return nil, false
	}
	co.nodes += sol.Nodes
	co.lpIters += sol.LPIterations
	co.kernel.add(kernelOf(sol))

	sel := make([]bool, in.idx.NumMonitors())
	for m, f := range in.fixed {
		sel[m] = f
	}
	for _, c := range cols {
		if sol.Value(c.v) < 0.5 {
			continue
		}
		p := &co.pools[c.seg][c.idx]
		for _, m := range p.mons {
			if !contains(p.cut, m) {
				sel[m] = true
			}
		}
	}
	for m, w := range wOf {
		if sol.Value(w) > 0.5 {
			sel[m] = true
		}
	}
	return sel, true
}

// planCompatible rejects columns that contradict branch fixings on the
// segment's local monitors (cross-cut fixings ride on the w variables).
func planCompatible(p *plan, fix map[int]int8, co *coordinator, seg int) bool {
	if len(fix) == 0 {
		return true
	}
	for m, v := range fix {
		if co.segOf[m] != seg {
			continue
		}
		if (v == 1) != contains(p.mons, m) {
			return false
		}
	}
	return true
}

func contains(sorted []int, m int) bool {
	i := sort.SearchInts(sorted, m)
	return i < len(sorted) && sorted[i] == m
}

// branchAndPrice closes the remaining duality gap by branching on monitors
// the relaxation disagrees about, re-pricing each node at the incumbent
// lambda. Returns done=false when the node budget ran out with the gap
// still open (the oracle takes over).
func (co *coordinator) branchAndPrice() (ilp.Status, bool, bool) {
	type node struct {
		fix   map[int]int8
		bound float64
	}
	nodes := []node{{fix: nil, bound: co.bestUB}}
	pruneTol := func() float64 {
		b := co.bestLB
		if b < 0 {
			b = -b
		}
		if b < 1 {
			b = 1
		}
		return co.cfg.GapTol * b
	}
	openMax := 0.0
	startNodes := co.stats.BranchNodes
	lastLB, lastTop := co.bestLB, math.Inf(1)
	for len(nodes) > 0 {
		if cancelled(co.cfg.Ctx) {
			return ilp.StatusFeasible, true, true
		}
		if co.stats.BranchNodes >= co.cfg.MaxBranchNodes {
			return 0, false, false // oracle takes over
		}
		// Progress checkpoint: when neither the incumbent nor the best open
		// bound has moved across a whole window of nodes, the tree has
		// stalled on budget duality and the (exclusion-reduced) oracle
		// closes the gap faster than further branching.
		if expanded := co.stats.BranchNodes - startNodes; expanded > 0 && expanded%64 == 0 {
			top := co.bestLB
			for i := range nodes {
				if nodes[i].bound > top {
					top = nodes[i].bound
				}
			}
			progress := (co.bestLB - lastLB) + (lastTop - top)
			if progress < 0.1*(top-co.bestLB) {
				return 0, false, false // stalled: oracle takes over
			}
			lastLB, lastTop = co.bestLB, top
		}
		// Best-bound node first.
		bi := 0
		for i := range nodes {
			if nodes[i].bound > nodes[bi].bound {
				bi = i
			}
		}
		nd := nodes[bi]
		nodes = append(nodes[:bi], nodes[bi+1:]...)
		if nd.bound <= co.bestLB+pruneTol() {
			continue
		}
		co.stats.BranchNodes++

		evals, L, boundOK, charged, err := co.evaluate(co.lamHat, nd.fix)
		if err != nil {
			return 0, false, false
		}
		nodeUB := nd.bound
		if boundOK && L < nodeUB {
			nodeUB = L
		}
		co.unionIncumbent(evals)
		masterSel := co.masterIfGrown(nd.fix)
		if co.stats.BranchNodes%16 == 1 {
			co.recordGap()
		}
		if nodeUB <= co.bestLB+pruneTol() {
			continue // closed at the incumbent multiplier: skip the probe
		}
		// One subgradient refinement probe tightens kinked nodes.
		probe := co.lamHat * 0.8
		if charged > co.budget {
			probe = co.lamHat*1.25 + 1e-9
		}
		evals2, L2, boundOK2, _, err := co.evaluate(probe, nd.fix)
		if err != nil {
			return 0, false, false
		}
		if boundOK2 && L2 < nodeUB {
			nodeUB, evals = L2, evals2
		}
		co.unionIncumbent(evals2)
		if nodeUB <= co.bestLB+pruneTol() {
			continue // node closed
		}
		m := co.pickBranch(evals, masterSel, nd.fix)
		if m < 0 {
			// The relaxation is self-consistent yet the gap is open: pure
			// budget duality this branching cannot cut. Track the open bound
			// and let the oracle close it.
			if nodeUB > openMax {
				openMax = nodeUB
			}
			continue
		}
		for _, v := range []int8{1, 0} {
			child := make(map[int]int8, len(nd.fix)+1)
			for k, val := range nd.fix {
				child[k] = val
			}
			child[m] = v
			nodes = append(nodes, node{fix: child, bound: nodeUB})
		}
	}
	if openMax > co.bestLB+pruneTol() {
		return 0, false, false // stuck nodes remain: oracle
	}
	// Every node closed: the incumbent is optimal within GapTol.
	co.bestUB = co.bestLB
	return ilp.StatusOptimal, false, true
}

// pickBranch selects the branching monitor: first a cross-cut monitor whose
// segment copies disagree, then a monitor where the master and the priced
// plans disagree; the costliest such monitor in either case.
func (co *coordinator) pickBranch(evals []segEval, masterSel []bool, fix map[int]int8) int {
	in := co.in
	chosen := make(map[int]int, in.idx.NumMonitors()) // monitor -> copies selecting it
	copies := make(map[int]int, in.idx.NumMonitors()) // monitor -> copies existing
	planSel := make([]bool, in.idx.NumMonitors())
	for i := range evals {
		sg := co.segs[i]
		for j, m := range sg.mons {
			if !sg.isCut[j] || in.fixed[m] {
				continue
			}
			copies[m]++
			if contains(evals[i].plan.mons, m) {
				chosen[m]++
			}
		}
		for _, m := range evals[i].plan.mons {
			planSel[m] = true
		}
	}
	// Monitors proven out of every improving solution are dead branching
	// weight: the include child prunes immediately.
	skip := func(m int) bool { return co.excl != nil && co.excl[m] }
	best, bestCost := -1, 0.0
	for m, n := range copies {
		if _, fixed := fix[m]; fixed || skip(m) {
			continue
		}
		if chosen[m] > 0 && chosen[m] < n && in.idx.MonitorCost(m) > bestCost {
			best, bestCost = m, in.idx.MonitorCost(m)
		}
	}
	if best >= 0 {
		return best
	}
	if masterSel != nil {
		for m := range in.idx.NumMonitors() {
			if _, fixed := fix[m]; fixed || in.fixed[m] || skip(m) {
				continue
			}
			if masterSel[m] != planSel[m] && in.idx.MonitorCost(m) > bestCost {
				best, bestCost = m, in.idx.MonitorCost(m)
			}
		}
	}
	if best >= 0 {
		return best
	}
	// Pure budget duality: the copies and the master agree yet the bound is
	// open. Branch on the costliest monitor the priced plans selected — the
	// overflow candidate of the knapsack kink. Fixing it either way cuts the
	// relaxed optimum away from the fractional point, so the Lagrangian bound
	// tightens down the tree and the search terminates without the oracle.
	for m := range in.idx.NumMonitors() {
		if _, fixed := fix[m]; fixed || in.fixed[m] || skip(m) {
			continue
		}
		if planSel[m] && in.idx.MonitorCost(m) > bestCost {
			best, bestCost = m, in.idx.MonitorCost(m)
		}
	}
	return best
}

// oracle is the monolithic exact fallback: the full compact formulation
// restricted by the Lagrangian exclusions, seeded with the decomposition
// incumbent so the proof usually reduces to bound closing. Excluded monitors
// appear in no solution better than the incumbent, so the reduced optimum
// combined with the incumbent is the global optimum.
func (co *coordinator) oracle() (*Result, error) {
	in := co.in
	co.stats.OracleFallbacks++
	prob := ilp.NewProblem(lp.Maximize)
	xv := make([]lp.VarID, in.idx.NumMonitors())
	var budgetTerms []lp.Term
	for m := range xv {
		v, err := prob.AddBinaryVariable("x:"+string(in.idx.MonitorAt(m)), 0)
		if err != nil {
			return nil, err
		}
		prob.SetBranchPriority(v, 1)
		xv[m] = v
		if co.excl != nil && co.excl[m] {
			if err := prob.SetVariableBounds(v, 0, 0); err != nil {
				return nil, err
			}
			continue
		}
		if in.fixed[m] {
			if err := prob.SetVariableBounds(v, 1, 1); err != nil {
				return nil, err
			}
			continue
		}
		budgetTerms = append(budgetTerms, lp.Term{Var: v, Coeff: in.idx.MonitorCost(m)})
	}
	if _, err := prob.AddConstraint("budget", budgetTerms, lp.LE, co.budget); err != nil {
		return nil, err
	}
	var zData []int
	for d := range in.idx.NumDataTypes() {
		if !co.active[d] {
			continue
		}
		z, err := prob.AddVariable("z:"+string(in.idx.DataTypeAt(d)), 0, 1, in.idx.Contribution(d))
		if err != nil {
			return nil, err
		}
		zData = append(zData, d)
		terms := []lp.Term{{Var: z, Coeff: 1}}
		for _, p := range in.idx.DataProducers(d) {
			terms = append(terms, lp.Term{Var: xv[p], Coeff: -1})
		}
		if _, err := prob.AddConstraint("link:"+string(in.idx.DataTypeAt(d)), terms, lp.LE, 0); err != nil {
			return nil, err
		}
	}
	opts := co.cfg.solveOptions(co.workers)
	if co.bestSel != nil {
		// The seed must respect the exclusion bounds; an incumbent can carry
		// a provably useless monitor (greedy leftovers), so strip those.
		seedSel := make([]bool, in.idx.NumMonitors())
		for m, on := range co.bestSel {
			seedSel[m] = on && !(co.excl != nil && co.excl[m])
		}
		seed := make([]float64, in.idx.NumMonitors()+len(zData))
		for m, on := range seedSel {
			if on {
				seed[m] = 1
			}
		}
		for zi, d := range zData {
			for _, p := range in.idx.DataProducers(d) {
				if seedSel[p] {
					seed[in.idx.NumMonitors()+zi] = 1
					break
				}
			}
		}
		opts = append(opts, ilp.WithIncumbent(seed))
	}
	sol, err := prob.Solve(opts...)
	if err != nil {
		return nil, err
	}
	co.nodes += sol.Nodes
	co.lpIters += sol.LPIterations
	co.kernel.add(kernelOf(sol))
	switch sol.Status {
	case ilp.StatusOptimal, ilp.StatusFeasible:
		// The reduced problem can score below an incumbent that used
		// excluded monitors; solutions through the excluded region are
		// strictly worse than that incumbent, so the global bound is the
		// reduced bound lifted to at least the incumbent.
		if sol.Objective > co.bestLB {
			sel := make([]bool, in.idx.NumMonitors())
			for m := range in.idx.NumMonitors() {
				sel[m] = sol.Value(xv[m]) > 0.5
			}
			co.bestLB = sol.Objective
			co.bestSel = sel
		}
		if sol.BoundKnown {
			ub := sol.BestBound
			if ub < co.bestLB {
				ub = co.bestLB
			}
			if ub < co.bestUB {
				co.bestUB = ub
			}
		}
		co.recordGap()
		return co.finish(sol.Status, sol.Interrupted), nil
	default:
		// Interrupted before the (validated) seed registered; fall back to
		// the decomposition incumbent.
		return co.finish(ilp.StatusFeasible, true), nil
	}
}

func (co *coordinator) finish(status ilp.Status, interrupted bool) *Result {
	sel := co.bestSel
	if sel == nil {
		sel = append([]bool(nil), co.in.fixed...)
		co.bestLB = co.in.utilityOf(sel)
	}
	if status == ilp.StatusOptimal {
		co.bestUB = co.bestLB
	}
	co.stats.FinalGap = relGap(co.bestLB, co.bestUB)
	return &Result{
		Monitors:     co.in.selection(sel),
		Objective:    co.bestLB,
		Status:       status,
		BestBound:    co.bestUB,
		BoundKnown:   true,
		Gap:          co.stats.FinalGap,
		Interrupted:  interrupted,
		ShadowPrice:  co.lamHat,
		Nodes:        co.nodes,
		LPIterations: co.lpIters,
		Elapsed:      time.Since(co.start),
		Kernel:       co.kernel,
		Stats:        co.stats,
	}
}

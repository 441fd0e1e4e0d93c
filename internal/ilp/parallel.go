package ilp

import (
	"container/heap"
	"fmt"
	"math"
	"sync"
	"time"

	"secmon/internal/lp"
)

// parallelSearch runs the exact best-first branch-and-bound across a worker
// pool. The frontier is a single best-first heap guarded by a mutex: node
// processing is dominated by the LP relaxation solve (microseconds to
// milliseconds), so frontier contention is negligible and a sharded
// work-stealing structure would buy nothing. Each worker owns a private
// clone of the working problem and a private simplex workspace; incumbents
// and bounds are published through the shared state so every worker prunes
// against the global best.
//
// Exactness: a node is only discarded when its relaxation bound cannot beat
// the shared incumbent (the same rule as the sequential search), and the
// search terminates only when the frontier is empty AND no node is
// in-flight — an in-flight node may still publish children or a better
// incumbent. The proven optimal objective therefore equals the sequential
// solver's. Exploration ORDER depends on scheduling, so among
// equally-optimal solutions the returned vector may differ; incumbent
// publication breaks exact objective ties lexicographically to keep the
// result as stable as cheaply possible.
type parallelSearch struct {
	prob     *Problem
	cfg      options
	workers  int
	maximize bool
	started  time.Time
	prep     *rootPrep

	mu          sync.Mutex
	cond        *sync.Cond
	open        nodeHeap
	inFlight    int  // nodes popped but not yet fully expanded
	seq         int  // node insertion counter (heap tie-break)
	nodes       int  // global solved-node count, for WithMaxNodes
	checks      int  // limit-check sampling counter
	limited     bool // node or time budget exhausted
	interrupted bool // the stop was a context cancellation or deadline
	unbound     bool // root relaxation unbounded
	failure     error

	hasInc    bool
	incObj    float64 // maximize form
	incumbent []float64

	rootObjective float64
	rootDuals     []float64

	// Shared pseudo-cost tables under their own lock: they only steer
	// branching-variable choice, never pruning, so cross-worker timing
	// cannot affect exactness.
	pcMu               sync.Mutex
	pcDownSum, pcUpSum []float64
	pcDownN, pcUpN     []int

	stats []WorkerStats
	// Warm/cold iteration totals, merged under mu as each worker exits.
	warmIters, coldSolves, coldIters int
	kstats                           kernelStats
}

// pworker is one branch-and-bound worker: a private problem clone, a
// private reusable simplex workspace, and private effort counters.
type pworker struct {
	id       int
	ps       *parallelSearch
	work     *lp.Problem
	lpOpts   []lp.Option
	warmOpts []lp.Option // lpOpts with a WithWarmStart slot appended
	bsc      *boundScratch

	nodes   int
	lpIters int

	warmAttempts, warmHits, warmIts int
	coldSolves, coldIts             int
	kstats                          kernelStats
}

func newParallelSearch(p *Problem, cfg options, workers int, started time.Time) *parallelSearch {
	ps := &parallelSearch{
		prob:     p,
		cfg:      cfg,
		workers:  workers,
		maximize: p.lp.Sense() == lp.Maximize,
		started:  started,
	}
	ps.cond = sync.NewCond(&ps.mu)
	return ps
}

// run continues the branch-and-bound below an already-processed root: the
// prep's two children seed the shared frontier and the workers race over it.
func (ps *parallelSearch) run(pr *rootPrep) (*Solution, error) {
	ps.prep = pr
	ps.nodes = pr.nodes
	ps.stats = make([]WorkerStats, ps.workers)
	ps.rootObjective = pr.rootObjective
	ps.rootDuals = pr.rootDuals
	if pr.hasInc {
		ps.hasInc, ps.incObj, ps.incumbent = true, pr.incObj, pr.incumbent
	}
	if pr.unbounded {
		ps.unbound = true
		return ps.assemble(), nil
	}
	if pr.limited {
		ps.limited = true
		ps.interrupted = pr.interrupted
		return ps.assemble(), nil
	}

	nInt := len(ps.prob.integer)
	ps.pcDownSum = make([]float64, nInt)
	ps.pcUpSum = make([]float64, nInt)
	ps.pcDownN = make([]int, nInt)
	ps.pcUpN = make([]int, nInt)

	ps.seq = 1 // the root consumed the first sequence number in prep
	ps.open = nodeHeap{}
	heap.Init(&ps.open)
	if pr.branchVar >= 0 {
		root := &node{lo: pr.lo, hi: pr.hi, bound: pr.bound, depth: 0,
			seq: 1, branchedVar: -1, basis: pr.basis,
			certDual: ps.cfg.cert.rootDual()}
		ps.pushChildren(root, pr.branchVar, pr.frac, pr.bound)
	}
	if len(ps.open) == 0 {
		return ps.assemble(), nil // decided at the root: nothing to search
	}

	var wg sync.WaitGroup
	for w := 0; w < ps.workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ps.runWorker(id)
		}(w)
	}
	wg.Wait()

	if ps.failure != nil {
		return nil, ps.failure
	}
	return ps.assemble(), nil
}

func (ps *parallelSearch) runWorker(id int) {
	w := &pworker{
		id:     id,
		ps:     ps,
		work:   ps.prep.work.Clone(), // includes any root cut rows
		lpOpts: append(append([]lp.Option{}, ps.cfg.lpOptions...), lp.WithWorkspace(lp.NewWorkspace())),
		bsc:    newBoundScratch(len(ps.prob.integer)),
	}
	if ps.cfg.cert == nil {
		// Same reasoning as the sequential search: node solutions are
		// consumed before the next solve on this worker's workspace, and
		// certified solves (which retain node duals) are excluded.
		w.lpOpts = append(w.lpOpts, lp.WithVolatileSolution())
	}
	w.warmOpts = append(append([]lp.Option{}, w.lpOpts...), lp.WithWarmStart(nil))
	for {
		nd, ok := ps.acquire()
		if !ok {
			break
		}
		err := w.process(nd)
		if isInterrupted(err) {
			// The node's LP relaxation was cut short, so nothing about the
			// node was proven. Return it to the frontier so its inherited
			// bound stays in the open set: the reported BestBound must
			// cover every unresolved node to remain a sound bound.
			ps.interruptNode(nd)
			err = nil
		}
		ps.release(err)
	}
	ps.mu.Lock()
	ps.stats[id] = WorkerStats{
		Nodes: w.nodes, LPIterations: w.lpIters,
		WarmAttempts: w.warmAttempts, WarmHits: w.warmHits,
	}
	ps.warmIters += w.warmIts
	ps.coldSolves += w.coldSolves
	ps.coldIters += w.coldIts
	ps.kstats.merge(w.kstats)
	ps.mu.Unlock()
}

// acquire pops the best open node, pruning stale entries against the
// current incumbent, and blocks while the frontier is empty but other
// workers may still publish children. It returns ok=false when the search
// is over: frontier exhausted, a limit hit, unboundedness proven, or a
// worker failed.
func (ps *parallelSearch) acquire() (*node, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for {
		if ps.failure != nil || ps.unbound || ps.limited {
			return nil, false
		}
		if ps.limitReachedLocked() {
			ps.limited = true
			ps.cond.Broadcast()
			return nil, false
		}
		if len(ps.open) > 0 {
			nd := heap.Pop(&ps.open).(*node)
			// A node whose inherited bound cannot beat the incumbent is
			// pruned without an LP solve.
			if ps.hasInc && nd.bound <= ps.incObj+pruneSlackFor(&ps.cfg, ps.incObj) {
				certLeafBound(ps.cfg.cert, nd)
				continue
			}
			ps.inFlight++
			return nd, true
		}
		if ps.inFlight == 0 {
			ps.cond.Broadcast() // search exhausted: wake idle workers to exit
			return nil, false
		}
		ps.cond.Wait()
	}
}

// release retires an in-flight node and wakes waiters: either new children
// were pushed, or this was the last in-flight node and the search is over.
func (ps *parallelSearch) release(err error) {
	ps.mu.Lock()
	ps.inFlight--
	if err != nil && ps.failure == nil {
		ps.failure = err
	}
	ps.cond.Broadcast()
	ps.mu.Unlock()
}

// interruptNode returns a node whose expansion was cut short by a context
// stop to the frontier and halts the search. Repushing keeps the node's
// inherited bound visible to assemble's BestBound computation.
func (ps *parallelSearch) interruptNode(nd *node) {
	ps.mu.Lock()
	ps.limited = true
	ps.interrupted = true
	heap.Push(&ps.open, nd)
	ps.cond.Broadcast()
	ps.mu.Unlock()
}

// limitReachedLocked mirrors the sequential limitReached: the context is
// polled every check, the node budget is exact, the wall clock is sampled
// every timeCheckInterval checks (with the first check always reading the
// clock). Callers hold ps.mu.
func (ps *parallelSearch) limitReachedLocked() bool {
	if ps.cfg.ctxErr() != nil {
		ps.interrupted = true
		return true
	}
	if ps.nodes >= ps.cfg.maxNodes {
		return true
	}
	if ps.cfg.timeLimit <= 0 {
		return false
	}
	n := ps.checks
	ps.checks++
	if n%timeCheckInterval != 0 {
		return false
	}
	return time.Since(ps.started) > ps.cfg.timeLimit
}

// incumbentView snapshots the shared incumbent objective.
func (ps *parallelSearch) incumbentView() (bool, float64) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.hasInc, ps.incObj
}

// offerIncumbent publishes a snapped integer point if it improves on the
// shared incumbent. Exact objective ties are broken towards the
// lexicographically smaller vector so equally-optimal races resolve
// deterministically whenever both candidates are actually offered.
func (ps *parallelSearch) offerIncumbent(work *lp.Problem, x []float64) {
	snapped, obj := snapObjective(work, ps.prob.integer, x)
	objMax := toMaxForm(ps.maximize, obj)
	ps.mu.Lock()
	if !ps.hasInc || objMax > ps.incObj ||
		(objMax == ps.incObj && lexLess(snapped, ps.incumbent)) {
		ps.hasInc = true
		ps.incObj = objMax
		ps.incumbent = snapped
		ps.cfg.cert.observeInc(objMax)
	}
	ps.mu.Unlock()
}

func lexLess(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// observePseudoCost mirrors search.observePseudoCost under the pc lock.
func (ps *parallelSearch) observePseudoCost(nd *node, childBound float64) {
	if nd.branchedVar < 0 || math.IsInf(nd.bound, 0) {
		return
	}
	drop := nd.bound - childBound
	if drop < 0 {
		drop = 0
	}
	ps.pcMu.Lock()
	defer ps.pcMu.Unlock()
	if nd.branchedUp {
		f := 1 - nd.branchedFrac
		if f > 1e-9 {
			ps.pcUpSum[nd.branchedVar] += drop / f
			ps.pcUpN[nd.branchedVar]++
		}
		return
	}
	if nd.branchedFrac > 1e-9 {
		ps.pcDownSum[nd.branchedVar] += drop / nd.branchedFrac
		ps.pcDownN[nd.branchedVar]++
	}
}

func (ps *parallelSearch) pseudoCost(k int) (down, up float64) {
	ps.pcMu.Lock()
	defer ps.pcMu.Unlock()
	return pcAverage(ps.pcDownSum, ps.pcDownN, k), pcAverage(ps.pcUpSum, ps.pcUpN, k)
}

// pushChildren creates and publishes the floor/ceil children of a branched
// node. Sequence numbers are assigned under the lock, pushing the preferred
// (nearest-rounding) child last so the frontier tie-break plunges into it
// first, exactly like the sequential search.
func (ps *parallelSearch) pushChildren(parent *node, k int, frac, bound float64) {
	// Safe without ps.mu: the collector has its own lock and never
	// acquires the search's, so no ordering cycle is possible.
	down, up := makeChildren(parent, k, frac, bound, ps.cfg.cert)
	fracPart := frac - math.Floor(frac)
	down.branchedVar, down.branchedUp, down.branchedFrac = k, false, fracPart
	up.branchedVar, up.branchedUp, up.branchedFrac = k, true, fracPart

	first, second := up, down
	if fracPart > 0.5 {
		first, second = down, up
	}
	ps.mu.Lock()
	ps.seq++
	first.seq = ps.seq
	heap.Push(&ps.open, first)
	ps.seq++
	second.seq = ps.seq
	heap.Push(&ps.open, second)
	ps.cond.Broadcast()
	ps.mu.Unlock()
}

// solveRelaxation solves the node's LP relaxation on the worker's private
// problem clone and workspace, warm-starting from the node's parent basis
// when one is available (basis snapshots are immutable and shared across
// workers; each worker restores them into its own workspace).
func (w *pworker) solveRelaxation(nd *node) (*lp.Solution, error) {
	if err := applyNodeBounds(w.work, w.ps.prob.integer, nd, w.bsc); err != nil {
		return nil, err
	}
	opts := w.lpOpts
	if !w.ps.cfg.noWarm {
		w.warmOpts[len(w.warmOpts)-1] = lp.WithWarmStart(nd.basis)
		opts = w.warmOpts
		if nd.basis != nil {
			w.warmAttempts++
		}
	}
	sol, err := w.work.Solve(opts...)
	if err != nil {
		return nil, fmt.Errorf("ilp: relaxation: %w", err)
	}
	w.lpIters += sol.Iterations
	w.kstats.add(sol)
	if sol.Warm {
		w.warmHits++
		w.warmIts += sol.Iterations
	} else {
		w.coldSolves++
		w.coldIts += sol.Iterations
	}
	return sol, nil
}

// process expands one node: solve its relaxation, prune or publish an
// incumbent, dive when incumbent-less, and branch. It mirrors the body of
// the sequential search loop.
func (w *pworker) process(nd *node) error {
	ps := w.ps
	sol, err := w.solveRelaxation(nd)
	if err != nil {
		return err
	}
	w.nodes++
	ps.mu.Lock()
	ps.nodes++
	ps.mu.Unlock()

	switch sol.Status {
	case lp.StatusInfeasible:
		certLeafInfeasible(ps.cfg.cert, nd)
		return nil
	case lp.StatusUnbounded:
		// The root (handled in prepareRoot) is bounded, and bounded
		// parents cannot spawn unbounded children; treat as a numerical
		// failure.
		return fmt.Errorf("ilp: child relaxation unbounded: %w", lp.ErrNumerical)
	case lp.StatusIterationLimit:
		return fmt.Errorf("ilp: LP relaxation hit its iteration limit")
	}
	if c := ps.cfg.cert; c != nil {
		// The node's own duals now justify its bound (and its children's,
		// until they are solved themselves).
		nd.certDual = c.addDual(sol.DualValues)
	}

	bound := toMaxForm(ps.maximize, sol.Objective)
	ps.observePseudoCost(nd, bound)
	hasInc, incObj := ps.incumbentView()
	if hasInc && bound <= incObj+pruneSlackFor(&ps.cfg, incObj) {
		certLeafBound(ps.cfg.cert, nd)
		return nil
	}

	branchVar := pickBranch(ps.prob, &ps.cfg, sol.X, ps.pseudoCost)
	if branchVar < 0 {
		// Integral: publish a new incumbent.
		ps.offerIncumbent(w.work, sol.X)
		certLeafBound(ps.cfg.cert, nd)
		return nil
	}

	// This node's optimal basis warm-starts its children and dives.
	nd.basis = sol.Basis
	// Read the branch value now: sol may be a volatile solution whose
	// backing arrays the dive's re-solves recycle.
	frac := sol.X[ps.prob.integer[branchVar]]

	// Dive until a first incumbent exists: without one, best-first cannot
	// prune and degrades into breadth-first over bound plateaus. (The root
	// dive already ran in prepareRoot.)
	if !ps.cfg.disableDive && !hasInc {
		offer := func(x []float64) { ps.offerIncumbent(w.work, x) }
		if err := diveFrom(ps.prob, &ps.cfg, nd, sol.X, w.solveRelaxation, offer); err != nil {
			return err
		}
		if h, inc := ps.incumbentView(); h && bound <= inc+pruneSlackFor(&ps.cfg, inc) {
			certLeafBound(ps.cfg.cert, nd)
			return nil
		}
	}

	ps.pushChildren(nd, branchVar, frac, bound)
	return nil
}

// assemble builds the Solution after all workers have stopped. No locks are
// needed: run has already joined every worker goroutine. The root-prep
// effort (the root node itself, cuts, dive) is credited to worker 0 so the
// per-worker stats still sum to the solution totals.
func (ps *parallelSearch) assemble() *Solution {
	pr := ps.prep
	ps.stats[0].Nodes += pr.nodes
	ps.stats[0].LPIterations += pr.lpIters
	ps.stats[0].WarmAttempts += pr.warmAttempts
	ps.stats[0].WarmHits += pr.warmHits
	lpIters := 0
	warmAttempts, warmHits := 0, 0
	for _, st := range ps.stats {
		lpIters += st.LPIterations
		warmAttempts += st.WarmAttempts
		warmHits += st.WarmHits
	}
	sol := &Solution{
		Nodes:                    ps.nodes,
		LPIterations:             lpIters,
		Elapsed:                  time.Since(ps.started),
		RootObjective:            ps.rootObjective,
		RootDuals:                ps.rootDuals,
		Workers:                  ps.workers,
		PerWorker:                ps.stats,
		WarmAttempts:             warmAttempts,
		WarmHits:                 warmHits,
		WarmIterations:           ps.warmIters + pr.warmIters,
		ColdIterations:           ps.coldIters + pr.coldIters,
		ColdSolves:               ps.coldSolves + pr.coldSolves,
		PresolveFixed:            pr.presolveFixed,
		PresolveTightened:        pr.presolveTightened,
		CutsAdded:                pr.cutsAdded,
		CutsActive:               pr.cutsActive,
		Etas:                     ps.kstats.etas + pr.kstats.etas,
		Refactorizations:         ps.kstats.refactorizations + pr.kstats.refactorizations,
		DevexResets:              ps.kstats.devexResets + pr.kstats.devexResets,
		Updates:                  ps.kstats.updates + pr.kstats.updates,
		BoundFlips:               ps.kstats.boundFlips + pr.kstats.boundFlips,
		AdaptiveRefactorizations: ps.kstats.adaptiveRefacs + pr.kstats.adaptiveRefacs,
		FactorNnz:                max(ps.kstats.factorNnz, pr.kstats.factorNnz),
		KernelFallbacks:          ps.kstats.kernelFallbacks + pr.kstats.kernelFallbacks,
		RootBasis:                pr.basis,
	}
	sol.Interrupted = ps.interrupted
	if ps.hasInc {
		sol.X = ps.incumbent
		sol.Objective = fromMaxForm(ps.maximize, ps.incObj)
		sol.BestBound = sol.Objective
		sol.BoundKnown = true
	}
	switch {
	case ps.unbound:
		sol.Status = StatusUnbounded
	case ps.limited:
		sol.Status = stopStatus(ps.hasInc, ps.interrupted)
		bound := bestOpenBound(&ps.open)
		if math.IsInf(bound, -1) && pr.nodes > 0 {
			// Stopped with an empty frontier (e.g. during root prep): the
			// root relaxation is still a proven bound.
			bound = pr.bound
		}
		if math.IsInf(bound, 0) {
			// Stopped before the root proved anything (possible with a seeded
			// incumbent): the incumbent objective is not a proving-side bound,
			// so the check reads the open bound before the incumbent joins it.
			sol.BestBound = 0
			sol.BoundKnown = false
		} else {
			if ps.hasInc && ps.incObj > bound {
				bound = ps.incObj
			}
			sol.BestBound = fromMaxForm(ps.maximize, bound)
			sol.BoundKnown = true
			if ps.hasInc {
				sol.Gap = math.Abs(bound-ps.incObj) / math.Max(1, math.Abs(ps.incObj))
			}
		}
	case ps.hasInc:
		sol.Status = StatusOptimal
	default:
		sol.Status = StatusInfeasible
	}
	if c := ps.cfg.cert; c != nil {
		sol.Certificate, sol.CertificateNote = c.finalize(sol.Status, ps.hasInc, ps.incumbent, ps.incObj)
	}
	return sol
}

func fromMaxForm(maximize bool, obj float64) float64 {
	if maximize {
		return obj
	}
	return -obj
}

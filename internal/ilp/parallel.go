package ilp

import (
	"container/heap"
	"fmt"
	"math"
	"sync"
	"time"

	"secmon/internal/lp"
)

// search runs the exact best-first branch-and-bound below a processed root,
// across one or more workers. The frontier is a single best-first heap
// guarded by a mutex: node processing is dominated by the LP relaxation
// solve (microseconds to milliseconds), so frontier contention is negligible
// and a sharded work-stealing structure would buy nothing. Incumbents and
// bounds are published through the shared state so every worker prunes
// against the global best.
//
// Worker 0 runs on the calling goroutine, on the root prep's own problem and
// simplex workspace, so the first child re-solves against the primed root
// factorization and a WithWorkspace workspace keeps serving the tree. A
// one-worker solve therefore starts no goroutine, clones nothing, and is
// fully deterministic. Each further worker runs on its own goroutine with a
// private clone of the problem and a private workspace.
//
// Exactness: a node is only discarded when its relaxation bound cannot beat
// the shared incumbent, and the search terminates only when the frontier is
// empty AND no node is in-flight — an in-flight node may still publish
// children or a better incumbent. The proven optimal objective therefore
// does not depend on the worker count. With more than one worker the
// exploration ORDER depends on scheduling, so among equally-optimal
// solutions the returned vector may differ; incumbent publication breaks
// exact objective ties lexicographically to keep the result as stable as
// cheaply possible.
type search struct {
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

	// Shared pseudo-cost tables under their own lock: they only steer
	// branching-variable choice, never pruning, so cross-worker timing
	// cannot affect exactness.
	pcMu               sync.Mutex
	pcDownSum, pcUpSum []float64
	pcDownN, pcUpN     []int

	pool []*worker // nil when the solve ended at the root
}

// worker is one branch-and-bound worker: a problem, a reusable simplex
// workspace, and private effort counters.
type worker struct {
	s        *search
	work     *lp.Problem
	ws       *lp.Workspace
	warmOpts []lp.Option // LP options with a WithWarmStart slot last
	bsc      *boundScratch
	effort
}

func newSearch(p *Problem, cfg options, workers int, started time.Time) *search {
	s := &search{
		prob:     p,
		cfg:      cfg,
		workers:  workers,
		maximize: p.lp.Sense() == lp.Maximize,
		started:  started,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// run continues the branch-and-bound below an already-processed root: the
// prep's two children seed the shared frontier and the workers race over it.
func (s *search) run(pr *rootPrep) (*Solution, error) {
	s.prep = pr
	s.nodes = pr.nodes
	if pr.hasInc {
		s.hasInc, s.incObj, s.incumbent = true, pr.incObj, pr.incumbent
	}
	if pr.unbounded {
		s.unbound = true
		return s.assemble(), nil
	}
	if pr.limited {
		s.limited = true
		s.interrupted = pr.interrupted
		return s.assemble(), nil
	}

	nInt := len(s.prob.integer)
	s.pcDownSum = make([]float64, nInt)
	s.pcUpSum = make([]float64, nInt)
	s.pcDownN = make([]int, nInt)
	s.pcUpN = make([]int, nInt)

	s.seq = 1 // the root consumed the first sequence number in prep
	s.open = nodeHeap{}
	if pr.branchVar >= 0 {
		root := &node{lo: pr.lo, hi: pr.hi, bound: pr.bound, depth: 0,
			seq: 1, branchedVar: -1, basis: pr.basis,
			certDual: s.cfg.cert.rootDual()}
		s.pushChildren(root, pr.branchVar, pr.frac, pr.bound)
	}
	if len(s.open) == 0 {
		return s.assemble(), nil // decided at the root: nothing to search
	}

	// Every clone of pr.work is taken before worker 0 starts mutating it.
	s.pool = make([]*worker, s.workers)
	for id := range s.pool {
		work, ws := pr.work, pr.ws
		if id > 0 {
			work, ws = pr.work.Clone(), lp.NewWorkspace() // clones carry any root cut rows and the root's LP kernel choice
		}
		s.pool[id] = s.newWorker(work, ws)
	}
	var wg sync.WaitGroup
	for _, w := range s.pool[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run()
		}()
	}
	s.pool[0].run()
	wg.Wait()

	if s.failure != nil {
		return nil, s.failure
	}
	return s.assemble(), nil
}

func (s *search) newWorker(work *lp.Problem, ws *lp.Workspace) *worker {
	w := &worker{s: s, work: work, ws: ws, bsc: newBoundScratch(len(s.prob.integer))}
	w.warmOpts = append(append([]lp.Option{}, s.cfg.lpOptions...), lp.WithWorkspace(ws))
	if s.cfg.cert == nil {
		// Node relaxation solutions are consumed before the next solve on
		// this worker's workspace (branch value, incumbent snap, basis
		// capture), so let the LP kernel recycle the result storage.
		// Certified solves are excluded: the collector retains node duals.
		w.warmOpts = append(w.warmOpts, lp.WithVolatileSolution())
	}
	w.warmOpts = append(w.warmOpts, lp.WithWarmStart(nil))
	return w
}

// run expands nodes until the search is over.
func (w *worker) run() {
	s := w.s
	for {
		nd, ok := s.acquire()
		if !ok {
			return
		}
		err := w.process(nd)
		if isInterrupted(err) {
			// The node's LP relaxation was cut short, so nothing about the
			// node was proven. Return it to the frontier so its inherited
			// bound stays in the open set: the reported BestBound must
			// cover every unresolved node to remain a sound bound.
			s.interruptNode(nd)
			err = nil
		}
		s.release(err)
	}
}

// acquire pops the best open node, pruning stale entries against the
// current incumbent, and blocks while the frontier is empty but other
// workers may still publish children. It returns ok=false when the search
// is over: frontier exhausted, a limit hit, unboundedness proven, or a
// worker failed.
func (s *search) acquire() (*node, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.failure != nil || s.unbound || s.limited {
			return nil, false
		}
		if s.limitReachedLocked() {
			s.limited = true
			s.cond.Broadcast()
			return nil, false
		}
		if len(s.open) > 0 {
			nd := heap.Pop(&s.open).(*node)
			// A node whose inherited bound cannot beat the incumbent is
			// pruned without an LP solve.
			if s.hasInc && nd.bound <= s.incObj+pruneSlackFor(&s.cfg, s.incObj) {
				certLeafBound(s.cfg.cert, nd)
				continue
			}
			s.inFlight++
			return nd, true
		}
		if s.inFlight == 0 {
			s.cond.Broadcast() // search exhausted: wake idle workers to exit
			return nil, false
		}
		s.cond.Wait()
	}
}

// release retires an in-flight node and wakes waiters: either new children
// were pushed, or this was the last in-flight node and the search is over.
func (s *search) release(err error) {
	s.mu.Lock()
	s.inFlight--
	if err != nil && s.failure == nil {
		s.failure = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// interruptNode returns a node whose expansion was cut short by a context
// stop to the frontier and halts the search. Repushing keeps the node's
// inherited bound visible to assemble's BestBound computation.
func (s *search) interruptNode(nd *node) {
	s.mu.Lock()
	s.limited = true
	s.interrupted = true
	heap.Push(&s.open, nd)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// timeCheckInterval is how many limit checks elapse between wall-clock
// reads: time.Since on every node is measurable against sub-millisecond LP
// solves. The very first check (counter zero) always reads the clock, so a
// tiny limit still stops the solve before any work.
const timeCheckInterval = 64

// limitReachedLocked reports whether the search must stop: the context is
// polled every check, the node budget is exact, the wall clock is sampled
// every timeCheckInterval checks (with the first check always reading the
// clock). Callers hold s.mu.
func (s *search) limitReachedLocked() bool {
	if s.cfg.ctxErr() != nil {
		s.interrupted = true
		return true
	}
	if s.nodes >= s.cfg.maxNodes {
		return true
	}
	if s.cfg.timeLimit <= 0 {
		return false
	}
	n := s.checks
	s.checks++
	if n%timeCheckInterval != 0 {
		return false
	}
	return time.Since(s.started) > s.cfg.timeLimit
}

// incumbentView snapshots the shared incumbent objective.
func (s *search) incumbentView() (bool, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hasInc, s.incObj
}

// offerIncumbent publishes a snapped integer point if it improves on the
// shared incumbent. Exact objective ties are broken towards the
// lexicographically smaller vector so equally-optimal races resolve
// deterministically whenever both candidates are actually offered.
func (s *search) offerIncumbent(work *lp.Problem, x []float64) {
	snapped, obj := snapObjective(work, s.prob.integer, x)
	objMax := toMaxForm(s.maximize, obj)
	s.mu.Lock()
	if !s.hasInc || objMax > s.incObj ||
		(objMax == s.incObj && lexLess(snapped, s.incumbent)) {
		s.hasInc = true
		s.incObj = objMax
		s.incumbent = snapped
		s.cfg.cert.observeInc(objMax)
	}
	s.mu.Unlock()
}

func lexLess(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// observePseudoCost records the objective degradation of a branched child:
// the per-unit-fraction drop of the relaxation bound relative to the parent.
func (s *search) observePseudoCost(nd *node, childBound float64) {
	if nd.branchedVar < 0 || math.IsInf(nd.bound, 0) {
		return
	}
	drop := nd.bound - childBound
	if drop < 0 {
		drop = 0
	}
	s.pcMu.Lock()
	defer s.pcMu.Unlock()
	if nd.branchedUp {
		f := 1 - nd.branchedFrac
		if f > 1e-9 {
			s.pcUpSum[nd.branchedVar] += drop / f
			s.pcUpN[nd.branchedVar]++
		}
		return
	}
	if nd.branchedFrac > 1e-9 {
		s.pcDownSum[nd.branchedVar] += drop / nd.branchedFrac
		s.pcDownN[nd.branchedVar]++
	}
}

// pseudoCost returns the estimated down/up per-unit degradations for an
// integer variable (see pcAverage).
func (s *search) pseudoCost(k int) (down, up float64) {
	s.pcMu.Lock()
	defer s.pcMu.Unlock()
	return pcAverage(s.pcDownSum, s.pcDownN, k), pcAverage(s.pcUpSum, s.pcUpN, k)
}

// pushChildren creates and publishes the floor/ceil children of a branched
// node. Sequence numbers are assigned under the lock, pushing the preferred
// (nearest-rounding) child last so the frontier tie-break plunges into it
// first.
func (s *search) pushChildren(parent *node, k int, frac, bound float64) {
	// Safe without s.mu: the collector has its own lock and never
	// acquires the search's, so no ordering cycle is possible.
	down, up := makeChildren(parent, k, frac, bound, s.cfg.cert)
	fracPart := frac - math.Floor(frac)
	down.branchedVar, down.branchedUp, down.branchedFrac = k, false, fracPart
	up.branchedVar, up.branchedUp, up.branchedFrac = k, true, fracPart

	first, second := up, down
	if fracPart > 0.5 {
		first, second = down, up
	}
	s.mu.Lock()
	s.seq++
	first.seq = s.seq
	heap.Push(&s.open, first)
	s.seq++
	second.seq = s.seq
	heap.Push(&s.open, second)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// solveRelaxation solves the node's LP relaxation on the worker's problem
// and workspace, warm-starting from the node's parent basis when one is
// available (basis snapshots are immutable and shared across workers; each
// worker restores them into its own workspace).
func (w *worker) solveRelaxation(nd *node) (*lp.Solution, error) {
	if err := applyNodeBounds(w.work, w.s.prob.integer, nd, w.bsc); err != nil {
		return nil, err
	}
	last := len(w.warmOpts) - 1
	opts := w.warmOpts[:last]
	if !w.s.cfg.noWarm {
		w.warmOpts[last] = lp.WithWarmStart(nd.basis)
		opts = w.warmOpts
		if nd.basis != nil {
			w.warmAttempts++
		}
	}
	sol, err := w.work.Solve(opts...)
	if err != nil {
		return nil, fmt.Errorf("ilp: relaxation: %w", err)
	}
	w.count(sol)
	return sol, nil
}

// process expands one node: solve its relaxation, prune or publish an
// incumbent, dive when incumbent-less, and branch.
func (w *worker) process(nd *node) error {
	s := w.s
	sol, err := w.solveRelaxation(nd)
	if err != nil {
		return err
	}
	w.nodes++
	s.mu.Lock()
	s.nodes++
	s.mu.Unlock()

	switch sol.Status {
	case lp.StatusInfeasible:
		certLeafInfeasible(s.cfg.cert, nd)
		return nil
	case lp.StatusUnbounded:
		// The root (handled in prepareRoot) is bounded, and bounded
		// parents cannot spawn unbounded children; treat as a numerical
		// failure.
		return fmt.Errorf("ilp: child relaxation unbounded: %w", lp.ErrNumerical)
	case lp.StatusIterationLimit:
		return fmt.Errorf("ilp: LP relaxation hit its iteration limit at node %d", w.nodes)
	}
	if c := s.cfg.cert; c != nil {
		// The node's own duals now justify its bound (and its children's,
		// until they are solved themselves).
		nd.certDual = c.addDual(sol.DualValues)
	}

	bound := toMaxForm(s.maximize, sol.Objective)
	s.observePseudoCost(nd, bound)
	hasInc, incObj := s.incumbentView()
	if hasInc && bound <= incObj+pruneSlackFor(&s.cfg, incObj) {
		certLeafBound(s.cfg.cert, nd)
		return nil
	}

	branchVar := pickBranch(s.prob, &s.cfg, sol.X, s.pseudoCost)
	if branchVar < 0 {
		// Integral: publish a new incumbent.
		s.offerIncumbent(w.work, sol.X)
		certLeafBound(s.cfg.cert, nd)
		return nil
	}

	// This node's optimal basis warm-starts its children and dives.
	nd.basis = sol.Basis
	// Read the branch value now: sol may be a volatile solution whose
	// backing arrays the dive's re-solves recycle.
	frac := sol.X[s.prob.integer[branchVar]]

	// Dive until a first incumbent exists: without one, best-first cannot
	// prune and degrades into breadth-first over bound plateaus. (The root
	// dive already ran in prepareRoot.)
	if !s.cfg.disableDive && !hasInc {
		offer := func(x []float64) { s.offerIncumbent(w.work, x) }
		if err := diveFrom(s.prob, &s.cfg, nd, sol.X, w.solveRelaxation, offer); err != nil {
			return err
		}
		if h, inc := s.incumbentView(); h && bound <= inc+pruneSlackFor(&s.cfg, inc) {
			certLeafBound(s.cfg.cert, nd)
			return nil
		}
	}

	s.pushChildren(nd, branchVar, frac, bound)
	return nil
}

// assemble builds the Solution after all workers have stopped. No locks are
// needed: run has already joined every worker goroutine.
func (s *search) assemble() *Solution {
	pr := s.prep
	total := pr.effort
	perWorker := make([]WorkerStats, s.workers)
	for id, w := range s.pool {
		total.merge(w.effort)
		perWorker[id] = w.workerStats()
	}
	// The root-prep effort (the root node itself, cuts, dives) is credited
	// to worker 0 so the per-worker stats still sum to the solution totals.
	w0 := pr.effort
	if s.pool != nil {
		w0.merge(s.pool[0].effort)
	}
	perWorker[0] = w0.workerStats()
	k := total.kstats
	sol := &Solution{
		Nodes:                    s.nodes,
		LPIterations:             total.lpIters,
		Elapsed:                  time.Since(s.started),
		RootObjective:            pr.rootObjective,
		RootDuals:                pr.rootDuals,
		Workers:                  s.workers,
		PerWorker:                perWorker,
		WarmAttempts:             total.warmAttempts,
		WarmHits:                 total.warmHits,
		WarmIterations:           total.warmIters,
		ColdIterations:           total.coldIters,
		ColdSolves:               total.coldSolves,
		PresolveFixed:            pr.presolveFixed,
		PresolveTightened:        pr.presolveTightened,
		CutsAdded:                pr.cutsAdded,
		CutsActive:               pr.cutsActive,
		Etas:                     k.etas,
		Refactorizations:         k.refactorizations,
		DevexResets:              k.devexResets,
		Updates:                  k.updates,
		BoundFlips:               k.boundFlips,
		AdaptiveRefactorizations: k.adaptiveRefacs,
		FactorNnz:                k.factorNnz,
		KernelFallbacks:          k.kernelFallbacks,
		RootBasis:                pr.basis,
	}
	sol.Interrupted = s.interrupted
	if s.hasInc {
		sol.X = s.incumbent
		sol.Objective = fromMaxForm(s.maximize, s.incObj)
		sol.BestBound = sol.Objective
		sol.BoundKnown = true
	}
	switch {
	case s.unbound:
		sol.Status = StatusUnbounded
	case s.limited:
		sol.Status = stopStatus(s.hasInc, s.interrupted)
		bound := bestOpenBound(&s.open)
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
			if s.hasInc && s.incObj > bound {
				bound = s.incObj
			}
			sol.BestBound = fromMaxForm(s.maximize, bound)
			sol.BoundKnown = true
			if s.hasInc {
				sol.Gap = math.Abs(bound-s.incObj) / math.Max(1, math.Abs(s.incObj))
			}
		}
	case s.hasInc:
		sol.Status = StatusOptimal
	default:
		sol.Status = StatusInfeasible
	}
	if c := s.cfg.cert; c != nil {
		sol.Certificate, sol.CertificateNote = c.finalize(sol.Status, s.hasInc, s.incumbent, s.incObj)
	}
	return sol
}

package core

import (
	"math"
	"runtime"
	"testing"

	"secmon/internal/casestudy"
	"secmon/internal/lp"
	"secmon/internal/metrics"
	"secmon/internal/model"
	"secmon/internal/synth"
)

// checkKernelAgreement requires the sparse and dense results to agree on
// objective value, cost, proven status and solve status, and on the selected
// monitor set up to verified exact ties. The canonicalization post-pass
// collapses single-swap alternate optima, but devex and Dantzig pricing can
// still land on different members of a larger symmetric orbit (e.g. a whole
// group of monitors relabeled across interchangeable hosts); those are
// genuine alternate optima, not kernel bugs, so a differing set is accepted
// only after independently recomputing both sets' utility and cost from the
// index and finding them equal and within budget.
func checkKernelAgreement(t *testing.T, idx *model.Index, label string, budget float64, sparse, dense *Result) {
	t.Helper()
	if !approx(sparse.Utility, dense.Utility) {
		t.Errorf("%s: sparse utility %v, dense %v", label, sparse.Utility, dense.Utility)
	}
	if !approx(sparse.Cost, dense.Cost) {
		t.Errorf("%s: sparse cost %v, dense %v", label, sparse.Cost, dense.Cost)
	}
	if sparse.Proven != dense.Proven || sparse.Status != dense.Status {
		t.Errorf("%s: sparse (%v, %q), dense (%v, %q)",
			label, sparse.Proven, sparse.Status, dense.Proven, dense.Status)
	}
	if sameMonitors(sparse.Monitors, dense.Monitors) {
		return
	}
	// Differing sets must be an exact tie on independently recomputed
	// metrics, or one kernel returned a suboptimal or infeasible set.
	for _, r := range []struct {
		name string
		res  *Result
	}{{"sparse", sparse}, {"dense", dense}} {
		d := model.NewDeployment()
		for _, id := range r.res.Monitors {
			d.Add(id)
		}
		if u := metrics.Utility(idx, d); !approx(u, dense.Utility) {
			t.Errorf("%s: %s set recomputes to utility %v, reported %v",
				label, r.name, u, dense.Utility)
		}
		if c := metrics.Cost(idx, d); c > budget+1e-9 {
			t.Errorf("%s: %s set recomputes to cost %v over budget %v", label, r.name, c, budget)
		}
	}
}

// TestKernelEquivalenceCaseStudy cross-checks the sparse revised simplex
// against the dense tableau oracle for every feature mode and worker count
// on the case study.
func TestKernelEquivalenceCaseStudy(t *testing.T) {
	idx, err := casestudy.BuildIndex()
	if err != nil {
		t.Fatalf("case study: %v", err)
	}
	total := idx.System().TotalMonitorCost()
	kernels := []struct {
		name string
		k    lp.Kernel
	}{{"eta", lp.KernelEta}, {"lu", lp.KernelLU}}
	for _, frac := range []float64{0.25, 0.55} {
		budget := total * frac
		for _, mode := range solverFeatureModes {
			for _, w := range []int{1, 4} {
				label := mode.name + " workers " + string(rune('0'+w))
				dense, err := NewOptimizer(idx, WithWorkers(w), WithDenseKernel(),
					WithSolverOptions(mode.opts...)).MaxUtility(budget)
				if err != nil {
					t.Fatalf("dense %s MaxUtility(%v): %v", label, budget, err)
				}
				for _, kr := range kernels {
					sparse, err := NewOptimizer(idx, WithWorkers(w), WithKernel(kr.k),
						WithSolverOptions(mode.opts...)).MaxUtility(budget)
					if err != nil {
						t.Fatalf("%s %s MaxUtility(%v): %v", kr.name, label, budget, err)
					}
					checkKernelAgreement(t, idx, kr.name+" "+label, budget, sparse, dense)
				}
			}
		}
	}
}

// TestKernelEquivalenceSynthetic repeats the kernel cross-check on a
// synthetic instance big enough to branch, cut and presolve.
func TestKernelEquivalenceSynthetic(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic kernel sweep is slow")
	}
	idx := synthIndex(t, synth.Config{Seed: 42, Monitors: 35, Attacks: 25})
	budget := idx.System().TotalMonitorCost() * 0.3
	for _, w := range []int{1, 4} {
		dense, err := NewOptimizer(idx, WithWorkers(w), WithDenseKernel()).MaxUtility(budget)
		if err != nil {
			t.Fatalf("dense workers %d: %v", w, err)
		}
		sparse, err := NewOptimizer(idx, WithWorkers(w)).MaxUtility(budget)
		if err != nil {
			t.Fatalf("sparse workers %d: %v", w, err)
		}
		label := "synthetic workers " + string(rune('0'+w))
		checkKernelAgreement(t, idx, label, budget, sparse, dense)
	}
}

// TestKernelCounters checks the sparse kernel's effort counters flow through
// to SolveStats and stay zero under the dense oracle.
func TestKernelCounters(t *testing.T) {
	idx := synthIndex(t, synth.Config{Seed: 7, Monitors: 60, Attacks: 40})
	budget := idx.System().TotalMonitorCost() * 0.3

	// Pin the LU kernel: this instance sits below the auto-kernel dimension
	// crossover, where an unpinned solve would legitimately run the eta
	// kernel and report eta counters instead.
	sparse, err := NewOptimizer(idx, WithWorkers(1), WithKernel(lp.KernelLU)).MaxUtility(budget)
	if err != nil {
		t.Fatalf("sparse MaxUtility: %v", err)
	}
	// The LU kernel's pivots apply Forrest-Tomlin updates, never etas.
	if sparse.Stats.Updates == 0 {
		t.Errorf("LU kernel reported zero updates over %d LP iterations", sparse.Stats.LPIterations)
	}
	if sparse.Stats.Refactorizations == 0 {
		t.Errorf("LU kernel reported zero refactorizations across %d nodes", sparse.Stats.Nodes)
	}
	if sparse.Stats.FactorNnz == 0 {
		t.Errorf("LU kernel reported zero factorization nonzeros")
	}
	if sparse.Stats.Etas != 0 {
		t.Errorf("LU kernel reported %d etas", sparse.Stats.Etas)
	}

	eta, err := NewOptimizer(idx, WithWorkers(1), WithKernel(lp.KernelEta)).MaxUtility(budget)
	if err != nil {
		t.Fatalf("eta MaxUtility: %v", err)
	}
	if eta.Stats.Etas == 0 {
		t.Errorf("eta kernel reported zero etas over %d LP iterations", eta.Stats.LPIterations)
	}
	if eta.Stats.Updates != 0 || eta.Stats.FactorNnz != 0 || eta.Stats.BoundFlips != 0 {
		t.Errorf("eta kernel reported LU counters: updates=%d factorNnz=%d boundFlips=%d",
			eta.Stats.Updates, eta.Stats.FactorNnz, eta.Stats.BoundFlips)
	}

	dense, err := NewOptimizer(idx, WithWorkers(1), WithDenseKernel()).MaxUtility(budget)
	if err != nil {
		t.Fatalf("dense MaxUtility: %v", err)
	}
	if dense.Stats.Etas != 0 || dense.Stats.Refactorizations != 0 || dense.Stats.DevexResets != 0 ||
		dense.Stats.Updates != 0 || dense.Stats.BoundFlips != 0 || dense.Stats.FactorNnz != 0 {
		t.Errorf("dense kernel reported sparse counters: etas=%d refactorizations=%d devexResets=%d updates=%d boundFlips=%d factorNnz=%d",
			dense.Stats.Etas, dense.Stats.Refactorizations, dense.Stats.DevexResets,
			dense.Stats.Updates, dense.Stats.BoundFlips, dense.Stats.FactorNnz)
	}
}

func synthIndex(t *testing.T, cfg synth.Config) *model.Index {
	t.Helper()
	sys, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("synth.Generate(%+v): %v", cfg, err)
	}
	idx, err := model.NewIndex(sys)
	if err != nil {
		t.Fatalf("index: %v", err)
	}
	return idx
}

// TestLUKernelCountersPinned pins the LU kernel's pivot sequence on E7
// (400x100, LU pinned), mid-size MinCost (350x280, target 0.9 clamped,
// auto kernel), small MinCost (40x40, target 0.8 clamped, auto kernel) and
// scale MaxUtility (1500x300 in 30 segments, default configuration) solves
// to exact objectives and counters. The counters are those of dual
// steepest-edge pricing, which takes a different pivot path from the
// Dantzig rule it replaced on purpose; the objectives are the Dantzig-era
// values and must never move. Pure speed changes to the kernel
// leave every pin alone, so any drift here means the pivots changed. The
// counts are exact floating-point outcomes; other architectures may fuse
// multiply-adds and pivot differently, so they are checked on amd64 only.
//
// The e7-maxutil-22 row (22% budget) is the one that branches: its node and
// iteration counts pin the branch-and-bound tree at one worker as well. The
// search once expanded the farther rounding first on bound ties, which cost
// this row 1,591 nodes and 43,866 LP iterations.
//
// Both e7-maxutil rows stop dives at a feasible rounding that attains the
// dive LP's value; without that stop they took 998 and 21,831 LP
// iterations for the same objectives and nodes.
//
// The scale-maxutil row is the benchmark's scale instance at 22% budget,
// which the decomposition gate routes through the Lagrangian coordinator.
// Its seeded oracle solves stop their free root dives at the seed; without
// that cutoff the row took 79,900 LP iterations for the same optimum and
// nodes. Its counters sum the segment, master and oracle solves. The
// restricted master's convexity rows (= 1) make it dual-start, so auto
// dispatch runs it on LU below luAutoMinDim too. With the master on eta
// the row took 76,690 LP iterations and 6,617 nodes (392 flips and 5,269
// updates from the LU solves of at least luAutoMinDim rows).
//
// The small-mincost-auto row is a plan-cold small-class MinCost solve. Its
// coverage rows make it dual-start, so auto dispatch runs it on LU although
// its basis has only 40 rows: no eta vector may appear, at one worker or in
// a two-worker search's clones.
//
// The mid-maxutil rows are plan-cold mid-class MaxUtility solves (40%
// budget, auto kernel): an LU primal devex root followed by dual dives. The
// small-maxutil-auto row is a small-class MaxUtility solve, which starts
// primal feasible below luAutoMinDim and so runs the eta kernel's primal
// phase; both kernels share the primal pricing.
//
// The e3-maxutil and e7-sweep-200 rows pin the search trees of the golden
// artifacts, whose node and LP-iteration columns the golden comparison
// scrubs: the E3 case study at 10% and 25% budget and the E7 monitor-sweep
// point at 200 monitors (seed 1200, 100 attacks, 30% budget), each in the
// default configuration at one worker. All three start primal feasible
// below luAutoMinDim, so auto dispatch runs them on the eta kernel.
func TestLUKernelCountersPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned pivot counts were recorded on amd64")
	}
	e7 := synth.Config{Seed: 1, Monitors: 400, Attacks: 100}
	scale := synth.Config{Seed: 7919, Monitors: 1500, Attacks: 300, Segments: 30}
	mid := func(seed int64) synth.Config { return synth.Config{Seed: seed, Monitors: 350, Attacks: 280} }
	small := synth.Config{Seed: 1, Monitors: 40, Attacks: 40}
	e7Sweep200 := synth.Config{Seed: 1200, Monitors: 200, Attacks: 100}
	caseStudy := synth.Config{} // the zero config stands for the case study
	indexes := map[synth.Config]*model.Index{}
	for _, c := range []struct {
		name                         string
		sys                          synth.Config
		lu                           bool // pin the LU kernel; other rows run the default
		eta                          bool // auto dispatch runs the eta kernel (primal start below luAutoMinDim)
		mincost                      bool
		level                        float64 // fraction of the total monitor cost (MaxUtility) or coverage target, 0 meaning 0.9 (MinCost)
		objective                    float64
		iters, flips, updates, nodes int
	}{
		{"e7-maxutil", e7, true, false, false, 0.3, 0.9946432839388145, 665, 0, 429, 1},
		{"e7-maxutil-22", e7, true, false, false, 0.22, 0.9604754222434672, 21578, 2475, 34511, 1447},
		{"e7-mincost", e7, true, false, true, 0, 5508.649999999995, 351, 280, 351, 1},
		{"mid-mincost-s1", mid(1), false, false, true, 0, 6099.129999999997, 428, 393, 428, 1},
		{"mid-mincost-s2", mid(2), false, false, true, 0, 5795.630000000001, 439, 385, 439, 1},
		{"mid-mincost-s3", mid(3), false, false, true, 0, 6592.400000000002, 428, 412, 428, 1},
		{"mid-maxutil-s1", mid(1), false, false, false, 0.4, 0.9884738625860123, 728, 0, 442, 1},
		{"mid-maxutil-s2", mid(2), false, false, false, 0.4, 0.9959412243996079, 703, 1, 396, 1},
		{"scale-maxutil", scale, false, false, false, 0.22, 0.98374527717755289, 68180, 17701, 33365, 6597},
		{"small-mincost-auto", small, false, false, true, 0.8, 750.3500000000001, 52, 62, 52, 1},
		{"small-maxutil-auto", small, false, true, false, 0.4, 0.9772822580645161, 84, 0, 0, 1},
		{"e3-maxutil-10", caseStudy, false, true, false, 0.10, 0.4022837332159365, 1167, 0, 0, 267},
		{"e3-maxutil-25", caseStudy, false, true, false, 0.25, 0.6810862865947612, 1041, 0, 0, 256},
		{"e7-sweep-200", e7Sweep200, false, true, false, 0.3, 0.9948901404133864, 8545, 0, 0, 1215},
	} {
		idx := indexes[c.sys]
		if idx == nil {
			if c.sys == caseStudy {
				var err error
				if idx, err = casestudy.BuildIndex(); err != nil {
					t.Fatalf("case study: %v", err)
				}
			} else {
				idx = synthIndex(t, c.sys)
			}
			indexes[c.sys] = idx
		}
		opts := []Option{WithWorkers(1)}
		if c.lu {
			opts = append(opts, WithKernel(lp.KernelLU))
		}
		target := c.level
		if target == 0 {
			target = 0.9
		}
		mincost := func(opts ...Option) *Result {
			res, err := NewOptimizer(idx, append(opts, WithClampToAchievable())...).
				MinCost(CoverageTargets{Global: target})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return res
		}
		var res *Result
		if c.mincost {
			res = mincost(opts...)
		} else {
			var err error
			res, err = NewOptimizer(idx, opts...).MaxUtility(idx.System().TotalMonitorCost() * c.level)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		obj := res.Utility
		if c.mincost {
			obj = res.Cost
		}
		st := res.Stats
		if obj != c.objective || st.LPIterations != c.iters || st.BoundFlips != c.flips ||
			st.Updates != c.updates || st.Nodes != c.nodes {
			t.Errorf("%s: objective %v, %d LP iterations, %d bound flips, %d updates, %d nodes; pinned %v, %d, %d, %d, %d",
				c.name, obj, st.LPIterations, st.BoundFlips, st.Updates, st.Nodes,
				c.objective, c.iters, c.flips, c.updates, c.nodes)
		}
		// Every other monolithic row runs LU: pinned, at least luAutoMinDim
		// rows, or dual-start. A two-worker MinCost search must stay on LU in
		// its worker clones too.
		if c.eta && st.Etas == 0 {
			t.Errorf("%s: no etas; want the eta kernel under auto dispatch", c.name)
		}
		if !c.eta && res.Stats.Decomposition == nil && st.Etas != 0 {
			t.Errorf("%s: %d etas; want every node LP on LU", c.name, st.Etas)
		}
		if c.mincost {
			two := mincost(append(opts, WithWorkers(2))...)
			if math.Abs(two.Cost-obj) > 1e-9*(1+obj) || two.Stats.Etas != 0 {
				t.Errorf("%s at two workers: cost %v, %d etas; want %v and every node LP on LU",
					c.name, two.Cost, two.Stats.Etas, obj)
			}
		}
	}
}

// TestLUKernelCountersPinnedWarmChain pins three-step MaxUtilityWarm chains
// on a 250x100 instance (the tenant-churn shape) at 40%, 34% and 28% of the
// total monitor cost: each budget cut leaves the prior optimum infeasible,
// so steps two and three run the warm dual simplex from the remapped prior
// basis. The auto chain runs the eta kernel (primal start below
// luAutoMinDim), the pinned chain the LU kernel with its bound-flipping
// ratio test. Like TestLUKernelCountersPinned, any drift means the pivots
// changed.
func TestLUKernelCountersPinnedWarmChain(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned pivot counts were recorded on amd64")
	}
	idx := synthIndex(t, synth.Config{Seed: 1, Monitors: 250, Attacks: 100})
	total := idx.System().TotalMonitorCost()
	type step struct {
		utility                                 float64
		iters, flips, updates, etas, nodes, hit int
	}
	for _, c := range []struct {
		name  string
		lu    bool
		steps []step
	}{
		{"warm-auto", false, []step{
			{0.9894383457608397, 427, 0, 0, 290, 1, 0},
			{0.9894383457608397, 191, 0, 0, 460, 1, 60},
			{0.9853631593482464, 2234, 0, 0, 4463, 289, 303},
		}},
		{"warm-lu", true, []step{
			{0.9894383457608397, 433, 0, 258, 0, 1, 0},
			{0.9894383457608397, 172, 58, 172, 0, 1, 64},
			{0.9853631593482464, 2521, 498, 2868, 0, 305, 320},
		}},
	} {
		var prior *Prior
		for i, frac := range []float64{0.40, 0.34, 0.28} {
			opts := []Option{WithWorkers(1)}
			if c.lu {
				opts = append(opts, WithKernel(lp.KernelLU))
			}
			res, next, err := NewOptimizer(idx, opts...).MaxUtilityWarm(total*frac, prior)
			if err != nil {
				t.Fatalf("%s step %d: %v", c.name, i, err)
			}
			prior = next
			st, want := res.Stats, c.steps[i]
			got := step{res.Utility, st.LPIterations, st.BoundFlips, st.Updates, st.Etas, st.Nodes, st.WarmHits}
			if got != want {
				t.Errorf("%s step %d: got %+v; pinned %+v", c.name, i, got, want)
			}
		}
	}
}

// TestDenseKernelRunsCold checks that the dense oracle never warm-starts: on
// plan-cold's small class (40x40), dense-pinned MaxUtility (40% budget) and
// MinCost (target 0.8, clamped) searches report no warm pivots, and reach
// the auto kernel's objective.
func TestDenseKernelRunsCold(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		idx := synthIndex(t, synth.Config{Seed: seed, Monitors: 40, Attacks: 40})
		budget := idx.System().TotalMonitorCost() * 0.4
		for _, c := range []struct {
			name  string
			solve func(opts ...Option) (*Result, error)
			obj   func(*Result) float64
		}{
			{"maxutil", func(opts ...Option) (*Result, error) {
				return NewOptimizer(idx, opts...).MaxUtility(budget)
			}, func(r *Result) float64 { return r.Utility }},
			{"mincost", func(opts ...Option) (*Result, error) {
				return NewOptimizer(idx, append(opts, WithClampToAchievable())...).
					MinCost(CoverageTargets{Global: 0.8})
			}, func(r *Result) float64 { return r.Cost }},
		} {
			dense, err := c.solve(WithWorkers(1), WithDenseKernel())
			if err != nil {
				t.Fatalf("seed %d dense %s: %v", seed, c.name, err)
			}
			auto, err := c.solve(WithWorkers(1))
			if err != nil {
				t.Fatalf("seed %d auto %s: %v", seed, c.name, err)
			}
			if dense.Stats.WarmIterations != 0 || dense.Stats.WarmHits != 0 {
				t.Errorf("seed %d %s: dense kernel ran %d warm pivots over %d warm hits; want cold solves only",
					seed, c.name, dense.Stats.WarmIterations, dense.Stats.WarmHits)
			}
			if !approx(c.obj(dense), c.obj(auto)) || !dense.Proven || !auto.Proven {
				t.Errorf("seed %d %s: dense objective %v (proven %v), auto %v (proven %v)",
					seed, c.name, c.obj(dense), dense.Proven, c.obj(auto), auto.Proven)
			}
		}
	}
}

package core

import (
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
// (400x100, LU pinned) and mid-size MinCost (350x280, target 0.9 clamped,
// auto kernel) solves to counts and objectives recorded before the closure
// ordering and the bound-flipping ratio test stopped fully sorting: those
// are pure speed changes, so any drift here means the pivots changed. The
// counts are exact floating-point outcomes; other architectures may fuse
// multiply-adds and pivot differently, so they are checked on amd64 only.
func TestLUKernelCountersPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned pivot counts were recorded on amd64")
	}
	e7 := synthIndex(t, synth.Config{Seed: 1, Monitors: 400, Attacks: 100})
	for _, c := range []struct {
		name                         string
		seed                         int64
		mincost                      bool
		objective                    float64
		iters, flips, updates, nodes int
	}{
		{"e7-maxutil", 0, false, 0.9946432839388145, 1008, 0, 772, 1},
		{"e7-mincost", 0, true, 5508.649999999995, 540, 519, 540, 1},
		{"mid-mincost-s1", 1, true, 6099.129999999997, 1244, 1979, 1244, 1},
		{"mid-mincost-s2", 2, true, 5795.630000000001, 1315, 2096, 1315, 1},
		{"mid-mincost-s3", 3, true, 6592.400000000002, 1562, 2082, 1562, 1},
	} {
		var res *Result
		var err error
		if c.seed == 0 {
			opts := []Option{WithWorkers(1), WithKernel(lp.KernelLU)}
			if c.mincost {
				res, err = NewOptimizer(e7, append(opts, WithClampToAchievable())...).
					MinCost(CoverageTargets{Global: 0.9})
			} else {
				res, err = NewOptimizer(e7, opts...).MaxUtility(e7.System().TotalMonitorCost() * 0.3)
			}
		} else {
			idx := synthIndex(t, synth.Config{Seed: c.seed, Monitors: 350, Attacks: 280})
			res, err = NewOptimizer(idx, WithWorkers(1), WithClampToAchievable()).
				MinCost(CoverageTargets{Global: 0.9})
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
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
	}
}

// Benchmarks regenerating every evaluation artifact of the reproduction:
// one benchmark per table/figure (E1-E8) plus the design ablations (A1, A2)
// and micro-benchmarks of the solver substrate. Run with:
//
//	go test -bench=. -benchmem
package secmon_test

import (
	"fmt"
	"io"
	"testing"

	"secmon/internal/campaign"
	"secmon/internal/casestudy"
	"secmon/internal/certify"
	"secmon/internal/core"
	"secmon/internal/experiment"
	"secmon/internal/ilp"
	"secmon/internal/lp"
	"secmon/internal/metrics"
	"secmon/internal/model"
	"secmon/internal/simulate"
	"secmon/internal/state"
	"secmon/internal/synth"
)

// caseIndex builds the case-study index or aborts the benchmark.
func caseIndex(b *testing.B) *model.Index {
	b.Helper()
	idx, err := casestudy.BuildIndex()
	if err != nil {
		b.Fatalf("case study: %v", err)
	}
	return idx
}

// synthIndex builds a synthetic index of the given size.
func synthIndex(b *testing.B, monitors, attacks int) *model.Index {
	b.Helper()
	sys, err := synth.Generate(synth.Config{Seed: 1, Monitors: monitors, Attacks: attacks})
	if err != nil {
		b.Fatalf("synth: %v", err)
	}
	idx, err := model.NewIndex(sys)
	if err != nil {
		b.Fatalf("index: %v", err)
	}
	return idx
}

// BenchmarkE1CaseStudyBuild measures building and indexing the enterprise
// Web service model (experiment E1's underlying work).
func BenchmarkE1CaseStudyBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := casestudy.BuildIndex(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2AttackEvidenceMap measures resolving the attack-evidence
// relation across the case study (experiment E2).
func BenchmarkE2AttackEvidenceMap(b *testing.B) {
	idx := caseIndex(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, aid := range idx.AttackIDs() {
			total += len(idx.AttackEvidence(aid)) + idx.ObservableEvidence(aid)
		}
		if total == 0 {
			b.Fatal("no evidence")
		}
	}
}

// BenchmarkE3OptimalDeployment measures the exact MaxUtility solve at the
// half budget on the case study (experiment E3's central row), across
// branch-and-bound worker counts (workers=1 runs the search inline on one
// goroutine).
func BenchmarkE3OptimalDeployment(b *testing.B) {
	idx := caseIndex(b)
	budget := idx.System().TotalMonitorCost() * 0.5
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := core.NewOptimizer(idx, core.WithWorkers(workers))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := opt.MaxUtility(budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4BudgetSweep measures the full utility-vs-budget curve with
// baselines (experiment E4).
func BenchmarkE4BudgetSweep(b *testing.B) {
	idx := caseIndex(b)
	opt := core.NewOptimizer(idx)
	grid := core.BudgetGrid(idx, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.ParetoSweep(grid, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5MetricsEvaluation measures the full metric report of a
// mid-size deployment (experiment E5).
func BenchmarkE5MetricsEvaluation(b *testing.B) {
	idx := caseIndex(b)
	res, err := core.NewOptimizer(idx).MaxUtility(idx.System().TotalMonitorCost() * 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := metrics.Evaluate(idx, res.Deployment); rep.Utility <= 0 {
			b.Fatal("zero utility")
		}
	}
}

// BenchmarkE6MinCost measures the MinCost solve at the 90% coverage target
// (experiment E6's hardest feasible row).
func BenchmarkE6MinCost(b *testing.B) {
	idx := caseIndex(b)
	opt := core.NewOptimizer(idx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.MinCost(core.CoverageTargets{Global: 0.9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7Scalability measures the MaxUtility solve across synthetic
// system sizes (experiment E7); the generation is excluded from the timing.
func BenchmarkE7Scalability(b *testing.B) {
	for _, size := range []struct{ monitors, attacks int }{
		{50, 50}, {100, 100}, {200, 100}, {100, 200}, {400, 100},
	} {
		b.Run(fmt.Sprintf("m=%d/a=%d", size.monitors, size.attacks), func(b *testing.B) {
			idx := synthIndex(b, size.monitors, size.attacks)
			budget := idx.System().TotalMonitorCost() * 0.3
			opt := core.NewOptimizer(idx)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := opt.MaxUtility(budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7Certify measures the E7 400x100 MaxUtility solve with
// certificate emission and verification, the overhead headline for the
// certify feature: compare against BenchmarkE7Scalability/m=400/a=100.
func BenchmarkE7Certify(b *testing.B) {
	idx := synthIndex(b, 400, 100)
	budget := idx.System().TotalMonitorCost() * 0.3
	opt := core.NewOptimizer(idx, core.WithCertificate())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := opt.MaxUtility(budget)
		if err != nil {
			b.Fatal(err)
		}
		if res.Certificate == nil {
			b.Fatalf("no certificate: %s", res.CertificateNote)
		}
		if _, err := certify.Verify(res.Certificate); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7Kernels pits the LU basis kernel (the sparse default) against
// the retained eta-file kernel on the E7 headline size (400 monitors x 100
// attacks MaxUtility). The two rows land in the benchmark JSON side by side
// and `make bench` asserts the recorded eta/lu ratio floor via
// tools/benchjson -ratio, so the LU speedup is re-proven on every recording
// environment rather than eyeballed across files.
func BenchmarkE7Kernels(b *testing.B) {
	idx := synthIndex(b, 400, 100)
	budget := idx.System().TotalMonitorCost() * 0.3
	for _, k := range []struct {
		name   string
		kernel lp.Kernel
	}{{"lu", lp.KernelLU}, {"eta", lp.KernelEta}} {
		b.Run(k.name, func(b *testing.B) {
			opt := core.NewOptimizer(idx, core.WithKernel(k.kernel))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := opt.MaxUtility(budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSmallKernels pits the two sparse kernels on one plan-cold small
// instance (40 monitors x 40 attacks, one worker): MaxUtility at 40% of the
// total monitor cost, whose primal-start root auto dispatch sends to eta,
// and MinCost at a 0.8 target clamped to the achievable coverage, whose
// dual-start root it sends to LU. Each runs pinned to eta and to lu, so the
// rows show what each dispatch choice costs on small bases.
func BenchmarkSmallKernels(b *testing.B) {
	idx := synthIndex(b, 40, 40)
	budget := idx.System().TotalMonitorCost() * 0.4
	for _, k := range []struct {
		name   string
		kernel lp.Kernel
	}{{"eta", lp.KernelEta}, {"lu", lp.KernelLU}} {
		b.Run("maxutil/"+k.name, func(b *testing.B) {
			opt := core.NewOptimizer(idx, core.WithWorkers(1), core.WithKernel(k.kernel))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := opt.MaxUtility(budget); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("mincost/"+k.name, func(b *testing.B) {
			opt := core.NewOptimizer(idx, core.WithWorkers(1), core.WithKernel(k.kernel),
				core.WithClampToAchievable())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := opt.MinCost(core.CoverageTargets{Global: 0.8}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMidMinCost measures one cold mid-size MinCost solve (350
// monitors x 280 attacks, global target 0.9 clamped to the achievable
// coverage, one worker, default kernel): the instance class whose bases,
// roughly 600 rows, run the LU kernel with hyper-sparse solves and the
// bound-flipping ratio test on nearly every pivot.
func BenchmarkMidMinCost(b *testing.B) {
	idx := synthIndex(b, 350, 280)
	opt := core.NewOptimizer(idx, core.WithWorkers(1), core.WithClampToAchievable())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.MinCost(core.CoverageTargets{Global: 0.9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleMaxUtil measures the benchmark's scale MaxUtility solve:
// 1500 monitors x 300 attacks in 30 segments at 22% of the total monitor
// cost, one worker, default configuration (so the decomposition gate routes
// it through the Lagrangian coordinator). Its per-solve allocation is what
// sets the resident-memory peak of a cold planning cycle; run it with
// -benchmem.
func BenchmarkScaleMaxUtil(b *testing.B) { benchScaleMaxUtil(b) }

// BenchmarkScaleMaxUtilMonolithic is BenchmarkScaleMaxUtil with the
// decomposition gate off: the same instance, one worker, solved by the
// monolithic branch-and-bound. The pair compares the coordinator with the
// monolithic solver on the scale row.
func BenchmarkScaleMaxUtilMonolithic(b *testing.B) {
	benchScaleMaxUtil(b, core.WithoutDecomposition())
}

func benchScaleMaxUtil(b *testing.B, opts ...core.Option) {
	sys, err := synth.Generate(synth.Config{Seed: 7919, Monitors: 1500, Attacks: 300, Segments: 30})
	if err != nil {
		b.Fatalf("synth: %v", err)
	}
	idx, err := model.NewIndex(sys)
	if err != nil {
		b.Fatalf("index: %v", err)
	}
	budget := sys.TotalMonitorCost() * 0.22
	opt := core.NewOptimizer(idx, append([]core.Option{core.WithWorkers(1)}, opts...)...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := opt.MaxUtility(budget)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Proven {
			b.Fatalf("not proven: status %s gap %v", res.Status, res.Gap)
		}
	}
}

// BenchmarkE7ScalabilityParallel measures the parallel branch-and-bound on
// the two hardest E7 sizes across worker counts. On a single-CPU host the
// extra workers mostly measure coordination overhead; on multi-core hosts
// this is the scalability headline for the parallel solver.
func BenchmarkE7ScalabilityParallel(b *testing.B) {
	for _, size := range []struct{ monitors, attacks int }{
		{200, 100}, {400, 100},
	} {
		idx := synthIndex(b, size.monitors, size.attacks)
		budget := idx.System().TotalMonitorCost() * 0.3
		for _, workers := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("m=%d/a=%d/workers=%d", size.monitors, size.attacks, workers)
			b.Run(name, func(b *testing.B) {
				opt := core.NewOptimizer(idx, core.WithWorkers(workers))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := opt.MaxUtility(budget); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE8Simulation measures the Monte-Carlo validation run (experiment
// E8) at 100 trials per attack.
func BenchmarkE8Simulation(b *testing.B) {
	idx := caseIndex(b)
	res, err := core.NewOptimizer(idx).MaxUtility(idx.System().TotalMonitorCost() * 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := simulate.Config{Seed: int64(i), Trials: 100, ManifestProb: 0.9, CaptureProb: 0.8}
		if _, err := simulate.Run(idx, res.Deployment, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA1Diving measures branch-and-bound effort with and without the
// root diving heuristic on a 120x120 synthetic system (ablation A1).
func BenchmarkA1Diving(b *testing.B) {
	idx := synthIndex(b, 120, 120)
	budget := idx.System().TotalMonitorCost() * 0.3
	for _, mode := range []struct {
		name string
		opts []core.Option
	}{
		{name: "on"},
		{name: "off", opts: []core.Option{core.WithSolverOptions(ilp.WithoutDiving())}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opt := core.NewOptimizer(idx, mode.opts...)
			for i := 0; i < b.N; i++ {
				if _, err := opt.MaxUtility(budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkA2Formulation measures the compact shared-coverage encoding
// against the expanded per-(attack, evidence) encoding (ablation A2).
func BenchmarkA2Formulation(b *testing.B) {
	idx := synthIndex(b, 120, 120)
	budget := idx.System().TotalMonitorCost() * 0.3
	for _, mode := range []struct {
		name string
		opts []core.Option
	}{
		{name: "compact"},
		{name: "expanded", opts: []core.Option{core.WithExpandedFormulation()}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opt := core.NewOptimizer(idx, mode.opts...)
			for i := 0; i < b.N; i++ {
				if _, err := opt.MaxUtility(budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimplexSolve measures the raw LP substrate on the case-study
// relaxation-sized problem.
func BenchmarkSimplexSolve(b *testing.B) {
	build := func() *lp.Problem {
		p := lp.NewProblem(lp.Maximize)
		const n = 60
		vars := make([]lp.VarID, n)
		for i := range vars {
			v, err := p.AddVariable("x", 0, 1, float64(i%7+1))
			if err != nil {
				b.Fatal(err)
			}
			vars[i] = v
		}
		for r := 0; r < 40; r++ {
			terms := make([]lp.Term, 0, 8)
			for k := 0; k < 8; k++ {
				terms = append(terms, lp.Term{Var: vars[(r*3+k*5)%n], Coeff: float64(k%5 + 1)})
			}
			if _, err := p.AddConstraint("row", terms, lp.LE, float64(10+r%13)); err != nil {
				b.Fatal(err)
			}
		}
		return p
	}
	prob := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := prob.Solve()
		if err != nil || sol.Status != lp.StatusOptimal {
			b.Fatalf("solve: %v %v", err, sol.Status)
		}
	}
}

// BenchmarkGreedyBaseline measures the greedy heuristic on a 200x200
// synthetic system.
func BenchmarkGreedyBaseline(b *testing.B) {
	idx := synthIndex(b, 200, 200)
	budget := idx.System().TotalMonitorCost() * 0.3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Greedy(idx, budget); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentSuite measures regenerating the fast experiment tables
// end to end (E1, E2, E5 discard their output).
func BenchmarkExperimentSuite(b *testing.B) {
	for _, id := range []string{"E1", "E2", "E5"} {
		e, ok := experiment.ByID(id)
		if !ok {
			b.Fatalf("experiment %s missing", id)
		}
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Run(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9MultiObjective measures the weighted utility/richness/
// redundancy solve at the half budget (experiment E9).
func BenchmarkE9MultiObjective(b *testing.B) {
	idx := caseIndex(b)
	budget := idx.System().TotalMonitorCost() * 0.5
	opt := core.NewOptimizer(idx)
	weights := core.Objectives{Utility: 1, Richness: 0.5, Redundancy: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.MaxWeighted(budget, weights); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10Corroboration measures the corroborated (k=2) MaxUtility
// solve at the half budget (experiment E10).
func BenchmarkE10Corroboration(b *testing.B) {
	idx := caseIndex(b)
	budget := idx.System().TotalMonitorCost() * 0.5
	opt := core.NewOptimizer(idx, core.WithCorroboration(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.MaxUtility(budget); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11ShadowPrices measures the budget shadow-price sweep
// (experiment E11).
func BenchmarkE11ShadowPrices(b *testing.B) {
	e, ok := experiment.ByID("E11")
	if !ok {
		b.Fatal("experiment E11 missing")
	}
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12Robust measures the robust expected-utility solve at a 30%
// failure probability (experiment E12).
func BenchmarkE12Robust(b *testing.B) {
	idx := caseIndex(b)
	budget := idx.System().TotalMonitorCost() * 0.5
	opt := core.NewOptimizer(idx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.MaxExpectedUtility(budget, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA3BranchRule measures most-fractional vs pseudo-cost branching
// on a 120x120 synthetic system (ablation A3).
func BenchmarkA3BranchRule(b *testing.B) {
	idx := synthIndex(b, 120, 120)
	budget := idx.System().TotalMonitorCost() * 0.3
	for _, mode := range []struct {
		name string
		rule ilp.BranchRule
	}{
		{name: "most-fractional", rule: ilp.BranchMostFractional},
		{name: "pseudo-cost", rule: ilp.BranchPseudoCost},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opt := core.NewOptimizer(idx, core.WithSolverOptions(ilp.WithBranchRule(mode.rule)))
			for i := 0; i < b.N; i++ {
				if _, err := opt.MaxUtility(budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// blockIndex builds a block-structured synthetic index: monitors and data
// types grouped into loosely connected segments, the shape the decomposition
// solver exploits (experiment E9 scale family).
func blockIndex(b *testing.B, monitors, attacks, segments int, cross float64) *model.Index {
	b.Helper()
	sys, err := synth.Generate(synth.Config{
		Seed: 9, Monitors: monitors, Attacks: attacks,
		Segments: segments, CrossFraction: cross,
	})
	if err != nil {
		b.Fatalf("synth: %v", err)
	}
	idx, err := model.NewIndex(sys)
	if err != nil {
		b.Fatalf("index: %v", err)
	}
	return idx
}

// BenchmarkE9Scale measures the graph-partitioned decomposition solver on
// block-structured instances 10-100x beyond the E7 sizes (experiment E9).
// Every solve must return a PROVEN optimum — the benchmark fails otherwise,
// so the recorded times are certified-optimality times, not heuristic times.
// The workers=1/workers=8 pairs feed the parallel-speedup assertion in
// tools/benchjson (skipped on single-CPU hosts).
func BenchmarkE9Scale(b *testing.B) {
	// Sub-benchmark names avoid '=' so the -speedup slow=fast:minratio spec
	// in tools/benchjson parses unambiguously.
	b.Run("mincost/5000x1000", func(b *testing.B) {
		idx := blockIndex(b, 5000, 1000, 100, 0)
		targets := core.CoverageTargets{Global: 0.9}
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
				opt := core.NewOptimizer(idx, core.WithClampToAchievable(),
					core.WithDecomposition(), core.WithWorkers(workers))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := opt.MinCost(targets)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Proven {
						b.Fatalf("not proven: status %s gap %v", res.Status, res.Gap)
					}
				}
			})
		}
	})
	b.Run("maxutil/1200x240", func(b *testing.B) {
		idx := blockIndex(b, 1200, 240, 24, 0.02)
		budget := idx.System().TotalMonitorCost() * 0.2
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
				opt := core.NewOptimizer(idx,
					core.WithDecomposition(), core.WithWorkers(workers))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := opt.MaxUtility(budget)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Proven {
						b.Fatalf("not proven: status %s gap %v", res.Status, res.Gap)
					}
				}
			})
		}
	})
}

// BenchmarkE9Kernels repeats the E9 mincost 5000x1000 single-worker
// decomposition solve under each sparse kernel. Every solve must still be
// proven optimal. The integral rounding of coverage right-hand sides
// (requiredEvidence) collapsed these subproblems to a few nodes over tiny
// bases, where the two kernels run at parity, so `make bench` asserts no
// eta/lu floor here — the rows are recorded as a regression canary. The
// LU advantage is asserted on BenchmarkE7Kernels, whose 400-row bases
// exercise the factorization.
func BenchmarkE9Kernels(b *testing.B) {
	idx := blockIndex(b, 5000, 1000, 100, 0)
	targets := core.CoverageTargets{Global: 0.9}
	for _, k := range []struct {
		name   string
		kernel lp.Kernel
	}{{"lu", lp.KernelLU}, {"eta", lp.KernelEta}} {
		b.Run(k.name, func(b *testing.B) {
			opt := core.NewOptimizer(idx, core.WithClampToAchievable(),
				core.WithDecomposition(), core.WithKernel(k.kernel))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := opt.MinCost(targets)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Proven {
					b.Fatalf("not proven: status %s gap %v", res.Status, res.Gap)
				}
			}
		})
	}
}

// stateTenant opens a fresh event-log store in a benchmark temp directory
// and creates one E7-sized (400 monitors x 100 attacks) max-utility tenant
// at the standard 30% budget, solved sequentially so every re-solve is
// bit-reproducible.
func stateTenant(b *testing.B) *state.Tenant {
	b.Helper()
	sys, err := synth.Generate(synth.Config{Seed: 1, Monitors: 400, Attacks: 100})
	if err != nil {
		b.Fatalf("synth: %v", err)
	}
	store, err := state.Open(b.TempDir())
	if err != nil {
		b.Fatalf("open store: %v", err)
	}
	b.Cleanup(func() { store.Close() })
	total := 0.0
	for i := range sys.Monitors {
		total += sys.Monitors[i].TotalCost()
	}
	tn, err := store.Create("bench", sys, state.SolveSpec{Budget: 0.3 * total, Workers: 1})
	if err != nil {
		b.Fatalf("create tenant: %v", err)
	}
	return tn
}

// sameMonitors reports whether two result monitor lists are identical
// (both are canonically sorted by the solver).
func sameMonitors(a, c []model.MonitorID) bool {
	if len(a) != len(c) {
		return false
	}
	for i := range a {
		if a[i] != c[i] {
			return false
		}
	}
	return true
}

// BenchmarkE10Incremental measures the event-sourced incremental re-solve
// against from-scratch solves of the identical mutated instance on an
// E7-sized tenant. Sub-benchmarks:
//
//	mutate-warm     one budget mutation per op, re-solved incrementally
//	                (includes the log commit + fsync)
//	mutate-scratch  the same mutation stream, but timing the from-scratch
//	                solve of each mutated instance
//	shortcut        a cost increase proven still-optimal by the sensitivity
//	                shortcut: zero branch-and-bound nodes, no LP re-solve
//	stream20        a 20-mutation stream (cost bumps and restores across 10
//	                monitors) re-solved incrementally vs from scratch
//
// The recorded floors (see `make statebench`): mutate-scratch must be at
// least 5x mutate-warm (median of 5), stream20-scratch at least 2x
// stream20-warm, and the shortcut path must resolve with zero nodes
// (asserted here, per iteration).
func BenchmarkE10Incremental(b *testing.B) {
	// outsideMonitor finds a monitor the tenant's current optimum does not
	// deploy. Decreasing its cost slightly is the representative small
	// mutation: a cost decrease is never eligible for the state-level
	// sensitivity shortcut (it can admit new feasible sets), so the warm
	// machinery must genuinely re-solve — remapped basis, repriced LP
	// relaxation, repaired incumbent.
	outsideMonitor := func(b *testing.B, tn *state.Tenant) model.MonitorID {
		b.Helper()
		selected := make(map[model.MonitorID]bool)
		for _, id := range tn.Last().Monitors {
			selected[id] = true
		}
		sys := tn.System()
		for i := range sys.Monitors {
			if !selected[sys.Monitors[i].ID] {
				return sys.Monitors[i].ID
			}
		}
		b.Fatal("every monitor selected")
		return ""
	}
	// decrease returns the delta for iteration i: a monotone ~0.05% cost
	// decay, so every mutation is a genuine perturbation yet the monitor
	// stays unattractive across any realistic iteration count.
	decrease := func(tn *state.Tenant, id model.MonitorID) state.Delta {
		sys := tn.System()
		for j := range sys.Monitors {
			if sys.Monitors[j].ID == id {
				c := sys.Monitors[j].CapitalCost * 0.9995
				return state.Delta{Op: state.OpUpdateCost, MonitorID: id, CapitalCost: &c}
			}
		}
		return state.Delta{}
	}

	b.Run("mutate-warm", func(b *testing.B) {
		tn := stateTenant(b)
		id := outsideMonitor(b, tn)
		// Prove the incremental result bit-identical to a from-scratch
		// solve of the mutated instance before timing it: bitwise-equal
		// objective and proven bound. A differing monitor set must be an
		// exact tie — same objective, within budget (the full differential
		// suite lives in internal/state).
		res, err := tn.Mutate([]state.Delta{decrease(tn, id)})
		if err != nil {
			b.Fatal(err)
		}
		scr, err := tn.SolveScratch()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Proven || !scr.Proven ||
			res.Utility != scr.Utility || res.BestBound != scr.BestBound {
			b.Fatalf("incremental result diverges from scratch:\n inc proven=%v %v %v\n scr proven=%v %v %v",
				res.Proven, res.Utility, res.BestBound, scr.Proven, scr.Utility, scr.BestBound)
		}
		if sameMonitors(res.Monitors, scr.Monitors) {
			if res.Cost != scr.Cost {
				b.Fatalf("same set, different cost: %v vs %v", res.Cost, scr.Cost)
			}
		} else if res.Cost > tn.Spec().Budget+1e-9 {
			b.Fatalf("tie set exceeds budget: cost %v > %v", res.Cost, tn.Spec().Budget)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tn.Mutate([]state.Delta{decrease(tn, id)}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("mutate-scratch", func(b *testing.B) {
		tn := stateTenant(b)
		id := outsideMonitor(b, tn)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if _, err := tn.Mutate([]state.Delta{decrease(tn, id)}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := tn.SolveScratch(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("shortcut", func(b *testing.B) {
		tn := stateTenant(b)
		// Pick a monitor outside the optimal set: increasing its cost can
		// only hurt competitors of the incumbent, so the sensitivity
		// shortcut must prove the previous optimum still optimal with zero
		// branch-and-bound nodes.
		selected := make(map[model.MonitorID]bool)
		for _, id := range tn.Last().Monitors {
			selected[id] = true
		}
		sys := tn.System()
		var outside *model.Monitor
		for i := range sys.Monitors {
			if !selected[sys.Monitors[i].ID] {
				outside = &sys.Monitors[i]
				break
			}
		}
		if outside == nil {
			b.Fatal("every monitor selected; cannot exercise the shortcut")
		}
		cost := outside.CapitalCost
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cost *= 1.01
			c := cost
			res, err := tn.Mutate([]state.Delta{{Op: state.OpUpdateCost, MonitorID: outside.ID, CapitalCost: &c}})
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.Shortcut == "" || res.Stats.Nodes != 0 {
				b.Fatalf("expected a zero-node sensitivity shortcut, got shortcut=%q nodes=%d",
					res.Stats.Shortcut, res.Stats.Nodes)
			}
		}
	})

	// stream20 applies 20 mutations per op: cost bumps and restores across
	// 10 distinct monitors, so the tenant returns to its starting state
	// every iteration and the stream mixes shortcut-eligible and full
	// re-solve mutations like a live reconfiguration burst would.
	stream := func(b *testing.B, tn *state.Tenant, scratch bool) {
		sys := tn.System()
		if len(sys.Monitors) < 10 {
			b.Fatal("stream needs 10 monitors")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 20; j++ {
				m := &sys.Monitors[j/2]
				c := m.CapitalCost * 2
				if j%2 == 1 {
					c = m.CapitalCost
				}
				if scratch {
					b.StopTimer()
				}
				if _, err := tn.Mutate([]state.Delta{{Op: state.OpUpdateCost, MonitorID: m.ID, CapitalCost: &c}}); err != nil {
					b.Fatal(err)
				}
				if scratch {
					b.StartTimer()
					if _, err := tn.SolveScratch(); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	b.Run("stream20-warm", func(b *testing.B) { stream(b, stateTenant(b), false) })
	b.Run("stream20-scratch", func(b *testing.B) { stream(b, stateTenant(b), true) })
}

// BenchmarkCampaignThroughput measures the discrete-event campaign engine on
// the case study with the full deployment and a benign background, reporting
// simulated events and campaigns per second as extra metrics alongside the
// usual ns/op. The workload is fixed (20k campaigns) so events/s is
// comparable across worker counts and commits.
func BenchmarkCampaignThroughput(b *testing.B) {
	idx := caseIndex(b)
	d := model.NewDeployment(idx.MonitorIDs()...)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			cfg := campaign.Config{
				Seed: 1, Trials: 20_000, Warmup: 1000, Workers: workers,
				BenignRate: 20, ManifestProb: 0.9, CaptureProb: 0.8, LateralProb: 0.1,
			}
			var events, benign int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum, err := campaign.Run(idx, d, cfg)
				if err != nil {
					b.Fatal(err)
				}
				events, benign = sum.Events, sum.BenignEvents
			}
			perOp := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(events+benign)/perOp, "events/s")
			b.ReportMetric(float64(cfg.Trials)/perOp, "trials/s")
		})
	}
}

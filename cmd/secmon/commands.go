package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"secmon/internal/casestudy"
	"secmon/internal/certify"
	"secmon/internal/core"
	"secmon/internal/experiment"
	"secmon/internal/graph"
	"secmon/internal/lp"
	"secmon/internal/metrics"
	"secmon/internal/model"
	"secmon/internal/report"
	"secmon/internal/simulate"
	"secmon/internal/synth"
	"secmon/internal/trace"
)

// profileFlags registers -cpuprofile/-memprofile on a command's flag set.
type profileFlags struct {
	cpu, mem *string
}

func addProfileFlags(fs *flag.FlagSet) profileFlags {
	return profileFlags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// start begins CPU profiling if requested and returns a stop function that
// ends the CPU profile and writes the heap profile. The stop function must
// run before the command returns (not via defer alone) so profile files are
// complete even on the success path.
func (pf profileFlags) start() (func() error, error) {
	var cpuFile *os.File
	if *pf.cpu != "" {
		f, err := os.Create(*pf.cpu)
		if err != nil {
			return nil, fmt.Errorf("create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
		cpuFile = f
	}
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("close cpu profile: %w", err)
			}
		}
		if *pf.mem != "" {
			f, err := os.Create(*pf.mem)
			if err != nil {
				return fmt.Errorf("create mem profile: %w", err)
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is stable
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("write mem profile: %w", err)
			}
		}
		return nil
	}, nil
}

// loadIndex loads the model given by -model: a JSON file path, the built-in
// "small-business" case study, or (when empty) the enterprise case study.
func loadIndex(path string) (*model.Index, error) {
	switch path {
	case "":
		return casestudy.BuildIndex()
	case "small-business":
		return casestudy.BuildSmallBusinessIndex()
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open model: %w", err)
	}
	defer f.Close()
	sys, err := model.DecodeSystem(f)
	if err != nil {
		return nil, err
	}
	return model.NewIndex(sys)
}

// loadDeployment reads a deployment JSON file and checks every monitor
// against the system.
func loadDeployment(idx *model.Index, path string) (*model.Deployment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open deployment: %w", err)
	}
	defer f.Close()
	d, err := model.DecodeDeployment(f)
	if err != nil {
		return nil, err
	}
	for _, id := range d.IDs() {
		if _, ok := idx.Monitor(id); !ok {
			return nil, fmt.Errorf("deployment references unknown monitor %q", id)
		}
	}
	return d, nil
}

// parseMonitors splits a comma-separated monitor list and checks existence.
func parseMonitors(idx *model.Index, list string) (*model.Deployment, error) {
	d := model.NewDeployment()
	if list == "" {
		return d, nil
	}
	for _, raw := range strings.Split(list, ",") {
		id := model.MonitorID(strings.TrimSpace(raw))
		if id == "" {
			continue
		}
		if _, ok := idx.Monitor(id); !ok {
			return nil, fmt.Errorf("unknown monitor %q", id)
		}
		d.Add(id)
	}
	return d, nil
}

func cmdShow(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	modelPath := fs.String("model", "", "JSON system model (default: case study)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	idx, err := loadIndex(*modelPath)
	if err != nil {
		return err
	}
	sys := idx.System()
	fmt.Fprintln(out, sys.String())
	fmt.Fprintf(out, "total monitor cost: %.2f\n", sys.TotalMonitorCost())
	fmt.Fprintf(out, "total attack weight: %.2f\n", sys.TotalAttackWeight())
	fmt.Fprintf(out, "achievable utility ceiling: %.4f\n", metrics.MaxUtility(idx))
	for _, aid := range idx.AttackIDs() {
		a, _ := idx.Attack(aid)
		fmt.Fprintf(out, "  attack %-24s weight %.1f evidence %d (observable %d)\n",
			aid, model.AttackWeight(*a), len(idx.AttackEvidence(aid)), idx.ObservableEvidence(aid))
	}
	return nil
}

func cmdValidate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	modelPath := fs.String("model", "", "JSON system model (default: case study)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	idx, err := loadIndex(*modelPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "valid: %s\n", idx.System().String())
	return nil
}

func cmdEvaluate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("evaluate", flag.ContinueOnError)
	modelPath := fs.String("model", "", "JSON system model (default: case study)")
	monitors := fs.String("monitors", "", "comma-separated monitor IDs to deploy")
	deploymentPath := fs.String("deployment", "", "deployment JSON file (as written by optimize -save)")
	all := fs.Bool("all", false, "evaluate the full deployment of every monitor")
	if err := fs.Parse(args); err != nil {
		return err
	}
	idx, err := loadIndex(*modelPath)
	if err != nil {
		return err
	}
	var d *model.Deployment
	switch {
	case *all:
		d = model.NewDeployment(idx.MonitorIDs()...)
	case *deploymentPath != "":
		if d, err = loadDeployment(idx, *deploymentPath); err != nil {
			return err
		}
	default:
		if d, err = parseMonitors(idx, *monitors); err != nil {
			return err
		}
	}
	fmt.Fprint(out, metrics.Evaluate(idx, d).String())
	return nil
}

func cmdOptimize(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	modelPath := fs.String("model", "", "JSON system model (default: case study)")
	budget := fs.Float64("budget", -1, "budget for max-utility optimization")
	budgetFraction := fs.Float64("budget-fraction", -1, "budget as a fraction of total monitor cost")
	minCost := fs.Bool("min-cost", false, "minimize cost for a coverage target instead")
	target := fs.Float64("target", 1.0, "global coverage target for -min-cost")
	clamp := fs.Bool("clamp", false, "clamp -min-cost targets to achievable coverage")
	existing := fs.String("existing", "", "comma-separated monitors already deployed (incremental)")
	expanded := fs.Bool("expanded", false, "use the expanded per-(attack,evidence) formulation")
	corroboration := fs.Int("corroboration", 1, "require every counted evidence item to be seen by k monitors")
	failureProb := fs.Float64("failure-prob", 0, "optimize expected utility under per-monitor failure probability")
	wUtility := fs.Float64("w-utility", 0, "multi-objective weight on utility")
	wRichness := fs.Float64("w-richness", 0, "multi-objective weight on richness")
	wRedundancy := fs.Float64("w-redundancy", 0, "multi-objective weight on redundancy")
	savePath := fs.String("save", "", "write the resulting deployment as JSON to this file")
	workers := fs.Int("workers", 0, "branch-and-bound workers (0 = GOMAXPROCS, 1 = one deterministic worker)")
	kernel := fs.String("kernel", "", "LP simplex kernel: empty for auto (sparse LU for dual-start problems such as MinCost and for bases of 256+ rows, the eta file below that), sparse|lu (sparse LU with Forrest-Tomlin updates everywhere), eta (eta-file oracle) or dense (tableau oracle)")
	decompose := fs.String("decompose", "auto", "graph-partitioned decomposition solver: auto (on above the size threshold), on, off")
	certifyFlag := fs.Bool("certify", false, "emit a machine-checkable optimality certificate and verify it")
	certifyOut := fs.String("certify-out", "", "write the certificate JSON to this file (implies -certify)")
	deadline := fs.Duration("deadline", 0, "solve deadline; on expiry the best incumbent (or a heuristic fallback) is returned with its optimality gap")
	profiles := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := profiles.start()
	if err != nil {
		return err
	}
	defer stopProfiles()
	idx, err := loadIndex(*modelPath)
	if err != nil {
		return err
	}
	fixed, err := parseMonitors(idx, *existing)
	if err != nil {
		return err
	}

	var opts []core.Option
	if *expanded {
		opts = append(opts, core.WithExpandedFormulation())
	}
	if *clamp {
		opts = append(opts, core.WithClampToAchievable())
	}
	if *corroboration > 1 {
		opts = append(opts, core.WithCorroboration(*corroboration))
	}
	if *certifyOut != "" {
		*certifyFlag = true
	}
	if *certifyFlag {
		opts = append(opts, core.WithCertificate())
	}
	opts = append(opts, core.WithWorkers(*workers))
	dopt, err := parseDecompose(*decompose)
	if err != nil {
		return err
	}
	opts = append(opts, dopt...)
	k, err := parseKernel(*kernel)
	if err != nil {
		return err
	}
	if k != lp.KernelAuto {
		opts = append(opts, core.WithKernel(k))
	}
	if *deadline > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *deadline)
		defer cancel()
		opts = append(opts, core.WithContext(ctx))
	}
	opt := core.NewOptimizer(idx, opts...)

	weighted := *wUtility > 0 || *wRichness > 0 || *wRedundancy > 0

	resolveBudget := func() (float64, error) {
		b := *budget
		if *budgetFraction >= 0 {
			b = idx.System().TotalMonitorCost() * *budgetFraction
		}
		if b < 0 {
			return 0, fmt.Errorf("optimize: provide -budget or -budget-fraction")
		}
		return b, nil
	}

	var res *core.Result
	switch {
	case *minCost:
		res, err = opt.MinCostIncremental(core.CoverageTargets{Global: *target}, fixed)
	case *failureProb > 0:
		b, berr := resolveBudget()
		if berr != nil {
			return berr
		}
		var rres *core.RobustResult
		rres, err = opt.MaxExpectedUtility(b, *failureProb)
		if err == nil {
			fmt.Fprintf(out, "expected utility %.4f at per-monitor failure probability %.2f\n",
				rres.ExpectedUtility, rres.FailureProb)
			res = &rres.Result
		}
	case weighted:
		b, berr := resolveBudget()
		if berr != nil {
			return berr
		}
		var wres *core.WeightedResult
		wres, err = opt.MaxWeighted(b, core.Objectives{
			Utility:    *wUtility,
			Richness:   *wRichness,
			Redundancy: *wRedundancy,
		})
		if err == nil {
			fmt.Fprintf(out, "weighted score %.4f (richness %.4f, redundancy %.3f)\n",
				wres.Score, wres.RichnessValue, wres.RedundancyValue)
			res = &wres.Result
		}
	default:
		var b float64
		if b, err = resolveBudget(); err != nil {
			return err
		}
		res, err = opt.MaxUtilityIncremental(b, fixed)
	}
	if err != nil {
		return err
	}

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			return fmt.Errorf("create deployment file: %w", err)
		}
		defer f.Close()
		if err := model.EncodeDeployment(f, res.Deployment); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "deployment (%d monitors): %s\n", len(res.Monitors), joinIDs(res.Monitors))
	fmt.Fprintf(out, "utility %.4f  cost %.2f  proven-optimal %v\n", res.Utility, res.Cost, res.Proven)
	if !res.Proven && res.Status != "" {
		fmt.Fprintf(out, "anytime: status %s", res.Status)
		if res.BoundKnown {
			fmt.Fprintf(out, ", proven bound %.4f, gap %.2f%%", res.BestBound, 100*res.Gap)
		}
		if res.Fallback {
			fmt.Fprint(out, ", heuristic fallback deployment")
		}
		fmt.Fprintln(out)
	}
	if !*minCost {
		fmt.Fprintf(out, "budget shadow price: %.6f utility per cost unit (LP relaxation bound %.4f)\n",
			res.BudgetShadowPrice, res.RelaxationUtility)
	}
	fmt.Fprintf(out, "solver: %d nodes, %d LP iterations, %s (%d workers)\n",
		res.Stats.Nodes, res.Stats.LPIterations, res.Stats.Elapsed, res.Stats.Workers)
	printSolverExtras(out, res.Stats)
	if *certifyFlag {
		if err := reportCertificate(out, res, *certifyOut); err != nil {
			return err
		}
	}
	return stopProfiles()
}

// reportCertificate runs the independent verifier over the solve's
// certificate, prints a summary, and optionally writes the certificate JSON.
// A requested-but-missing or invalid certificate is a hard error: the whole
// point of -certify is that the result does not have to be trusted.
func reportCertificate(out io.Writer, res *core.Result, path string) error {
	if res.Certificate == nil {
		if res.CertificateNote != "" {
			return fmt.Errorf("certify: no certificate: %s", res.CertificateNote)
		}
		return fmt.Errorf("certify: solver returned no certificate (status %s)", res.Status)
	}
	rep, err := certify.Verify(res.Certificate)
	if err != nil {
		return fmt.Errorf("certify: certificate failed verification: %w", err)
	}
	fmt.Fprintf(out, "certificate: %s verified (%d branches, %d leaves: %d bound, %d infeasible, %d empty; %d dual vectors)\n",
		rep.Status, rep.Branches, rep.Leaves, rep.BoundLeaves, rep.InfeasibleLeaves, rep.EmptyLeaves, rep.DualVectors)
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create certificate file: %w", err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Certificate); err != nil {
			return fmt.Errorf("write certificate: %w", err)
		}
	}
	return nil
}

// printSolverExtras reports the warm-start, presolve and cutting-plane
// statistics when the corresponding feature did any work.
func printSolverExtras(out io.Writer, st core.SolveStats) {
	if st.Shortcut != "" {
		fmt.Fprintf(out, "sensitivity shortcut: %s (previous optimum proven still optimal, %d branch nodes)\n",
			st.Shortcut, st.Nodes)
	} else if st.WarmStarted {
		fmt.Fprintln(out, "warm incremental re-solve: basis and incumbent reused from the previous solve")
	}
	if st.WarmAttempts > 0 {
		fmt.Fprintf(out, "warm starts: %d/%d accepted (%.0f%% hit rate), %d warm + %d cold iterations over %d cold solves\n",
			st.WarmHits, st.WarmAttempts, 100*st.WarmStartHitRate(),
			st.WarmIterations, st.ColdIterations, st.ColdSolves)
	}
	if st.PresolveFixed > 0 || st.PresolveTightened > 0 {
		fmt.Fprintf(out, "root presolve: %d variables fixed, %d bounds tightened\n",
			st.PresolveFixed, st.PresolveTightened)
	}
	if st.CutsAdded > 0 {
		fmt.Fprintf(out, "cover cuts: %d added, %d active at the root\n",
			st.CutsAdded, st.CutsActive)
	}
	if st.Etas > 0 || st.Refactorizations > 0 || st.Updates > 0 {
		fmt.Fprintf(out, "sparse kernel: %d etas, %d refactorizations, %d devex resets\n",
			st.Etas, st.Refactorizations, st.DevexResets)
	}
	if st.Updates > 0 || st.FactorNnz > 0 {
		fmt.Fprintf(out, "LU kernel: %d FT updates, %d bound flips, %d adaptive refactorizations, %d factor nonzeros, %d fallbacks\n",
			st.Updates, st.BoundFlips, st.AdaptiveRefactorizations, st.FactorNnz, st.KernelFallbacks)
	}
	if d := st.Decomposition; d != nil {
		fmt.Fprintf(out, "decomposition: %d segments (%d components, %d cut monitors), %d coordinator iterations, %d subproblem + %d master solves, %d branch nodes, final gap %.2e\n",
			d.Segments, d.Components, d.CutMonitors, d.Iterations,
			d.SubproblemSolves, d.MasterSolves, d.BranchNodes, d.FinalGap)
		if len(d.GapTrajectory) > 0 {
			fmt.Fprint(out, "decomposition gap trajectory:")
			for _, g := range d.GapTrajectory {
				fmt.Fprintf(out, " %.2e", g)
			}
			fmt.Fprintln(out)
		}
		if d.OracleFallbacks > 0 {
			fmt.Fprintf(out, "decomposition: %d monolithic oracle fallbacks\n", d.OracleFallbacks)
		}
	}
}

// parseDecompose maps the -decompose flag to optimizer options; "auto" (the
// default) defers to the optimizer's size threshold.
func parseDecompose(mode string) ([]core.Option, error) {
	switch mode {
	case "auto":
		return nil, nil
	case "on":
		return []core.Option{core.WithDecomposition()}, nil
	case "off":
		return []core.Option{core.WithoutDecomposition()}, nil
	default:
		return nil, fmt.Errorf("unknown -decompose %q (want auto, on or off)", mode)
	}
}

// parseKernel maps the -kernel flag to an LP kernel selector; the empty
// string defers to the solver default (auto dispatch between the LU and eta
// sparse kernels; see lp.KernelAuto).
func parseKernel(name string) (lp.Kernel, error) {
	switch name {
	case "":
		return lp.KernelAuto, nil
	case "sparse", "lu":
		return lp.KernelLU, nil
	case "eta":
		return lp.KernelEta, nil
	case "dense":
		return lp.KernelDense, nil
	default:
		return lp.KernelAuto, fmt.Errorf("unknown -kernel %q (want sparse, lu, eta or dense)", name)
	}
}

func cmdSweep(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	modelPath := fs.String("model", "", "JSON system model (default: case study)")
	steps := fs.Int("steps", 10, "number of budget steps between 0 and the total cost")
	seed := fs.Int64("seed", 1, "seed for the random baseline")
	workers := fs.Int("workers", 0, "concurrent solves (0 = GOMAXPROCS)")
	solverWorkers := fs.Int("solver-workers", 1, "branch-and-bound workers per solve (0 = GOMAXPROCS)")
	deadline := fs.Duration("deadline", 0, "overall sweep deadline; expired solves return anytime results")
	cold := fs.Bool("cold", false, "solve every budget point from scratch instead of the warm-shared sweep")
	profiles := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := profiles.start()
	if err != nil {
		return err
	}
	defer stopProfiles()
	idx, err := loadIndex(*modelPath)
	if err != nil {
		return err
	}
	sweepOpts := []core.Option{core.WithWorkers(*solverWorkers)}
	if *deadline > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *deadline)
		defer cancel()
		sweepOpts = append(sweepOpts, core.WithContext(ctx))
	}
	if *cold {
		sweepOpts = append(sweepOpts, core.WithoutSweepWarmStart())
	}
	opt := core.NewOptimizer(idx, sweepOpts...)
	// The warm-shared sweep carries LP bases and incumbents between
	// neighboring budget points; it reports the same curve as -cold, faster.
	points, err := opt.ParetoSweepWarm(core.BudgetGrid(idx, *steps), *seed, *workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%10s %10s %10s %10s\n", "budget", "optimal", "greedy", "random")
	for _, p := range points {
		fmt.Fprintf(out, "%10.0f %10.4f %10.4f %10.4f\n",
			p.Budget, p.Optimal.Utility, p.Greedy.Utility, p.Random.Utility)
	}
	return stopProfiles()
}

func cmdSynth(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("synth", flag.ContinueOnError)
	monitors := fs.Int("monitors", 50, "number of monitors")
	attacks := fs.Int("attacks", 50, "number of attacks")
	seed := fs.Int64("seed", 1, "generator seed")
	segments := fs.Int("segments", 0, "block-structured generation: number of segments (0 = unstructured)")
	cross := fs.Float64("cross", 0, "fraction of monitors producing across segment boundaries (with -segments)")
	outPath := fs.String("o", "", "output file (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sys, err := synth.Generate(synth.Config{
		Seed: *seed, Monitors: *monitors, Attacks: *attacks,
		Segments: *segments, CrossFraction: *cross,
	})
	if err != nil {
		return err
	}
	w := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return fmt.Errorf("create output: %w", err)
		}
		defer f.Close()
		w = f
	}
	return model.EncodeSystem(w, sys)
}

func cmdSimulate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	modelPath := fs.String("model", "", "JSON system model (default: case study)")
	monitors := fs.String("monitors", "", "comma-separated monitor IDs to deploy")
	all := fs.Bool("all", false, "deploy every monitor")
	trials := fs.Int("trials", 100, "trials per attack")
	seed := fs.Int64("seed", 1, "simulation seed")
	manifest := fs.Float64("manifest", 1.0, "evidence manifestation probability")
	capture := fs.Float64("capture", 1.0, "monitor capture probability")
	threshold := fs.Float64("threshold", 0, "detection threshold (fraction of steps)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	idx, err := loadIndex(*modelPath)
	if err != nil {
		return err
	}
	var d *model.Deployment
	if *all {
		d = model.NewDeployment(idx.MonitorIDs()...)
	} else {
		if d, err = parseMonitors(idx, *monitors); err != nil {
			return err
		}
	}
	sum, err := simulate.Run(idx, d, simulate.Config{
		Seed:               *seed,
		Trials:             *trials,
		ManifestProb:       *manifest,
		CaptureProb:        *capture,
		DetectionThreshold: *threshold,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-28s %8s %10s %10s %10s\n", "attack", "weight", "detect", "evidence", "steps")
	for _, s := range sum.PerAttack {
		fmt.Fprintf(out, "%-28s %8.1f %10.3f %10.3f %10.3f\n",
			s.Attack, s.Weight, s.DetectionRate, s.EvidenceRecall, s.StepRecall)
	}
	fmt.Fprintf(out, "weighted detection rate %.4f, weighted evidence recall %.4f (%d events)\n",
		sum.WeightedDetectionRate, sum.WeightedEvidenceRecall, sum.Events)
	return nil
}

func cmdGraph(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("graph", flag.ContinueOnError)
	modelPath := fs.String("model", "", "JSON system model (default: case study)")
	monitors := fs.String("monitors", "", "comma-separated monitor IDs to highlight as deployed")
	outPath := fs.String("o", "", "output file (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	idx, err := loadIndex(*modelPath)
	if err != nil {
		return err
	}
	var deployment *model.Deployment
	if *monitors != "" {
		if deployment, err = parseMonitors(idx, *monitors); err != nil {
			return err
		}
	}
	w := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return fmt.Errorf("create output: %w", err)
		}
		defer f.Close()
		w = f
	}
	return graph.WriteDOT(w, idx, deployment)
}

func cmdTrace(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	modelPath := fs.String("model", "", "JSON system model (default: case study)")
	attack := fs.String("attack", "", "attack to simulate (required unless -in)")
	monitors := fs.String("monitors", "", "comma-separated deployed monitors capturing the trace")
	all := fs.Bool("all", false, "capture with every monitor deployed")
	seed := fs.Int64("seed", 1, "trace seed")
	inPath := fs.String("in", "", "attribute an existing JSONL trace instead of generating one")
	outPath := fs.String("o", "", "write the generated trace as JSONL to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	idx, err := loadIndex(*modelPath)
	if err != nil {
		return err
	}

	var events []simulate.Event
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			return fmt.Errorf("open trace: %w", err)
		}
		defer f.Close()
		if events, err = trace.Read(f); err != nil {
			return err
		}
	} else {
		if *attack == "" {
			return fmt.Errorf("trace: provide -attack or -in")
		}
		if events, err = simulate.Trace(idx, model.AttackID(*attack), *seed, 1); err != nil {
			return err
		}
		var d *model.Deployment
		if *all {
			d = model.NewDeployment(idx.MonitorIDs()...)
		} else if d, err = parseMonitors(idx, *monitors); err != nil {
			return err
		}
		for i := range events {
			for _, mid := range idx.Producers(events[i].Data) {
				if d.Contains(mid) {
					events[i].CapturedBy = append(events[i].CapturedBy, mid)
				}
			}
		}
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return fmt.Errorf("create trace file: %w", err)
		}
		defer f.Close()
		if err := trace.Write(f, events); err != nil {
			return err
		}
	}

	captured := 0
	for _, e := range events {
		if len(e.CapturedBy) > 0 {
			captured++
		}
	}
	fmt.Fprintf(out, "trace: %d events, %d captured\n", len(events), captured)
	fmt.Fprintf(out, "%-28s %8s %10s %12s\n", "attack hypothesis", "score", "matched", "unexplained")
	for _, a := range trace.Attribute(idx, events) {
		fmt.Fprintf(out, "%-28s %8.3f %6d/%-3d %12d\n",
			a.Attack, a.Score, a.MatchedEvidence, a.TotalEvidence, a.Unexplained)
	}
	return nil
}

func cmdReport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	modelPath := fs.String("model", "", "JSON system model (default: case study)")
	monitors := fs.String("monitors", "", "comma-separated deployed monitor IDs")
	deploymentPath := fs.String("deployment", "", "deployment JSON file (as written by optimize -save)")
	all := fs.Bool("all", false, "assess the full deployment")
	optimal := fs.Float64("optimal-budget", -1, "assess the optimal deployment at this budget instead")
	outPath := fs.String("o", "", "output file (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	idx, err := loadIndex(*modelPath)
	if err != nil {
		return err
	}
	var d *model.Deployment
	switch {
	case *optimal >= 0:
		res, err := core.NewOptimizer(idx).MaxUtility(*optimal)
		if err != nil {
			return err
		}
		d = res.Deployment
	case *all:
		d = model.NewDeployment(idx.MonitorIDs()...)
	case *deploymentPath != "":
		if d, err = loadDeployment(idx, *deploymentPath); err != nil {
			return err
		}
	default:
		if d, err = parseMonitors(idx, *monitors); err != nil {
			return err
		}
	}
	w := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return fmt.Errorf("create output: %w", err)
		}
		defer f.Close()
		w = f
	}
	return report.Write(w, idx, d)
}

func cmdCompare(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	modelPath := fs.String("model", "", "JSON system model (default: case study)")
	aList := fs.String("a", "", "comma-separated monitors of deployment A")
	bList := fs.String("b", "", "comma-separated monitors of deployment B")
	if err := fs.Parse(args); err != nil {
		return err
	}
	idx, err := loadIndex(*modelPath)
	if err != nil {
		return err
	}
	da, err := parseMonitors(idx, *aList)
	if err != nil {
		return fmt.Errorf("deployment A: %w", err)
	}
	db, err := parseMonitors(idx, *bList)
	if err != nil {
		return fmt.Errorf("deployment B: %w", err)
	}
	ra := metrics.Evaluate(idx, da)
	rb := metrics.Evaluate(idx, db)

	fmt.Fprintf(out, "%-28s %12s %12s %12s\n", "metric", "A", "B", "B-A")
	row := func(name string, a, b float64) {
		fmt.Fprintf(out, "%-28s %12.4f %12.4f %+12.4f\n", name, a, b, b-a)
	}
	row("monitors", float64(len(ra.Deployment)), float64(len(rb.Deployment)))
	row("cost", ra.Cost, rb.Cost)
	row("utility", ra.Utility, rb.Utility)
	row("richness", ra.Richness, rb.Richness)
	row("mean redundancy", ra.MeanRedundancy, rb.MeanRedundancy)
	row("corroborated utility", ra.CorroboratedUtility, rb.CorroboratedUtility)
	row("distinguishability", ra.Distinguishability, rb.Distinguishability)
	row("earliness", ra.Earliness, rb.Earliness)

	fmt.Fprintf(out, "\n%-28s %8s %8s\n", "attack coverage", "A", "B")
	for i, a := range ra.Attacks {
		marker := " "
		if rb.Attacks[i].Coverage > a.Coverage+1e-9 {
			marker = "+"
		} else if rb.Attacks[i].Coverage < a.Coverage-1e-9 {
			marker = "-"
		}
		fmt.Fprintf(out, "%-28s %8.3f %8.3f %s\n", a.ID, a.Coverage, rb.Attacks[i].Coverage, marker)
	}
	return nil
}

func cmdExperiments(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	run := fs.String("run", "", "experiment ID to run (default: all)")
	list := fs.Bool("list", false, "list experiments")
	outPath := fs.String("o", "", "output file (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return fmt.Errorf("create output: %w", err)
		}
		defer f.Close()
		out = f
	}
	if *list {
		for _, e := range experiment.All() {
			fmt.Fprintf(out, "%-3s %-6s %s\n", e.ID, e.Kind, e.Title)
		}
		return nil
	}
	if *run != "" {
		e, ok := experiment.ByID(*run)
		if !ok {
			return fmt.Errorf("unknown experiment %q (known: %s)", *run, strings.Join(experiment.IDs(), ", "))
		}
		return experiment.RunOne(out, e)
	}
	return experiment.RunAll(out)
}

func joinIDs(ids []model.MonitorID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = string(id)
	}
	return strings.Join(parts, ", ")
}

package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"secmon/internal/ilp"
	"secmon/internal/metrics"
	"secmon/internal/model"
	"secmon/internal/synth"
)

const testTol = 1e-9

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

// testIndex builds the canonical optimization fixture:
//
//	monitors (cost): m-http (15), m-db (30), m-net (30), m-ids (40)
//	attacks: sqli (w=2, evidence {http-log, sql-audit})
//	         exfil (w=1, evidence {netflow})
//	         dos   (w=1, evidence {ids-alert, netflow})
//
// m-net produces {netflow, http-log}; m-ids produces {ids-alert}.
func testIndex(t *testing.T) *model.Index {
	t.Helper()
	sys, err := model.NewBuilder("core-test").
		Asset("web", "Web server", "host").
		Asset("db", "Database", "host").
		Asset("net", "Network", "network").
		DataType("http-log", "HTTP access log", "web", "src", "url").
		DataType("sql-audit", "SQL audit log", "db", "user", "query").
		DataType("netflow", "Netflow record", "net", "src", "dst").
		DataType("ids-alert", "IDS alert", "net", "sig").
		Monitor("m-http", "Web log collector", "web", 10, 5, "http-log").
		Monitor("m-db", "DB audit", "db", 20, 10, "sql-audit").
		Monitor("m-net", "Netflow probe", "net", 30, 0, "netflow", "http-log").
		Monitor("m-ids", "Network IDS", "net", 25, 15, "ids-alert").
		Attack("sqli", "SQL injection", 2).
		Step("probe", "http-log").
		Step("inject", "http-log", "sql-audit").
		Done().
		Attack("exfil", "Data exfiltration", 1).
		Step("transfer", "netflow").
		Done().
		Attack("dos", "Denial of service", 1).
		Step("flood", "ids-alert", "netflow").
		Done().
		Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	idx, err := model.NewIndex(sys)
	if err != nil {
		t.Fatalf("index: %v", err)
	}
	return idx
}

func TestMaxUtilityZeroBudget(t *testing.T) {
	opt := NewOptimizer(testIndex(t))
	res, err := opt.MaxUtility(0)
	if err != nil {
		t.Fatalf("MaxUtility: %v", err)
	}
	if res.Utility != 0 || res.Cost != 0 || res.Deployment.Len() != 0 {
		t.Errorf("zero-budget result = %+v", res)
	}
	if !res.Proven {
		t.Error("zero-budget result not proven")
	}
}

func TestMaxUtilityFullBudget(t *testing.T) {
	idx := testIndex(t)
	opt := NewOptimizer(idx)
	res, err := opt.MaxUtility(idx.System().TotalMonitorCost())
	if err != nil {
		t.Fatalf("MaxUtility: %v", err)
	}
	if !approx(res.Utility, 1) {
		t.Errorf("utility = %v, want 1 at full budget", res.Utility)
	}
	if res.Cost > idx.System().TotalMonitorCost()+testTol {
		t.Errorf("cost %v exceeds total", res.Cost)
	}
}

func TestMaxUtilityMatchesExhaustive(t *testing.T) {
	idx := testIndex(t)
	opt := NewOptimizer(idx)
	for _, budget := range []float64{0, 15, 30, 45, 60, 75, 90, 115} {
		res, err := opt.MaxUtility(budget)
		if err != nil {
			t.Fatalf("MaxUtility(%v): %v", budget, err)
		}
		ref, err := Exhaustive(idx, budget)
		if err != nil {
			t.Fatalf("Exhaustive(%v): %v", budget, err)
		}
		if !approx(res.Utility, ref.Utility) {
			t.Errorf("budget %v: ILP utility %v != exhaustive %v", budget, res.Utility, ref.Utility)
		}
		if res.Cost > budget+testTol {
			t.Errorf("budget %v: cost %v over budget", budget, res.Cost)
		}
	}
}

func TestMaxUtilityBudget45PrefersNetAndHTTP(t *testing.T) {
	// At budget 45: m-net (30) covers netflow+http-log -> sqli 1/2, exfil 1,
	// dos 1/2 -> (2*0.5+1+0.5)/4 = 0.625; adding m-http adds nothing new.
	// m-http+m-db (45) -> sqli 1 -> 0.5. m-net+m-http (45) -> 0.625.
	// So optimum is m-net (+ possibly m-http pruned away) with 0.625.
	idx := testIndex(t)
	opt := NewOptimizer(idx)
	res, err := opt.MaxUtility(45)
	if err != nil {
		t.Fatalf("MaxUtility: %v", err)
	}
	if !approx(res.Utility, 0.625) {
		t.Errorf("utility = %v, want 0.625", res.Utility)
	}
	if !res.Deployment.Contains("m-net") {
		t.Errorf("deployment %v does not contain m-net", res.Monitors)
	}
	// Pruning must have removed any zero-gain filler monitors.
	for _, id := range res.Monitors {
		trimmed := res.Deployment.Clone()
		trimmed.Remove(id)
		if approx(metrics.Utility(idx, trimmed), res.Utility) {
			t.Errorf("monitor %s is redundant in pruned deployment", id)
		}
	}
}

func TestMaxUtilityWithoutPruningStillOptimal(t *testing.T) {
	idx := testIndex(t)
	opt := NewOptimizer(idx, WithoutPruning())
	res, err := opt.MaxUtility(45)
	if err != nil {
		t.Fatalf("MaxUtility: %v", err)
	}
	if !approx(res.Utility, 0.625) {
		t.Errorf("utility = %v, want 0.625", res.Utility)
	}
}

func TestMaxUtilityExpandedFormulationAgrees(t *testing.T) {
	idx := testIndex(t)
	compact := NewOptimizer(idx)
	expanded := NewOptimizer(idx, WithExpandedFormulation())
	for _, budget := range []float64{15, 45, 75} {
		a, err := compact.MaxUtility(budget)
		if err != nil {
			t.Fatalf("compact(%v): %v", budget, err)
		}
		b, err := expanded.MaxUtility(budget)
		if err != nil {
			t.Fatalf("expanded(%v): %v", budget, err)
		}
		if !approx(a.Utility, b.Utility) {
			t.Errorf("budget %v: compact %v != expanded %v", budget, a.Utility, b.Utility)
		}
	}
}

func TestMaxUtilityIncremental(t *testing.T) {
	idx := testIndex(t)
	opt := NewOptimizer(idx)
	existing := model.NewDeployment("m-ids")

	res, err := opt.MaxUtilityIncremental(30, existing)
	if err != nil {
		t.Fatalf("MaxUtilityIncremental: %v", err)
	}
	if !res.Deployment.Contains("m-ids") {
		t.Error("existing monitor dropped")
	}
	// New spend: only 30 -> m-net is the best addition.
	newSpend := 0.0
	for _, id := range res.Monitors {
		if !existing.Contains(id) {
			m, _ := idx.Monitor(id)
			newSpend += m.TotalCost()
		}
	}
	if newSpend > 30+testTol {
		t.Errorf("new spend %v exceeds incremental budget", newSpend)
	}
	if !res.Deployment.Contains("m-net") {
		t.Errorf("deployment %v should add m-net", res.Monitors)
	}
	// dos fully covered (ids-alert + netflow), exfil 1, sqli 1/2.
	if !approx(res.Utility, (2*0.5+1+1)/4) {
		t.Errorf("utility = %v, want 0.75", res.Utility)
	}
}

func TestMaxUtilityIncrementalUnknownMonitor(t *testing.T) {
	opt := NewOptimizer(testIndex(t))
	_, err := opt.MaxUtilityIncremental(10, model.NewDeployment("ghost"))
	if !errors.Is(err, ErrUnknownMonitor) {
		t.Errorf("error = %v, want ErrUnknownMonitor", err)
	}
}

func TestMaxUtilityBadBudget(t *testing.T) {
	opt := NewOptimizer(testIndex(t))
	for _, b := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := opt.MaxUtility(b); !errors.Is(err, ErrBadBudget) {
			t.Errorf("MaxUtility(%v) error = %v, want ErrBadBudget", b, err)
		}
	}
}

func TestMinCostFullCoverage(t *testing.T) {
	idx := testIndex(t)
	opt := NewOptimizer(idx)
	res, err := opt.MinCost(CoverageTargets{Global: 1})
	if err != nil {
		t.Fatalf("MinCost: %v", err)
	}
	// Full coverage needs sql-audit (m-db), ids-alert (m-ids), netflow
	// (m-net) and http-log (m-net covers it): 30+40+30 = 100.
	if !approx(res.Cost, 100) {
		t.Errorf("cost = %v, want 100 (%v)", res.Cost, res.Monitors)
	}
	if !approx(res.Utility, 1) {
		t.Errorf("utility = %v, want 1", res.Utility)
	}
}

func TestMinCostPartialTargets(t *testing.T) {
	idx := testIndex(t)
	opt := NewOptimizer(idx)
	// Half coverage of every attack: sqli needs 1 of 2, exfil 1 of 1,
	// dos 1 of 2. m-net alone (30) covers http-log + netflow: sqli 1/2,
	// exfil 1, dos 1/2.
	res, err := opt.MinCost(CoverageTargets{Global: 0.5})
	if err != nil {
		t.Fatalf("MinCost: %v", err)
	}
	if !approx(res.Cost, 30) {
		t.Errorf("cost = %v, want 30 (%v)", res.Cost, res.Monitors)
	}
}

func TestMinCostPerAttackOverride(t *testing.T) {
	idx := testIndex(t)
	opt := NewOptimizer(idx)
	res, err := opt.MinCost(CoverageTargets{
		Global:    0,
		PerAttack: map[model.AttackID]float64{"exfil": 1},
	})
	if err != nil {
		t.Fatalf("MinCost: %v", err)
	}
	// Cheapest netflow producer is m-net at 30.
	if !approx(res.Cost, 30) {
		t.Errorf("cost = %v, want 30 (%v)", res.Cost, res.Monitors)
	}
	if metrics.AttackCoverage(idx, res.Deployment, "exfil") < 1-testTol {
		t.Error("exfil not fully covered")
	}
}

func TestMinCostZeroTargetsEmpty(t *testing.T) {
	opt := NewOptimizer(testIndex(t))
	res, err := opt.MinCost(CoverageTargets{Global: 0})
	if err != nil {
		t.Fatalf("MinCost: %v", err)
	}
	if res.Cost != 0 || res.Deployment.Len() != 0 {
		t.Errorf("zero-target result = %v (cost %v)", res.Monitors, res.Cost)
	}
}

func TestMinCostInfeasibleTargets(t *testing.T) {
	// Add an attack whose evidence nobody produces.
	idx := testIndex(t)
	sys := idx.System().Clone()
	sys.DataTypes = append(sys.DataTypes, model.DataType{ID: "memory", Name: "Memory dump"})
	sys.Attacks = append(sys.Attacks, model.Attack{
		ID: "rootkit", Name: "Rootkit", Weight: 1,
		Steps: []model.AttackStep{{Name: "hide", Evidence: []model.DataTypeID{"memory"}}},
	})
	idx2, err := model.NewIndex(sys)
	if err != nil {
		t.Fatal(err)
	}

	opt := NewOptimizer(idx2)
	if _, err := opt.MinCost(CoverageTargets{Global: 1}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("error = %v, want ErrInfeasible", err)
	}

	// With the clamp the solve succeeds, covering everything observable.
	clamped := NewOptimizer(idx2, WithClampToAchievable())
	res, err := clamped.MinCost(CoverageTargets{Global: 1})
	if err != nil {
		t.Fatalf("clamped MinCost: %v", err)
	}
	for _, a := range []model.AttackID{"sqli", "exfil", "dos"} {
		if metrics.AttackCoverage(idx2, res.Deployment, a) < 1-testTol {
			t.Errorf("attack %s not fully covered under clamp", a)
		}
	}
}

func TestMinCostBadTargets(t *testing.T) {
	opt := NewOptimizer(testIndex(t))
	for _, bad := range []CoverageTargets{
		{Global: -0.1},
		{Global: 1.1},
		{Global: math.NaN()},
		{PerAttack: map[model.AttackID]float64{"sqli": 2}},
		{PerAttack: map[model.AttackID]float64{"ghost": 0.5}},
	} {
		if _, err := opt.MinCost(bad); !errors.Is(err, ErrBadTarget) {
			t.Errorf("MinCost(%+v) error = %v, want ErrBadTarget", bad, err)
		}
	}
}

func TestMinCostExpandedFormulationAgrees(t *testing.T) {
	idx := testIndex(t)
	compact := NewOptimizer(idx)
	expanded := NewOptimizer(idx, WithExpandedFormulation())
	for _, tau := range []float64{0.25, 0.5, 0.75, 1} {
		a, err := compact.MinCost(CoverageTargets{Global: tau})
		if err != nil {
			t.Fatalf("compact(%v): %v", tau, err)
		}
		b, err := expanded.MinCost(CoverageTargets{Global: tau})
		if err != nil {
			t.Fatalf("expanded(%v): %v", tau, err)
		}
		if !approx(a.Cost, b.Cost) {
			t.Errorf("tau %v: compact cost %v != expanded %v", tau, a.Cost, b.Cost)
		}
	}
}

func TestMinCostIncrementalKeepsExisting(t *testing.T) {
	idx := testIndex(t)
	opt := NewOptimizer(idx)
	existing := model.NewDeployment("m-http")
	res, err := opt.MinCostIncremental(CoverageTargets{Global: 0.5}, existing)
	if err != nil {
		t.Fatalf("MinCostIncremental: %v", err)
	}
	if !res.Deployment.Contains("m-http") {
		t.Error("existing monitor dropped")
	}
}

// TestMinCostIncrementalBoundIncludesKept checks that a proven incremental
// MinCost reports its bound in Cost's units: the kept monitors' cost, which
// the ILP does not charge, is part of both, so BestBound equals Cost.
func TestMinCostIncrementalBoundIncludesKept(t *testing.T) {
	idx := synthIndex(t, synth.Config{Seed: 3, Monitors: 40, Attacks: 40})
	ids := idx.MonitorIDs()
	existing := model.NewDeployment(ids[0], ids[1])
	for _, decompose := range []bool{false, true} {
		opts := []Option{WithWorkers(1), WithClampToAchievable()}
		if decompose {
			opts = append(opts, WithDecomposition())
		}
		res, err := NewOptimizer(idx, opts...).MinCostIncremental(CoverageTargets{Global: 0.7}, existing)
		if err != nil {
			t.Fatalf("decompose %v: %v", decompose, err)
		}
		if !res.Proven || !res.BoundKnown {
			t.Fatalf("decompose %v: proven %v, bound known %v; want a proven bound", decompose, res.Proven, res.BoundKnown)
		}
		if math.Abs(res.BestBound-res.Cost) > 1e-9*math.Abs(res.Cost) {
			t.Errorf("decompose %v: BestBound %v, Cost %v; want equal when proven", decompose, res.BestBound, res.Cost)
		}
	}
}

func TestSolverOptionsPassthrough(t *testing.T) {
	idx := testIndex(t)
	opt := NewOptimizer(idx, WithSolverOptions(ilp.WithoutDiving()))
	res, err := opt.MaxUtility(45)
	if err != nil {
		t.Fatalf("MaxUtility: %v", err)
	}
	if !approx(res.Utility, 0.625) {
		t.Errorf("utility = %v, want 0.625", res.Utility)
	}
}

func TestOptimizerIndexAccessor(t *testing.T) {
	idx := testIndex(t)
	if NewOptimizer(idx).Index() != idx {
		t.Error("Index() did not return the construction index")
	}
}

func TestCoverageTargetsTarget(t *testing.T) {
	c := CoverageTargets{Global: 0.5, PerAttack: map[model.AttackID]float64{"a": 0.9}}
	if c.Target("a") != 0.9 {
		t.Errorf("Target(a) = %v", c.Target("a"))
	}
	if c.Target("b") != 0.5 {
		t.Errorf("Target(b) = %v", c.Target("b"))
	}
}

func TestMaxUtilitySolverLimitNoIncumbentFallsBack(t *testing.T) {
	// Anytime contract: a time limit so tight that the solver stops with no
	// incumbent yields the greedy fallback deployment, not an error.
	idx := testIndex(t)
	opt := NewOptimizer(idx, WithSolverOptions(
		ilp.WithTimeLimit(time.Nanosecond), ilp.WithoutDiving()))
	res, err := opt.MaxUtility(45)
	if err != nil {
		t.Fatalf("limit-stopped solve without incumbent errored: %v", err)
	}
	if !res.Fallback {
		t.Error("limit-stopped solve without incumbent not marked Fallback")
	}
	if res.Proven {
		t.Error("fallback result claims Proven")
	}
	if res.Status != ilp.StatusLimit.String() {
		t.Errorf("fallback status = %q, want %q", res.Status, ilp.StatusLimit)
	}
	if res.Cost > 45+testTol {
		t.Errorf("fallback cost %v over budget", res.Cost)
	}
	greedy, err := Greedy(idx, 45)
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	if res.Utility != greedy.Utility {
		t.Errorf("fallback utility %v != greedy utility %v", res.Utility, greedy.Utility)
	}
}

func TestMaxUtilityNodeLimitWithIncumbentSucceeds(t *testing.T) {
	// With the diving heuristic an incumbent exists after the first node,
	// so a node-limited solve returns a feasible (possibly unproven)
	// deployment.
	idx := testIndex(t)
	opt := NewOptimizer(idx, WithSolverOptions(ilp.WithMaxNodes(1)))
	res, err := opt.MaxUtility(45)
	if err != nil {
		t.Fatalf("MaxUtility: %v", err)
	}
	if res.Cost > 45+testTol {
		t.Errorf("cost %v over budget", res.Cost)
	}
	if res.Proven && res.Stats.Nodes <= 1 && res.Utility < 0.625-testTol {
		t.Errorf("unexpected result: %+v", res)
	}
}

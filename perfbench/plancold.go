package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"secmon/internal/core"
	"secmon/internal/lp"
	"secmon/internal/metrics"
	"secmon/internal/model"
	"secmon/internal/synth"
)

// plan-cold: a closed loop with one client. Every cycle solves each instance
// of three seeded classes from cold — a fresh core.NewOptimizer at one worker
// per solve, MaxUtility and MinCost to proven optimality — plus one warm
// Pareto sweep. lp, ilp and decomp do nearly all the work; server and state
// are idle.
const (
	planLimit = 5 * time.Second // latency limit behind slo_met_share

	// With planSmall = 2*planMid + 2, a cycle's small MinCost solves take
	// its middle ranks by latency, so latency_p50_ms sits in the middle of
	// that mode rather than on the edge between the two small-solve modes.
	planSmall = 50 // small instances: bases under 256 rows, the eta kernel
	planMid   = 24 // mid instances: bases over 256 rows, the LU kernel

	planSweepPoints = 9 // warm sweep budget points, 40% to 80% of total cost
)

// The scale class is two fixed block-structured instances routed through
// auto-gated decomposition (at least core.DecompositionThreshold monitors).
// They do not depend on the seed: their solve time varies more than twofold
// across synth seeds, and a pair of such solves would carry most of the
// seed-to-seed spread of the whole workload. Their proven optima are
// committed below (TestScaleOptima re-derives them on the monolithic path).
var (
	scaleMaxUtil = synth.Config{Seed: 7919, Monitors: 1500, Attacks: 300, Segments: 30}
	scaleMinCost = synth.Config{Seed: 7919, Monitors: 5000, Attacks: 1000, Segments: 100}
)

const (
	scaleMaxUtilBudgetFraction = 0.22
	scaleMinCostTarget         = 0.9

	// Proven optima of the scale instances: MaxUtility utility at the
	// budget, MinCost cost at the clamped target.
	scaleMaxUtilOptimum = 0.98374527717755289
	scaleMinCostOptimum = 61931.900000000009
)

// planInst is one instance of the plan-cold pool.
type planInst struct {
	class  string // "small", "mid" or "scale"
	name   string
	idx    *model.Index
	budget float64 // MaxUtility budget; negative when the instance has no MaxUtility op
	target float64 // MinCost global target; 0 when the instance has no MinCost op

	// Reference optima from a different solver path (see refOptimizer),
	// computed on first use outside the measured window, or committed for
	// the scale class.
	refUtil, refCost   float64
	haveUtil, haveCost bool
	sweepBudgets       []float64
	sweepRef           []float64
	fullCoverage       map[model.AttackID]float64
}

type planOp struct {
	inst *planInst
	kind string // "maxutil", "mincost" or "sweep"
}

type planCold struct {
	e       env
	insts   []*planInst
	cycle   []planOp
	indexMS float64
	// passed holds, per op, the signature of the last results that passed
	// every check: every cycle repeats the same ops, and a result identical
	// to one already verified passes without recomputing the checks.
	passed map[planOp]string
}

func setupPlanCold(e env) (runner, error) {
	rng := rand.New(rand.NewSource(e.seed))
	p := &planCold{e: e, passed: map[planOp]string{}}
	nSmall, nMid := planSmall, planMid
	if e.smoke {
		nSmall, nMid = 4, 2
	}
	add := func(class string, cfg synth.Config, budgetFrac, target float64) error {
		sys, err := synth.Generate(cfg)
		if err != nil {
			return fmt.Errorf("synth %s: %w", class, err)
		}
		t0 := time.Now()
		idx, err := model.NewIndex(sys)
		if err != nil {
			return fmt.Errorf("index %s: %w", class, err)
		}
		p.indexMS += ms(time.Since(t0))
		inst := &planInst{
			class: class, idx: idx, target: target, budget: -1,
			name: fmt.Sprintf("%s-%dx%d-s%d", class, cfg.Monitors, cfg.Attacks, cfg.Seed),
		}
		if budgetFrac > 0 {
			inst.budget = sys.TotalMonitorCost() * budgetFrac
		}
		p.insts = append(p.insts, inst)
		return nil
	}
	for i := 0; i < nSmall; i++ {
		cfg := synth.Config{Seed: rng.Int63(), Monitors: 40, Attacks: 40}
		if err := add("small", cfg, 0.4, 0.8); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nMid; i++ {
		cfg := synth.Config{Seed: rng.Int63(), Monitors: 350, Attacks: 280}
		if err := add("mid", cfg, 0.4, 0.9); err != nil {
			return nil, err
		}
	}
	if err := add("scale", scaleMaxUtil, scaleMaxUtilBudgetFraction, 0); err != nil {
		return nil, err
	}
	if err := add("scale", scaleMinCost, 0, scaleMinCostTarget); err != nil {
		return nil, err
	}
	for _, inst := range p.insts {
		if inst.budget >= 0 {
			p.cycle = append(p.cycle, planOp{inst, "maxutil"})
		}
		if inst.target > 0 {
			p.cycle = append(p.cycle, planOp{inst, "mincost"})
		}
	}
	sweepOn := p.insts[nSmall] // the first mid instance
	total := sweepOn.idx.System().TotalMonitorCost()
	for i := 0; i < planSweepPoints; i++ {
		frac := 0.4 + 0.4*float64(i)/float64(planSweepPoints-1)
		sweepOn.sweepBudgets = append(sweepOn.sweepBudgets, total*frac)
	}
	p.cycle = append(p.cycle, planOp{sweepOn, "sweep"})
	// A seeded order interleaves the classes, so cheap solves meet the
	// garbage collector in the state the whole cycle leaves it, not only
	// in the state the small class leaves it.
	rng.Shuffle(len(p.cycle), func(i, j int) { p.cycle[i], p.cycle[j] = p.cycle[j], p.cycle[i] })

	scaleU, scaleC := p.insts[len(p.insts)-2], p.insts[len(p.insts)-1]
	scaleU.refUtil, scaleU.haveUtil = scaleMaxUtilOptimum, true
	scaleC.refCost, scaleC.haveCost = scaleMinCostOptimum, true
	if e.corrupt {
		scaleU.refUtil += 1e-3
		scaleC.refCost += 1
	}
	return p, nil
}

func (p *planCold) close() error { return nil }

// solve runs one op from cold and returns its results: one for MaxUtility
// and MinCost, one per budget point for the sweep.
func (p *planCold) solve(op planOp, tr *tracer, root spanRef) ([]*core.Result, error) {
	sp := tr.child(root, "core."+op.kind+"["+op.inst.class+"]")
	defer tr.end(sp)
	switch op.kind {
	case "maxutil":
		res, err := core.NewOptimizer(op.inst.idx, core.WithWorkers(1)).MaxUtility(op.inst.budget)
		return []*core.Result{res}, err
	case "mincost":
		opt := core.NewOptimizer(op.inst.idx, core.WithWorkers(1), core.WithClampToAchievable())
		res, err := opt.MinCost(core.CoverageTargets{Global: op.inst.target})
		return []*core.Result{res}, err
	default:
		pts, err := core.NewOptimizer(op.inst.idx, core.WithWorkers(1)).
			ParetoSweepWarm(op.inst.sweepBudgets, p.e.seed, 1)
		out := make([]*core.Result, len(pts))
		for i := range pts {
			out[i] = pts[i].Optimal
		}
		return out, err
	}
}

func (p *planCold) run(d time.Duration, tr *tracer) (*passResult, error) {
	var ops []opRecord
	var agg solveAgg
	classTime := map[string]time.Duration{}
	lat := map[string][]float64{}
	iters := map[string]float64{}
	opID := int64(0)
	m := startMeter()
	cycles := 0
	planMS := map[string][]float64{} // per-instance MaxUtility + MinCost time, by class
	for cycles == 0 || m.elapsed() < d {
		instTime := map[*planInst]time.Duration{}
		for _, op := range p.cycle {
			opID++
			root := tr.begin("plan-cold.op", opID)
			t0 := time.Now()
			results, err := p.solve(op, tr, root)
			took := time.Since(t0)
			tr.end(root)

			m.pause()
			if err == nil {
				if sig := signature(results); p.passed[op] != sig {
					if err = p.check(op, results); err == nil {
						p.passed[op] = sig
					}
				}
			}
			m.resume()

			ops = append(ops, opRecord{class: op.inst.class + "/" + op.kind, latency: took, err: err})
			class := op.inst.class
			key := class
			if op.kind == "sweep" {
				key = "sweep"
			} else if class == "scale" {
				key = "scale_" + op.kind
			}
			classTime[class] += took
			lat[key] = append(lat[key], ms(took))
			if op.kind != "sweep" {
				instTime[op.inst] += took
			}
			if err == nil {
				for _, r := range results {
					agg.add(&r.Stats)
					iters[key] += float64(r.Stats.LPIterations)
				}
			}
		}
		for _, inst := range p.insts {
			if inst.class != "scale" {
				planMS[inst.class] = append(planMS[inst.class], ms(instTime[inst]))
			}
		}
		cycles++
	}
	win := m.finish()

	layer := map[string]float64{
		"core.small_ms_p50":         median(planMS["small"]),
		"core.mid_ms_p50":           median(planMS["mid"]),
		"core.sweep_ms":             median(lat["sweep"]),
		"core.scale_maxutil_ms":     median(lat["scale_maxutil"]),
		"core.scale_mincost_ms":     median(lat["scale_mincost"]),
		"model.index_ms":            p.indexMS,
		"lp.small_us_per_iteration": ratio(1000*sum(lat["small"]), iters["small"]),
		"lp.mid_us_per_iteration":   ratio(1000*sum(lat["mid"]), iters["mid"]),
	}
	total := classTime["small"] + classTime["mid"] + classTime["scale"]
	for _, c := range []string{"small", "mid", "scale"} {
		layer["plan."+c+"_time_share"] = ratio(float64(classTime[c]), float64(total))
	}
	agg.fill(layer)
	notes := []string{
		fmt.Sprintf("cycles %d of %d ops (%d small, %d mid, 2 scale instances; MaxUtility + MinCost each, 1 warm sweep of %d points)",
			cycles, len(p.cycle), countClass(p.insts, "small"), countClass(p.insts, "mid"), planSweepPoints),
		fmt.Sprintf("cycle time share: small %.3f, mid %.3f (sweep included), scale %.3f",
			layer["plan.small_time_share"], layer["plan.mid_time_share"], layer["plan.scale_time_share"]),
		fmt.Sprintf("median ms: small instance (MaxUtility + MinCost) %.2f, mid instance %.2f, sweep %.2f, scale maxutil %.1f, scale mincost %.1f",
			layer["core.small_ms_p50"], layer["core.mid_ms_p50"], layer["core.sweep_ms"],
			layer["core.scale_maxutil_ms"], layer["core.scale_mincost_ms"]),
	}
	return &passResult{ops: ops, win: win, layer: layer, notes: notes}, nil
}

func countClass(insts []*planInst, class string) int {
	n := 0
	for _, inst := range insts {
		if inst.class == class {
			n++
		}
	}
	return n
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// check verifies one op's results: proven optimal, utility and cost equal to
// their recomputation by internal/metrics, the budget or target held, and
// the objective equal to the reference optimum.
func (p *planCold) check(op planOp, results []*core.Result) error {
	inst := op.inst
	for i, res := range results {
		if res == nil || res.Deployment == nil {
			return checkFail("%s %s: no result", inst.name, op.kind)
		}
		if !res.Proven || res.Status != "optimal" {
			return checkFail("%s %s: not proven (status %q)", inst.name, op.kind, res.Status)
		}
		u := metrics.Utility(inst.idx, res.Deployment)
		c := metrics.Cost(inst.idx, res.Deployment)
		if !close9(u, res.Utility) || !close9(c, res.Cost) {
			return checkFail("%s %s: reported utility %v cost %v, recomputed %v %v", inst.name, op.kind, res.Utility, res.Cost, u, c)
		}
		switch op.kind {
		case "maxutil", "sweep":
			budget := inst.budget
			if op.kind == "sweep" {
				budget = inst.sweepBudgets[i]
			}
			if c > budget*(1+1e-9)+1e-9 {
				return checkFail("%s %s: cost %v over budget %v", inst.name, op.kind, c, budget)
			}
			ref := p.refMaxUtil(inst, op.kind, i)
			if !(math.Abs(u-ref) <= 1e-7) { // a NaN reference fails too
				return checkFail("%s %s: utility %.12f, reference optimum %.12f", inst.name, op.kind, u, ref)
			}
		case "mincost":
			if err := p.checkTargets(inst, res.Deployment); err != nil {
				return err
			}
			ref := p.refMinCost(inst)
			if !(math.Abs(c-ref) <= 1e-7*math.Max(1, ref)) {
				return checkFail("%s mincost: cost %.9f, reference optimum %.9f", inst.name, c, ref)
			}
		}
	}
	return nil
}

// signature identifies a set of results exactly: status, proof, objective
// and monitor set of each.
func signature(results []*core.Result) string {
	var b strings.Builder
	for _, r := range results {
		if r == nil {
			b.WriteString("nil;")
			continue
		}
		fmt.Fprintf(&b, "%s %v %x %x %v;", r.Status, r.Proven, math.Float64bits(r.Utility), math.Float64bits(r.Cost), r.Monitors)
	}
	return b.String()
}

func close9(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a)) }

// checkTargets verifies every attack's coverage meets the target, clamped
// to what deploying every monitor achieves.
func (p *planCold) checkTargets(inst *planInst, d *model.Deployment) error {
	if inst.fullCoverage == nil {
		full := model.NewDeployment(inst.idx.MonitorIDs()...)
		inst.fullCoverage = map[model.AttackID]float64{}
		for _, a := range inst.idx.AttackIDs() {
			inst.fullCoverage[a] = metrics.AttackCoverage(inst.idx, full, a)
		}
	}
	for _, a := range inst.idx.AttackIDs() {
		want := math.Min(inst.target, inst.fullCoverage[a])
		if got := metrics.AttackCoverage(inst.idx, d, a); got < want-1e-9 {
			return checkFail("%s mincost: attack %s coverage %v below target %v", inst.name, a, got, want)
		}
	}
	return nil
}

// refOptimizer is the reference solver path, a different LP kernel from the
// one auto-dispatch picks: the dense tableau oracle for small instances
// (auto picks eta there) and the eta kernel for mid ones (auto picks LU; the
// dense oracle is too slow at that size to check every run).
func refOptimizer(inst *planInst, opts ...core.Option) *core.Optimizer {
	kernel := core.WithDenseKernel()
	if inst.class != "small" {
		kernel = core.WithKernel(lp.KernelEta)
	}
	return core.NewOptimizer(inst.idx, append([]core.Option{kernel, core.WithWorkers(1)}, opts...)...)
}

// refMaxUtil returns the reference optimum for a MaxUtility op, or for
// budget point i of the sweep; NaN when the reference solve itself fails, so
// the check reports it.
func (p *planCold) refMaxUtil(inst *planInst, kind string, i int) float64 {
	if kind == "sweep" {
		if inst.sweepRef == nil {
			inst.sweepRef = make([]float64, len(inst.sweepBudgets))
			for j, b := range inst.sweepBudgets {
				inst.sweepRef[j] = p.refUtility(inst, b)
			}
		}
		return inst.sweepRef[i]
	}
	if !inst.haveUtil {
		inst.refUtil, inst.haveUtil = p.refUtility(inst, inst.budget), true
	}
	return inst.refUtil
}

func (p *planCold) refUtility(inst *planInst, budget float64) float64 {
	res, err := refOptimizer(inst).MaxUtility(budget)
	if err != nil || !res.Proven {
		return math.NaN()
	}
	if p.e.corrupt {
		return res.Utility + 1e-3
	}
	return res.Utility
}

func (p *planCold) refMinCost(inst *planInst) float64 {
	if !inst.haveCost {
		inst.refCost, inst.haveCost = math.NaN(), true
		res, err := refOptimizer(inst, core.WithClampToAchievable()).MinCost(core.CoverageTargets{Global: inst.target})
		if err == nil && res.Proven {
			inst.refCost = res.Cost
			if p.e.corrupt {
				inst.refCost += 1
			}
		}
	}
	return inst.refCost
}

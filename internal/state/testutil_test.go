package state

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"secmon/internal/core"
	"secmon/internal/model"
	"secmon/internal/synth"
)

// testSystem generates a deterministic synthetic system.
func testSystem(t testing.TB, seed int64, monitors, attacks int) *model.System {
	t.Helper()
	sys, err := synth.Generate(synth.Config{Seed: seed, Monitors: monitors, Attacks: attacks})
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	return sys
}

// randomDelta draws one valid delta against the current system, exercising
// all eight operations. The generated mutation may still be rejected by
// Mutate (e.g. a drop that makes MinCost targets unreachable); callers that
// need a committed mutation should retry on error.
func randomDelta(rng *rand.Rand, sys *model.System, spec SolveSpec, n int) Delta {
	for {
		switch rng.Intn(8) {
		case 0: // add-asset
			id := model.AssetID(fmt.Sprintf("gen-asset-%d", n))
			d := Delta{Op: OpAddAsset, Asset: &model.Asset{ID: id, Name: string(id), Kind: "host"}}
			for i := rng.Intn(3); i > 0; i-- {
				dtID := model.DataTypeID(fmt.Sprintf("gen-dt-%d-%d", n, i))
				d.DataTypes = append(d.DataTypes, model.DataType{ID: dtID, Name: string(dtID), Asset: id})
			}
			return d
		case 1: // drop-asset
			if len(sys.Assets) < 2 {
				continue
			}
			a := sys.Assets[rng.Intn(len(sys.Assets))]
			return Delta{Op: OpDropAsset, AssetID: a.ID}
		case 2: // add-monitor
			if len(sys.Assets) == 0 || len(sys.DataTypes) == 0 {
				continue
			}
			m := model.Monitor{
				ID:              model.MonitorID(fmt.Sprintf("gen-mon-%d", n)),
				Name:            fmt.Sprintf("generated monitor %d", n),
				Asset:           sys.Assets[rng.Intn(len(sys.Assets))].ID,
				CapitalCost:     1 + float64(rng.Intn(40)),
				OperationalCost: float64(rng.Intn(20)),
			}
			seen := map[model.DataTypeID]bool{}
			for i := 1 + rng.Intn(3); i > 0; i-- {
				dt := sys.DataTypes[rng.Intn(len(sys.DataTypes))].ID
				if !seen[dt] {
					seen[dt] = true
					m.Produces = append(m.Produces, dt)
				}
			}
			return Delta{Op: OpAddMonitor, Monitor: &m}
		case 3: // drop-monitor
			if len(sys.Monitors) < 4 {
				continue
			}
			return Delta{Op: OpDropMonitor, MonitorID: sys.Monitors[rng.Intn(len(sys.Monitors))].ID}
		case 4: // update-cost
			if len(sys.Monitors) == 0 {
				continue
			}
			m := sys.Monitors[rng.Intn(len(sys.Monitors))]
			d := Delta{Op: OpUpdateCost, MonitorID: m.ID}
			f := 0.5 + rng.Float64()*1.5
			switch rng.Intn(3) {
			case 0:
				c := math.Round(m.CapitalCost*f*100) / 100
				d.CapitalCost = &c
			case 1:
				c := math.Round(m.OperationalCost*f*100) / 100
				d.OperationalCost = &c
			default:
				c1 := math.Round(m.CapitalCost*f*100) / 100
				c2 := math.Round(m.OperationalCost*(2-f)*100) / 100
				d.CapitalCost, d.OperationalCost = &c1, &c2
			}
			return d
		case 5: // update-budget
			f := 0.5 + rng.Float64()
			b := math.Round(spec.Budget*f*100) / 100
			return Delta{Op: OpUpdateBudget, Budget: &b}
		case 6: // add-attack
			if len(sys.DataTypes) == 0 {
				continue
			}
			a := model.Attack{
				ID:     model.AttackID(fmt.Sprintf("gen-atk-%d", n)),
				Name:   fmt.Sprintf("generated attack %d", n),
				Weight: 0.5 + rng.Float64()*2,
			}
			for s := 1 + rng.Intn(2); s > 0; s-- {
				st := model.AttackStep{Name: fmt.Sprintf("step-%d", s)}
				seen := map[model.DataTypeID]bool{}
				for e := 1 + rng.Intn(3); e > 0; e-- {
					dt := sys.DataTypes[rng.Intn(len(sys.DataTypes))].ID
					if !seen[dt] {
						seen[dt] = true
						st.Evidence = append(st.Evidence, dt)
					}
				}
				a.Steps = append(a.Steps, st)
			}
			return Delta{Op: OpAddAttack, Attack: &a}
		case 7: // drop-attack
			if len(sys.Attacks) < 2 {
				continue
			}
			return Delta{Op: OpDropAttack, AttackID: sys.Attacks[rng.Intn(len(sys.Attacks))].ID}
		}
	}
}

// mutateRandom commits one random mutation (retrying generation when the
// tenant rejects it) and returns the result.
func mutateRandom(t testing.TB, tn *Tenant, rng *rand.Rand, n int) *core.Result {
	t.Helper()
	for attempt := 0; ; attempt++ {
		if attempt > 50 {
			t.Fatalf("mutation %d: no acceptable random delta after %d attempts", n, attempt)
		}
		d := randomDelta(rng, tn.System(), tn.Spec(), n*100+attempt)
		res, err := tn.Mutate([]Delta{d})
		if err != nil {
			continue
		}
		return res
	}
}

// checkEquivalent asserts an incremental result and a from-scratch result
// describe the same proven answer: identical status and proven flag,
// bitwise-identical normalized bound and objective, and a monitor set that
// is either identical or a verified exact tie (recomputed metrics equal,
// feasibility holds). Exact set identity is additionally required when
// requireSets is set (single worker, no reuse in play).
func checkEquivalent(t testing.TB, label string, tn *Tenant, inc, scr *core.Result, requireSets bool) {
	t.Helper()
	if inc == nil || scr == nil {
		t.Fatalf("%s: nil result (inc %v, scr %v)", label, inc != nil, scr != nil)
	}
	if inc.Proven != scr.Proven || inc.Status != scr.Status {
		t.Errorf("%s: incremental (%v, %q), scratch (%v, %q)",
			label, inc.Proven, inc.Status, scr.Proven, scr.Status)
	}
	spec := tn.Spec()
	idx, err := model.NewIndex(tn.System())
	if err != nil {
		t.Fatalf("%s: index: %v", label, err)
	}
	opt := core.NewOptimizer(idx, spec.CoreSpec().Options()...)
	dInc, dScr := mustSet(inc.Monitors), mustSet(scr.Monitors)

	// The equivalence objective is what the ILP actually optimizes —
	// corroborated utility for MaxUtility, cost for MinCost — recomputed
	// from the model so solver-reported floats cannot mask a divergence.
	// (Plain Utility can legitimately differ between exact ties at
	// corroboration > 1: it is a report field, not the objective.)
	var objInc, objScr float64
	if spec.MinCost {
		objInc, objScr = opt.Cost(dInc), opt.Cost(dScr)
	} else {
		objInc, objScr = opt.Objective(dInc), opt.Objective(dScr)
	}
	if math.Abs(objInc-objScr) > 1e-9*(1+math.Abs(objScr)) {
		t.Errorf("%s: incremental objective %v, scratch %v (sets %v vs %v)",
			label, objInc, objScr, inc.Monitors, scr.Monitors)
	}
	if inc.Proven && scr.Proven && inc.BestBound != scr.BestBound {
		// Normalized bounds are derived from the winning set; they only
		// agree bitwise when the sets carry identical metrics.
		if math.Abs(inc.BestBound-scr.BestBound) > 1e-9*(1+math.Abs(scr.BestBound)) {
			t.Errorf("%s: incremental bound %v, scratch %v", label, inc.BestBound, scr.BestBound)
		}
	}
	if sameSet(inc.Monitors, scr.Monitors) {
		if inc.Proven && scr.Proven && inc.BestBound != scr.BestBound {
			t.Errorf("%s: same set but bounds differ bitwise: %v vs %v",
				label, inc.BestBound, scr.BestBound)
		}
		return
	}
	if requireSets && inc.Stats.Shortcut == "" && !inc.Restated && !inc.Stats.WarmStarted {
		t.Errorf("%s: un-reused solve disagrees on set: %v vs %v", label, inc.Monitors, scr.Monitors)
	}
	// Verified exact tie: the objectives already matched above; the
	// incremental set must additionally be feasible in its own right.
	if spec.MinCost {
		if ok, err := opt.MeetsTargets(core.CoverageTargets{Global: spec.Target}, dInc); err != nil || !ok {
			t.Errorf("%s: tie set misses targets (ok %v, err %v)", label, ok, err)
		}
	} else if c := opt.Cost(dInc); c > spec.Budget+1e-9 {
		t.Errorf("%s: tie set cost %v over budget %v", label, c, spec.Budget)
	}
}

func mustSet(ids []model.MonitorID) *model.Deployment {
	d := model.NewDeployment()
	for _, id := range ids {
		d.Add(id)
	}
	return d
}

func sameSet(a, b []model.MonitorID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

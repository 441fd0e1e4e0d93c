package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"secmon/internal/core"
	"secmon/internal/metrics"
	"secmon/internal/model"
	"secmon/internal/state"
	"secmon/internal/synth"
)

// tenant-churn: a closed loop with one client writing to a state.Store.
// Set-up creates a few tenants, applies a seeded history, closes the store
// and opens it again, so replay is paid inside setup_s. The measured phase
// sends Tenant.Mutate batches from a seeded mix: cost rises on unselected
// monitors and budget cuts inside the slack hit the shortcut tier, restoring
// a cost or the budget runs the warm tier, and adding or dropping monitors
// and attacks forces a full re-solve. The state log and replay, plus core's
// warm incremental path, do the work; the cold path, server and decomp are
// bypassed.
const (
	churnLimit = 250 * time.Millisecond // latency limit behind slo_met_share

	churnTenants     = 6
	churnHistory     = 4    // history mutations per tenant before the reopen
	churnBudgetFrac  = 0.4  // MaxUtility budget as a share of total cost
	churnCheckEvery  = 0.15 // share of mutations checked against SolveScratch
	churnMaxAttacks  = 4    // benchmark-added attacks at once, per tenant
	churnMaxAddedMon = 6    // benchmark-added monitors at once, per tenant
)

// churnMix is the intended share of each mutation kind, with the tier it
// is meant to reach. At the workload's budget every tenant's optimum is
// nearly saturated, so the warm LP-bound skip absorbs most structural
// changes too; the measured tier shares are printed with every run.
var churnMix = []struct {
	kind  string
	tier  string
	share float64
}{
	{"raise-unselected", "shortcut", 0.15},
	{"budget-down", "shortcut", 0.05},
	{"cut-cost", "warm", 0.35},
	{"budget-up", "warm", 0.05},
	{"add-monitor", "warm", 0.075},
	{"drop-monitor", "warm", 0.075},
	{"add-attack", "full", 0.125},
	{"drop-attack", "warm", 0.125},
}

// churnTenant is the generator's view of one tenant.
type churnTenant struct {
	id         string
	baseBudget float64
	added      []model.MonitorID
	attacks    []model.AttackID // attacks the benchmark added
	nextMon    int
	nextAtk    int
}

type tenantChurn struct {
	e        env
	rng      *rand.Rand
	dir      string
	store    *state.Store
	tenants  []*churnTenant
	createMS float64
	replayMS float64
}

func setupChurn(e env) (runner, error) {
	c := &tenantChurn{e: e, rng: rand.New(rand.NewSource(e.seed)), dir: filepath.Join(e.tmp, "store")}
	if err := os.RemoveAll(c.dir); err != nil {
		return nil, err
	}
	store, err := state.Open(c.dir)
	if err != nil {
		return nil, err
	}
	c.store = store
	t0 := time.Now()
	for i := 0; i < churnTenants; i++ {
		sys, err := synth.Generate(synth.Config{Seed: c.rng.Int63(), Monitors: 250, Attacks: 100})
		if err != nil {
			return nil, fmt.Errorf("synth: %w", err)
		}
		ct := &churnTenant{id: fmt.Sprintf("tenant-%d", i), baseBudget: sys.TotalMonitorCost() * churnBudgetFrac}
		if _, err := store.Create(ct.id, sys, state.SolveSpec{Budget: ct.baseBudget, Workers: 1}); err != nil {
			return nil, fmt.Errorf("create %s: %w", ct.id, err)
		}
		c.tenants = append(c.tenants, ct)
	}
	c.createMS = ms(time.Since(t0))
	for round := 0; round < churnHistory; round++ {
		for _, ct := range c.tenants {
			t, _ := store.Tenant(ct.id)
			deltas, _ := c.next(ct, t)
			if _, err := t.Mutate(deltas); err != nil {
				return nil, fmt.Errorf("history mutate %s: %w", ct.id, err)
			}
		}
	}

	// Close and reopen: replay re-runs every committed batch, and must
	// reproduce each tenant's last result exactly.
	last := map[string]*core.Result{}
	for _, ct := range c.tenants {
		t, _ := store.Tenant(ct.id)
		last[ct.id] = t.Last()
	}
	if err := store.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	t0 = time.Now()
	if c.store, err = state.Open(c.dir); err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	c.replayMS = ms(time.Since(t0))
	for _, ct := range c.tenants {
		t, ok := c.store.Tenant(ct.id)
		if !ok {
			return nil, fmt.Errorf("reopen lost tenant %s", ct.id)
		}
		if err := sameResult(last[ct.id], t.Last()); err != nil {
			return nil, fmt.Errorf("replay of %s: %w", ct.id, err)
		}
	}
	return c, nil
}

// sameResult reports whether a replayed result reproduces the original.
func sameResult(a, b *core.Result) error {
	if a == nil || b == nil {
		return checkFail("missing result (before %v, after %v)", a != nil, b != nil)
	}
	if fmt.Sprint(a.Monitors) != fmt.Sprint(b.Monitors) || a.Utility != b.Utility || a.BestBound != b.BestBound {
		return checkFail("replayed result differs: utility %v -> %v, bound %v -> %v", a.Utility, b.Utility, a.BestBound, b.BestBound)
	}
	return nil
}

func (c *tenantChurn) close() error {
	err := c.store.Close()
	if rmErr := os.RemoveAll(c.e.tmp); err == nil {
		err = rmErr
	}
	return err
}

// next draws the next mutation batch for a tenant from the seeded mix, given
// its live state. A kind whose precondition fails falls back to a cost cut.
func (c *tenantChurn) next(ct *churnTenant, t *state.Tenant) ([]state.Delta, string) {
	x := c.rng.Float64()
	kind := churnMix[len(churnMix)-1].kind
	for _, m := range churnMix {
		if x < m.share {
			kind = m.kind
			break
		}
		x -= m.share
	}
	sys := t.System()
	spec := t.Spec()
	last := t.Last()
	selected := map[model.MonitorID]bool{}
	cost := 0.0
	if last != nil {
		for _, id := range last.Monitors {
			selected[id] = true
		}
		cost = last.Cost
	}
	f := func(v float64) *float64 { return &v }
	switch kind {
	case "raise-unselected":
		var pool []model.Monitor
		for _, m := range sys.Monitors {
			if !selected[m.ID] {
				pool = append(pool, m)
			}
		}
		if len(pool) > 0 {
			m := pool[c.rng.Intn(len(pool))]
			return []state.Delta{{Op: state.OpUpdateCost, MonitorID: m.ID,
				CapitalCost: f(m.CapitalCost * (1.05 + 0.15*c.rng.Float64()))}}, kind
		}
	case "budget-down":
		if slack := spec.Budget - cost; last != nil && slack > 1e-3*spec.Budget {
			return []state.Delta{{Op: state.OpUpdateBudget, Budget: f(spec.Budget - slack*(0.2+0.6*c.rng.Float64()))}}, kind
		}
	case "budget-up":
		if spec.Budget < ct.baseBudget {
			return []state.Delta{{Op: state.OpUpdateBudget, Budget: f(ct.baseBudget)}}, kind
		}
	case "add-monitor":
		if len(ct.added) < churnMaxAddedMon {
			tmpl := sys.Monitors[c.rng.Intn(len(sys.Monitors))]
			ct.nextMon++
			m := model.Monitor{
				ID: model.MonitorID(fmt.Sprintf("bench-m-%d", ct.nextMon)), Name: "benchmark monitor",
				Asset: tmpl.Asset, Produces: append([]model.DataTypeID(nil), tmpl.Produces...),
				CapitalCost: tmpl.CapitalCost * (0.3 + 0.3*c.rng.Float64()), OperationalCost: tmpl.OperationalCost * 0.5,
			}
			ct.added = append(ct.added, m.ID)
			return []state.Delta{{Op: state.OpAddMonitor, Monitor: &m}}, kind
		}
	case "drop-monitor":
		if len(ct.added) > 0 {
			id := ct.added[0]
			ct.added = ct.added[1:]
			return []state.Delta{{Op: state.OpDropMonitor, MonitorID: id}}, kind
		}
	case "add-attack":
		// A new attack whose evidence the current optimum does not
		// collect, but some monitor could: the previous optimum's bound no
		// longer holds, so the solve searches.
		if len(ct.attacks) < churnMaxAttacks {
			if ev := uncovered(sys, selected, 1+c.rng.Intn(3), c.rng); len(ev) > 0 {
				ct.nextAtk++
				a := model.Attack{ID: model.AttackID(fmt.Sprintf("bench-a-%d", ct.nextAtk)), Name: "benchmark attack",
					Weight: 0.5 + c.rng.Float64(), Steps: []model.AttackStep{{Name: "step", Evidence: ev}}}
				ct.attacks = append(ct.attacks, a.ID)
				return []state.Delta{{Op: state.OpAddAttack, Attack: &a}}, kind
			}
		}
	case "drop-attack":
		if len(ct.attacks) > 0 {
			id := ct.attacks[0]
			ct.attacks = ct.attacks[1:]
			return []state.Delta{{Op: state.OpDropAttack, AttackID: id}}, kind
		}
	}
	// cut-cost, and the fallback: cut a random monitor's cost.
	m := sys.Monitors[c.rng.Intn(len(sys.Monitors))]
	return []state.Delta{{Op: state.OpUpdateCost, MonitorID: m.ID,
		CapitalCost: f(m.CapitalCost * (0.85 + 0.1*c.rng.Float64()))}}, "cut-cost"
}

// uncovered returns up to n data types, in seeded order, that some monitor
// produces but no selected monitor does.
func uncovered(sys *model.System, selected map[model.MonitorID]bool, n int, rng *rand.Rand) []model.DataTypeID {
	covered := map[model.DataTypeID]bool{}
	producible := map[model.DataTypeID]bool{}
	for _, m := range sys.Monitors {
		for _, d := range m.Produces {
			producible[d] = true
			if selected[m.ID] {
				covered[d] = true
			}
		}
	}
	var pool []model.DataTypeID
	for _, dt := range sys.DataTypes {
		if producible[dt.ID] && !covered[dt.ID] {
			pool = append(pool, dt.ID)
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:min(n, len(pool))]
}

func (c *tenantChurn) logBytes() float64 {
	entries, _ := os.ReadDir(c.dir)
	total := 0.0
	for _, e := range entries {
		if info, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), ".log") {
			total += float64(info.Size())
		}
	}
	return total
}

func (c *tenantChurn) run(d time.Duration, tr *tracer) (*passResult, error) {
	var ops []opRecord
	var agg solveAgg
	tierMS := map[string][]float64{}
	kinds := map[string]float64{}
	stats0 := c.store.Stats()
	bytes0 := c.logBytes()
	checked := 0
	m := startMeter()
	for i := 0; i == 0 || m.elapsed() < d; i++ {
		ct := c.tenants[i%len(c.tenants)]
		t, _ := c.store.Tenant(ct.id)
		m.pause()
		deltas, kind := c.next(ct, t)
		check := c.rng.Float64() < churnCheckEvery
		before := c.store.Stats()
		m.resume()

		root := tr.begin("tenant-churn.op", int64(i+1))
		sp := tr.child(root, "state.Tenant.Mutate")
		t0 := time.Now()
		res, err := t.Mutate(deltas)
		took := time.Since(t0)
		tr.end(sp)
		tr.end(root)

		m.pause()
		after := c.store.Stats()
		tier := "full"
		switch {
		case after.Shortcuts > before.Shortcuts:
			tier = "shortcut"
		case after.WarmHits > before.WarmHits:
			tier = "warm"
		}
		if err == nil {
			err = checkMutate(t, res)
		}
		if err == nil && check {
			checked++
			err = c.checkScratch(t, res)
		}
		m.resume()

		ops = append(ops, opRecord{class: tier, latency: took, err: err})
		kinds[kind]++
		tierMS[tier] = append(tierMS[tier], ms(took))
		if err == nil && tier != "shortcut" {
			agg.add(&res.Stats)
		}
	}
	win := m.finish()

	n := float64(len(ops))
	stats1 := c.store.Stats()
	layer := map[string]float64{
		"state.shortcut_share":         float64(stats1.Shortcuts-stats0.Shortcuts) / n,
		"state.warm_hit_share":         float64(stats1.WarmHits-stats0.WarmHits) / n,
		"state.full_resolve_share":     float64(stats1.FullResolves-stats0.FullResolves) / n,
		"state.log_bytes_per_mutation": (c.logBytes() - bytes0) / n,
		"state.shortcut_ms_p50":        median(tierMS["shortcut"]),
		"state.warm_ms_p50":            median(tierMS["warm"]),
		"state.full_ms_p50":            median(tierMS["full"]),
		"state.create_ms":              c.createMS,
		"state.replay_ms":              c.replayMS,
	}
	agg.fill(layer)
	var kindNotes []string
	for _, mk := range churnMix {
		kindNotes = append(kindNotes, fmt.Sprintf("%s %.3f", mk.kind, kinds[mk.kind]/n))
	}
	notes := []string{
		fmt.Sprintf("closed loop, 1 client, %d tenants; %d mutations, %d checked against SolveScratch", churnTenants, len(ops), checked),
		"mutation share by kind: " + strings.Join(kindNotes, ", "),
		fmt.Sprintf("tier share: shortcut %.3f, warm %.3f, full %.3f; median ms: shortcut %.2f, warm %.2f, full %.2f",
			layer["state.shortcut_share"], layer["state.warm_hit_share"], layer["state.full_resolve_share"],
			layer["state.shortcut_ms_p50"], layer["state.warm_ms_p50"], layer["state.full_ms_p50"]),
		fmt.Sprintf("set-up: create %.1f ms, replay %.1f ms", c.createMS, c.replayMS),
	}
	return &passResult{ops: ops, win: win, layer: layer, notes: notes}, nil
}

// checkMutate verifies a mutation's result: proven, utility and cost equal to
// their recomputation by internal/metrics, and the budget held.
func checkMutate(t *state.Tenant, res *core.Result) error {
	if res == nil || res.Deployment == nil || !res.Proven {
		return checkFail("%s: mutate result not proven", t.ID())
	}
	idx, err := model.NewIndex(t.System())
	if err != nil {
		return checkFail("%s: index: %v", t.ID(), err)
	}
	u, cost := metrics.Utility(idx, res.Deployment), metrics.Cost(idx, res.Deployment)
	if !close9(u, res.Utility) || !close9(cost, res.Cost) {
		return checkFail("%s: reported utility %v cost %v, recomputed %v %v", t.ID(), res.Utility, res.Cost, u, cost)
	}
	if budget := t.Spec().Budget; cost > budget*(1+1e-9)+1e-9 {
		return checkFail("%s: cost %v over budget %v", t.ID(), cost, budget)
	}
	return nil
}

// checkScratch compares a mutation's result with a from-scratch solve of
// the same state on utility and bound.
func (c *tenantChurn) checkScratch(t *state.Tenant, res *core.Result) error {
	ref, err := t.SolveScratch()
	if err != nil {
		return checkFail("%s: scratch solve: %v", t.ID(), err)
	}
	want := ref.Utility
	if c.e.corrupt {
		want += 1e-3
	}
	if !(math.Abs(res.Utility-want) <= 1e-7) || !(math.Abs(res.BestBound-ref.BestBound) <= 1e-7) {
		return checkFail("%s: utility %.12f bound %.12f, from scratch %.12f %.12f",
			t.ID(), res.Utility, res.BestBound, want, ref.BestBound)
	}
	return nil
}

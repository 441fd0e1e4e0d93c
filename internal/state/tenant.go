package state

import (
	"fmt"
	"sort"
	"sync"

	"secmon/internal/core"
	"secmon/internal/model"
)

// SolveSpec pins how a tenant's model is solved on every mutation. It is
// written into the log's init record and never changes except through the
// update-budget delta, so replay reproduces the exact same solve sequence.
// It is the tenant log's wire format: a record is accepted only when it
// re-encodes byte for byte, so its fields, their order, their tags and
// their zero-value meanings are fixed. CoreSpec turns it into the
// core.Spec every solve runs.
type SolveSpec struct {
	// MinCost selects minimum-cost covering; the default is MaxUtility.
	MinCost bool `json:"minCost,omitempty"`
	// Budget is the absolute MaxUtility budget (ignored for MinCost); an
	// omitted budget is a budget of 0.
	Budget float64 `json:"budget,omitempty"`
	// Target is the MinCost global coverage target in [0, 1] (ignored for
	// MaxUtility); an omitted target is a target of 0.
	Target float64 `json:"target,omitempty"`
	// Corroboration is the independent-evidence requirement (0 and 1 both
	// mean one monitor).
	Corroboration int `json:"corroboration,omitempty"`
	// Workers is the branch-and-bound worker count (0 and 1 both mean one).
	// Replay is guaranteed bit-identical only at one worker; parallel
	// search may report a different member of an exact tie.
	Workers int `json:"workers,omitempty"`
	// Kernel pins the LP kernel, as core.Spec.Kernel: "" (auto dispatch),
	// "lu" or its alias "sparse", "eta", or "dense" (the tableau oracle,
	// which solves every relaxation cold).
	Kernel string `json:"kernel,omitempty"`
	// Certify requests machine-checkable certificates. Certified tenants
	// never reuse solver state: every mutation runs the full audited
	// search, exactly like a from-scratch solve.
	Certify bool `json:"certify,omitempty"`
}

// CoreSpec is the core.Spec the tenant spec solves: the budget for a
// MaxUtility tenant or the target for a MinCost one, always explicit, and
// the solver settings as given.
func (s SolveSpec) CoreSpec() core.Spec {
	cs := core.Spec{MinCost: s.MinCost, Corroboration: s.Corroboration,
		Workers: s.Workers, Kernel: s.Kernel, Certify: s.Certify}
	if s.MinCost {
		cs.Target = &s.Target
	} else {
		cs.Budget = &s.Budget
	}
	return cs
}

// Tenant is one live model: the current system, its solve spec, the last
// proven result, and the warm-start chain connecting each solve to the next.
// All methods are safe for concurrent use; mutations serialize.
type Tenant struct {
	id    string
	runID string
	stats *Stats

	mu    sync.Mutex
	sys   *model.System
	spec  SolveSpec
	opt   *core.Optimizer
	prior *core.Prior
	last  *core.Result
	log   *tlog
	seq   uint64 // sequence of the last committed record
}

// ID returns the tenant identifier.
func (t *Tenant) ID() string { return t.id }

// Spec returns the tenant's current solve spec.
func (t *Tenant) Spec() SolveSpec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spec
}

// System returns a deep copy of the tenant's current model.
func (t *Tenant) System() *model.System {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sys.Clone()
}

// Last returns the most recent solve result, nil before the first solve.
func (t *Tenant) Last() *core.Result {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last
}

// Version returns the sequence number of the last committed log record;
// it increases with every committed delta and identifies the state a
// result belongs to.
func (t *Tenant) Version() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// solveWarm runs the spec's solve through the warm entry points, threading
// the prior chain.
func (t *Tenant) solveWarm() (*core.Result, error) {
	res, next, err := t.opt.RunWarm(t.spec.CoreSpec(), t.prior)
	if err != nil {
		return nil, err
	}
	t.prior = next
	t.normalize(res)
	return res, nil
}

// normalize rewrites solver-trajectory-dependent report fields of a proven
// result into values derived purely from the winning deployment, so results
// reached incrementally and from scratch compare bitwise: the proven bound
// becomes the deployment's exact objective (recomputed from the model, not
// the solver's float accumulation) and the gap becomes exactly zero.
// Certified results are left untouched — their fields are bound to the
// certificate.
func (t *Tenant) normalize(res *core.Result) {
	if res == nil || !res.Proven || t.spec.Certify {
		return
	}
	if t.spec.MinCost {
		res.Cost = t.opt.Cost(res.Deployment)
		res.BestBound = res.Cost
	} else {
		res.BestBound = t.opt.Objective(res.Deployment)
	}
	res.Gap = 0
	res.BoundKnown = true
}

// Mutate applies the deltas as one atomic batch: validated against a scratch
// copy, committed to the event log (one fsync), applied to the live model,
// and re-solved — by a zero-work sensitivity shortcut when one applies, by a
// warm incremental solve otherwise. On error nothing is committed and the
// tenant is unchanged.
func (t *Tenant) Mutate(deltas []Delta) (*core.Result, error) {
	if len(deltas) == 0 {
		return nil, fmt.Errorf("%w: empty mutation batch", ErrInvalid)
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	// Stage on clones; nothing below may touch live state until committed.
	sys := t.sys.Clone()
	spec := t.spec
	for i := range deltas {
		if err := deltas[i].apply(sys, &spec); err != nil {
			return nil, fmt.Errorf("%w: delta %d: %w", ErrInvalid, i+1, err)
		}
	}
	idx, err := model.NewIndex(sys)
	if err != nil {
		return nil, fmt.Errorf("%w: mutated model invalid: %w", ErrInvalid, err)
	}
	// The spec passed Validate when the tenant was created, and the one
	// delta that changes it (update-budget) refuses a bad budget.
	opt := core.NewOptimizer(idx, spec.CoreSpec().Options()...)
	if spec.MinCost {
		// A batch that makes the covering targets unreachable is rejected
		// before the commit point: the log must only ever hold states every
		// replay can re-solve. Deploying every monitor is the coverage
		// maximum, so it decides feasibility.
		if ok, err := feasibleTargets(opt, idx, spec); err != nil {
			return nil, err
		} else if !ok {
			return nil, core.ErrInfeasible
		}
	}

	// Commit point: all records of the batch in one append, one fsync.
	recs := make([]*record, len(deltas))
	for i := range deltas {
		d := deltas[i]
		recs[i] = &record{
			V:     logVersion,
			Seq:   t.seq + uint64(i) + 1,
			RunID: t.runID,
			Type:  "delta",
			Delta: &d,
			End:   i == len(deltas)-1,
		}
	}
	if t.log != nil {
		if err := t.log.append(recs); err != nil {
			return nil, err
		}
	}
	t.seq += uint64(len(deltas))
	return t.applyCommitted(sys, spec, opt)
}

// feasibleTargets reports whether any deployment can meet the spec's
// covering targets, by probing the everything-deployed maximum.
func feasibleTargets(opt *core.Optimizer, idx *model.Index, spec SolveSpec) (bool, error) {
	full := model.NewDeployment()
	for _, id := range idx.MonitorIDs() {
		full.Add(id)
	}
	return opt.MeetsTargets(core.CoverageTargets{Global: spec.Target}, full)
}

// applyCommitted installs an already-validated, already-logged batch and
// re-solves. Shared by Mutate and replay so both run the identical pipeline.
func (t *Tenant) applyCommitted(sys *model.System, spec SolveSpec, opt *core.Optimizer) (*core.Result, error) {
	prevSys, prevSpec, prevLast := t.sys, t.spec, t.last
	t.sys, t.spec = sys, spec
	t.opt = opt
	t.stats.Mutations.Add(1)

	if name := t.shortcutFor(prevSys, prevSpec, prevLast); name != "" {
		res := t.restate(prevLast, name)
		t.stats.Shortcuts.Add(1)
		t.last = res
		if t.prior != nil {
			t.prior.Result = res
		}
		return res, nil
	}

	res, err := t.solveWarm()
	if err != nil {
		// The batch is committed; fail into a deterministic "no result"
		// state so a replay that hits the same error lands identically.
		t.last = nil
		return nil, err
	}
	switch res.Stats.Shortcut {
	case "":
		t.stats.FullResolves.Add(1)
	default:
		t.stats.WarmHits.Add(1)
	}
	t.last = res
	return res, nil
}

// restate builds the result for a sensitivity shortcut: the previous
// deployment restated against the mutated model, its metrics and proven
// bound recomputed, with zero solver work on record.
func (t *Tenant) restate(prev *core.Result, name string) *core.Result {
	d := prev.Deployment.Clone()
	res := &core.Result{
		Deployment: d,
		Monitors:   d.IDs(),
		Utility:    t.opt.Utility(d),
		Cost:       t.opt.Cost(d),
		Proven:     true,
		Status:     prev.Status,
		BoundKnown: true,
		Restated:   true,
	}
	if t.spec.MinCost {
		res.BestBound = res.Cost
	} else {
		res.Budget = t.spec.Budget
		res.BestBound = t.opt.Objective(d)
	}
	res.Stats.Shortcut = name
	res.Stats.WarmStarted = true
	return res
}

// shortcutFor decides whether the previous optimum provably survives the
// batch without any solving, comparing the previous and current model as a
// whole (so a cost bumped and restored within one batch is a no-op). It
// returns the shortcut name, or "" when a solve is needed.
//
// Soundness: let S be the previous proven optimal deployment and F the
// previous feasible family.
//
//   - MaxUtility: if the attack side (and thus every deployment's utility)
//     is unchanged, monitor costs only increased, no monitor was added, no
//     monitor of S was dropped or had its production changed, the budget did
//     not grow, and S still fits the budget — then the new feasible family
//     is a subset of F that still contains S, every deployment's utility is
//     what it was, and S's old maximality carries over verbatim.
//   - MinCost: if the attack side and all production is unchanged, no
//     monitor was added, no monitor of S was dropped, costs increased only
//     on monitors outside S and decreased only on monitors inside S — then
//     every competitor's cost moved up or stayed while S's moved down or
//     stayed, and the covering constraints are untouched, so S stays
//     optimal (at its recomputed cost).
//
// Certified tenants never shortcut, and a previous result that is not a
// proven non-fallback optimum proves nothing.
func (t *Tenant) shortcutFor(prevSys *model.System, prevSpec SolveSpec, prev *core.Result) string {
	if prev == nil || !prev.Proven || prev.Fallback || prev.Deployment == nil ||
		t.spec.Certify || prevSpec.Certify || prevSpec.MinCost != t.spec.MinCost ||
		prevSpec.Target != t.spec.Target || prevSpec.Corroboration != t.spec.Corroboration {
		return ""
	}
	if !attacksEqual(prevSys.Attacks, t.sys.Attacks) {
		return ""
	}

	oldMons := monitorsByID(prevSys)
	newMons := monitorsByID(t.sys)
	for id := range newMons {
		if _, ok := oldMons[id]; !ok {
			return "" // added monitor: feasible family grew
		}
	}
	S := prev.Deployment
	costChanged := false
	monitorsChanged := len(oldMons) != len(newMons)
	for id, om := range oldMons {
		nm, ok := newMons[id]
		if !ok {
			if S.Contains(id) {
				return "" // lost a member of the optimum
			}
			continue
		}
		if !producesEqual(om.Produces, nm.Produces) {
			return "" // coverage structure shifted
		}
		oc, nc := om.TotalCost(), nm.TotalCost()
		if oc == nc {
			continue
		}
		costChanged = true
		if t.spec.MinCost {
			if nc > oc && S.Contains(id) {
				return "" // optimum got more expensive
			}
			if nc < oc && !S.Contains(id) {
				return "" // a competitor got cheaper
			}
		} else if nc < oc {
			return "" // any decrease can admit new feasible sets
		}
	}

	if t.spec.MinCost {
		// The budget is not part of the MinCost problem, so only the
		// monitor-side changes matter; reaching here means they provably
		// preserve S.
		if !costChanged && !monitorsChanged {
			return "no-op"
		}
		return "reduced-cost"
	}

	// MaxUtility: the budget must not have loosened, and S must still fit.
	if t.spec.Budget > prevSpec.Budget {
		return ""
	}
	if t.opt.Cost(S) > t.spec.Budget {
		return ""
	}
	switch {
	case !costChanged && !monitorsChanged && t.spec.Budget == prevSpec.Budget:
		return "no-op"
	case costChanged || monitorsChanged:
		return "reduced-cost"
	default:
		return "budget-slack"
	}
}

func monitorsByID(sys *model.System) map[model.MonitorID]*model.Monitor {
	m := make(map[model.MonitorID]*model.Monitor, len(sys.Monitors))
	for i := range sys.Monitors {
		m[sys.Monitors[i].ID] = &sys.Monitors[i]
	}
	return m
}

func producesEqual(a, b []model.DataTypeID) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]model.DataTypeID(nil), a...)
	bs := append([]model.DataTypeID(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func attacksEqual(a, b []model.Attack) bool {
	if len(a) != len(b) {
		return false
	}
	byID := make(map[model.AttackID]*model.Attack, len(a))
	for i := range a {
		byID[a[i].ID] = &a[i]
	}
	for i := range b {
		oa, ok := byID[b[i].ID]
		if !ok || !attackEqual(oa, &b[i]) {
			return false
		}
	}
	return true
}

func attackEqual(a, b *model.Attack) bool {
	if a.Name != b.Name || a.Weight != b.Weight || len(a.Steps) != len(b.Steps) {
		return false
	}
	for i := range a.Steps {
		if a.Steps[i].Name != b.Steps[i].Name {
			return false
		}
		if len(a.Steps[i].Evidence) != len(b.Steps[i].Evidence) {
			return false
		}
		for j := range a.Steps[i].Evidence {
			if a.Steps[i].Evidence[j] != b.Steps[i].Evidence[j] {
				return false
			}
		}
	}
	return true
}

// SolveScratch solves the tenant's current model from scratch — a fresh
// optimizer, no prior, no shortcuts — and normalizes the result exactly like
// the incremental path. The differential suites compare Mutate's output
// against this.
func (t *Tenant) SolveScratch() (*core.Result, error) {
	t.mu.Lock()
	sys := t.sys.Clone()
	spec := t.spec
	t.mu.Unlock()

	idx, err := model.NewIndex(sys)
	if err != nil {
		return nil, err
	}
	cs := spec.CoreSpec()
	opt := core.NewOptimizer(idx, cs.Options()...)
	res, err := opt.Run(cs)
	if err != nil {
		return nil, err
	}
	if res.Proven && !spec.Certify {
		if spec.MinCost {
			res.Cost = opt.Cost(res.Deployment)
			res.BestBound = res.Cost
		} else {
			res.BestBound = opt.Objective(res.Deployment)
		}
		res.Gap = 0
		res.BoundKnown = true
	}
	return res, nil
}

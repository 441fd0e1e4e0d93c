package metrics

import (
	"slices"

	"secmon/internal/model"
)

// Evaluator computes corroborated utility for a deployment that is mutated
// one monitor at a time, without allocating per evaluation. It reads the
// index's compiled ordinal views and keeps the per-data-type producer counts
// of the loaded deployment in a flat slice, so Add, Remove and
// CorroboratedUtility touch no maps keyed by string identifiers — the
// dominant cost of calling the pure functions in a tight swap loop.
//
// The evaluator mirrors CoveredData/CorroboratedUtility exactly: load a
// deployment, then keep every Deployment.Add/Remove paired with the matching
// Evaluator.Add/Remove (or AddOrdinal/RemoveOrdinal). An Evaluator is not
// safe for concurrent use.
type Evaluator struct {
	idx *model.Index

	// attacks holds, per attack ordinal, the weight and inverse evidence
	// count.
	attacks []evalAttack

	totalWeight float64

	// counts[o] is the number of loaded monitors producing data type
	// ordinal o — the redundancy CoveredData reports.
	counts []int32
}

type evalAttack struct {
	weight float64
	invLen float64
}

// NewEvaluator returns an evaluator over the index with nothing loaded.
// Construction is O(data types + attacks).
func NewEvaluator(idx *model.Index) *Evaluator {
	attacks := idx.System().Attacks
	e := &Evaluator{
		idx:         idx,
		attacks:     make([]evalAttack, len(attacks)),
		totalWeight: idx.System().TotalAttackWeight(),
		counts:      make([]int32, idx.NumDataTypes()),
	}
	for a := range attacks {
		e.attacks[a].weight = model.AttackWeight(attacks[a])
		if n := len(idx.AttackData(a)); n > 0 {
			e.attacks[a].invLen = 1 / float64(n)
		}
	}
	return e
}

// Load resets the evaluator's producer counts to the given deployment.
func (e *Evaluator) Load(d *model.Deployment) {
	clear(e.counts)
	d.Each(e.Add)
}

// Add registers one more deployed copy of the monitor. Unknown monitors are
// ignored, as in CoveredData.
func (e *Evaluator) Add(id model.MonitorID) {
	if m, ok := e.idx.MonitorOrdinal(id); ok {
		e.AddOrdinal(m)
	}
}

// Remove unregisters a deployed copy of the monitor previously counted by
// Load or Add.
func (e *Evaluator) Remove(id model.MonitorID) {
	if m, ok := e.idx.MonitorOrdinal(id); ok {
		e.RemoveOrdinal(m)
	}
}

// AddOrdinal is Add for monitor ordinal m.
func (e *Evaluator) AddOrdinal(m int) {
	for _, o := range e.idx.MonitorData(m) {
		e.counts[o]++
	}
}

// RemoveOrdinal is Remove for monitor ordinal m.
func (e *Evaluator) RemoveOrdinal(m int) {
	for _, o := range e.idx.MonitorData(m) {
		e.counts[o]--
	}
}

// CorroboratedUtility returns CorroboratedUtility(idx, d, k) for the loaded
// deployment state: the attack-weight-normalized coverage counting only
// evidence produced by at least k loaded monitors (k <= 1 gives Utility).
func (e *Evaluator) CorroboratedUtility(k int) float64 {
	if e.totalWeight == 0 {
		return 0
	}
	need := int32(max(k, 1))
	sum := 0.0
	for i := range e.attacks {
		a := &e.attacks[i]
		ev := e.idx.AttackData(i)
		if len(ev) == 0 {
			continue
		}
		sum += a.weight * float64(coveredAtLeast(e.counts, ev, need)) * a.invLen
	}
	return sum / e.totalWeight
}

// Change previews swapping monitor ordinal out for monitor ordinal in
// (either may be -1 for none) at corroboration level k, without applying
// it. crossed reports whether any evidence data type would cross the k
// threshold; when none does, CorroboratedUtility after the swap is
// bit-identical to before it. delta is the sum of the contributions (see
// model.Index.Contribution) of the data types that would cross upward,
// minus those that would cross downward: the exact utility change up to
// rounding.
func (e *Evaluator) Change(out, in, k int) (crossed bool, delta float64) {
	need := int32(max(k, 1))
	// step moves the counts of monitor m's data by sign, except the data
	// the other side of the swap also produces, whose counts stay put.
	step := func(m, other int, sign int32) {
		for _, o := range e.idx.MonitorData(m) {
			if !e.idx.Relevant(int(o)) || other >= 0 && slices.Contains(e.idx.MonitorData(other), o) {
				continue
			}
			if (e.counts[o] >= need) != (e.counts[o]+sign >= need) {
				crossed = true
				delta += float64(sign) * e.idx.Contribution(int(o))
			}
		}
	}
	if out >= 0 {
		step(out, in, -1)
	}
	if in >= 0 {
		step(in, out, +1)
	}
	return crossed, delta
}

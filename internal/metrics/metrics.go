// Package metrics implements the metric suite of Thakore, Weaver and Sanders
// (DSN 2016), quantifying monitor deployments with respect to intrusion
// detection and forensics:
//
//   - Coverage: per attack, the fraction of its evidence made observable by
//     the deployed monitors.
//   - Utility: the attack-weight-normalized sum of coverages, the objective
//     maximized by the deployment optimization.
//   - Richness: the fraction of distinct security-relevant event fields the
//     deployment can record, measuring how much detail is available for
//     forensic analysis.
//   - Redundancy/confidence: how many independent monitors corroborate each
//     evidence item.
//   - Distinguishability: the fraction of attack pairs whose observable
//     evidence signatures differ, measuring diagnostic power.
//   - Cost: capital plus operational cost of the deployed monitors.
//
// All metrics are pure functions of a model.Index and a model.Deployment.
package metrics

import (
	"slices"

	"secmon/internal/model"
)

// CoveredData returns, for every data type producible by the deployment, the
// number of deployed monitors that produce it (its redundancy). Data types
// not covered are absent from the map.
func CoveredData(idx *model.Index, d *model.Deployment) map[model.DataTypeID]int {
	out := make(map[model.DataTypeID]int)
	for o, n := range coverCounts(idx, d) {
		if n > 0 {
			out[idx.DataTypeAt(o)] = int(n)
		}
	}
	return out
}

// coverCounts returns, per data type ordinal, the number of deployed
// monitors producing it. Monitors the index does not know are skipped.
func coverCounts(idx *model.Index, d *model.Deployment) []int32 {
	counts := make([]int32, idx.NumDataTypes())
	d.Each(func(id model.MonitorID) {
		if m, ok := idx.MonitorOrdinal(id); ok {
			for _, o := range idx.MonitorData(m) {
				counts[o]++
			}
		}
	})
	return counts
}

// coveredAtLeast counts the evidence ordinals with at least k producers.
func coveredAtLeast(counts []int32, ev []int32, k int32) int {
	n := 0
	for _, o := range ev {
		if counts[o] >= k {
			n++
		}
	}
	return n
}

// AttackCoverage returns the fraction of the attack's evidence union that is
// covered by the deployment, in [0, 1]. Unknown attacks yield 0.
func AttackCoverage(idx *model.Index, d *model.Deployment, a model.AttackID) float64 {
	ai, ok := idx.AttackOrdinal(a)
	if !ok {
		return 0
	}
	return attackCoverage(idx.AttackData(ai), coverCounts(idx, d))
}

func attackCoverage(ev []int32, counts []int32) float64 {
	if len(ev) == 0 {
		return 0
	}
	return float64(coveredAtLeast(counts, ev, 1)) / float64(len(ev))
}

// Utility returns the detection utility of the deployment: the sum over
// attacks of weight times coverage, normalized by the total attack weight.
// It lies in [0, 1]; 1 means every evidence item of every attack is covered.
func Utility(idx *model.Index, d *model.Deployment) float64 {
	return utilityFromCounts(idx, coverCounts(idx, d))
}

func utilityFromCounts(idx *model.Index, counts []int32) float64 {
	total := idx.System().TotalAttackWeight()
	if total == 0 {
		return 0
	}
	sum := 0.0
	for a, attack := range idx.System().Attacks {
		sum += model.AttackWeight(attack) * attackCoverage(idx.AttackData(a), counts)
	}
	return sum / total
}

// MaxUtility returns the utility of deploying every monitor in the system:
// the achievable ceiling, which is below 1 when some evidence has no
// producer.
func MaxUtility(idx *model.Index) float64 {
	counts := make([]int32, idx.NumDataTypes())
	for o := range counts {
		counts[o] = int32(len(idx.DataProducers(o)))
	}
	return utilityFromCounts(idx, counts)
}

// RelevantFields counts the fields of every security-relevant data type
// ordinal (those appearing as evidence of some attack; a field-less one
// still carries one observable fact), zero for the others: covering data
// type o adds fields[o] over their sum to Richness.
func RelevantFields(idx *model.Index) []int {
	fields := make([]int, idx.NumDataTypes())
	for _, dt := range idx.System().DataTypes {
		if o, _ := idx.DataTypeOrdinal(dt.ID); idx.Relevant(o) {
			fields[o] = max(len(dt.Fields), 1)
		}
	}
	return fields
}

// Richness returns the data richness of the deployment: the fraction of
// distinct (data type, field) pairs among security-relevant data types (those
// appearing as evidence of some attack) that the deployment records. Returns
// 1 when no relevant fields exist.
func Richness(idx *model.Index, d *model.Deployment) float64 {
	if r, ok := CorroboratedRichness(idx, d, 1); ok {
		return r
	}
	return 1
}

// CorroboratedRichness returns the field share of the security-relevant
// data types produced by at least k deployed monitors (k <= 1 is Richness),
// and false when no relevant fields exist.
func CorroboratedRichness(idx *model.Index, d *model.Deployment, k int) (float64, bool) {
	counts := coverCounts(idx, d)
	total, hit := 0, 0
	for o, nf := range RelevantFields(idx) {
		total += nf
		if counts[o] >= int32(max(k, 1)) {
			hit += nf
		}
	}
	if total == 0 {
		return 0, false
	}
	return float64(hit) / float64(total), true
}

// EvidenceRedundancy returns the number of deployed monitors that produce
// the given data type.
func EvidenceRedundancy(idx *model.Index, d *model.Deployment, dt model.DataTypeID) int {
	n := 0
	for _, id := range idx.Producers(dt) {
		if d.Contains(id) {
			n++
		}
	}
	return n
}

// MeanRedundancy returns the average redundancy over the evidence items of
// all attacks (counting each attack's evidence union once, weighted equally).
// Uncovered evidence contributes zero; returns 0 when there is no evidence.
func MeanRedundancy(idx *model.Index, d *model.Deployment) float64 {
	counts := coverCounts(idx, d)
	total, sum := 0, 0
	for o, n := range counts {
		if idx.Relevant(o) {
			total++
			sum += int(n)
		}
	}
	if total == 0 {
		return 0
	}
	return float64(sum) / float64(total)
}

// AttackConfidence returns the fraction of the attack's evidence that is
// corroborated by at least two independent deployed monitors, in [0, 1].
// Corroboration protects detection against a compromised or faulty monitor.
func AttackConfidence(idx *model.Index, d *model.Deployment, a model.AttackID) float64 {
	ai, ok := idx.AttackOrdinal(a)
	if !ok || len(idx.AttackData(ai)) == 0 {
		return 0
	}
	ev := idx.AttackData(ai)
	return float64(coveredAtLeast(coverCounts(idx, d), ev, 2)) / float64(len(ev))
}

// Distinguishability returns the fraction of unordered attack pairs whose
// covered-evidence signatures differ under the deployment, in [0, 1]. Two
// attacks with identical observable evidence cannot be told apart during
// forensic analysis. Returns 1 when the system has fewer than two attacks.
func Distinguishability(idx *model.Index, d *model.Deployment) float64 {
	attacks := idx.System().Attacks
	if len(attacks) < 2 {
		return 1
	}
	counts := coverCounts(idx, d)
	signatures := make([][]int32, len(attacks))
	for a := range attacks {
		for _, o := range idx.AttackData(a) {
			if counts[o] > 0 {
				signatures[a] = append(signatures[a], o)
			}
		}
	}
	pairs, distinct := 0, 0
	for i := range signatures {
		for j := i + 1; j < len(signatures); j++ {
			pairs++
			if !slices.Equal(signatures[i], signatures[j]) {
				distinct++
			}
		}
	}
	return float64(distinct) / float64(pairs)
}

// CorroboratedUtility returns the detection utility counting only evidence
// covered by at least k independent monitors. With k <= 1 it equals Utility;
// with k = 2 it is the weight-normalized sum of AttackConfidence values.
// Corroborated utility is what a deployment retains when any single monitor
// can be compromised or fail silently.
func CorroboratedUtility(idx *model.Index, d *model.Deployment, k int) float64 {
	if k <= 1 {
		return Utility(idx, d)
	}
	total := idx.System().TotalAttackWeight()
	if total == 0 {
		return 0
	}
	counts := coverCounts(idx, d)
	sum := 0.0
	for a, attack := range idx.System().Attacks {
		ev := idx.AttackData(a)
		if len(ev) == 0 {
			continue
		}
		n := coveredAtLeast(counts, ev, int32(k))
		sum += model.AttackWeight(attack) * float64(n) / float64(len(ev))
	}
	return sum / total
}

// DetectionRate returns the attack-weight-normalized fraction of attacks
// the deployment can detect at all: those with at least one covered
// evidence item. It is the analytic ceiling any empirical detection-rate
// estimate (internal/campaign, internal/simulate) converges to under ideal
// manifestation and capture probabilities.
func DetectionRate(idx *model.Index, d *model.Deployment) float64 {
	total := idx.System().TotalAttackWeight()
	if total == 0 {
		return 0
	}
	counts := coverCounts(idx, d)
	sum := 0.0
	for a, attack := range idx.System().Attacks {
		if coveredAtLeast(counts, idx.AttackData(a), 1) > 0 {
			sum += model.AttackWeight(attack)
		}
	}
	return sum / total
}

// AttackEarliness returns how early in the attack's step sequence the
// deployment first observes evidence: 1 when the first step is observable,
// decreasing linearly with the index of the earliest observable step, and 0
// when no step is observable. Earlier detection leaves less time for damage.
func AttackEarliness(idx *model.Index, d *model.Deployment, a model.AttackID) float64 {
	attack, ok := idx.Attack(a)
	if !ok {
		return 0
	}
	return attackEarliness(idx, attack, coverCounts(idx, d))
}

func attackEarliness(idx *model.Index, attack *model.Attack, counts []int32) float64 {
	for i, step := range attack.Steps {
		for _, e := range step.Evidence {
			if o, ok := idx.DataTypeOrdinal(e); ok && counts[o] > 0 {
				return 1 - float64(i)/float64(len(attack.Steps))
			}
		}
	}
	return 0
}

// Earliness returns the attack-weight-normalized mean of AttackEarliness:
// the deployment's overall ability to catch attacks in their early stages.
// Coverage is counted once for all attacks.
func Earliness(idx *model.Index, d *model.Deployment) float64 {
	total := idx.System().TotalAttackWeight()
	if total == 0 {
		return 0
	}
	counts := coverCounts(idx, d)
	sum := 0.0
	for i := range idx.System().Attacks {
		attack := &idx.System().Attacks[i]
		sum += model.AttackWeight(*attack) * attackEarliness(idx, attack, counts)
	}
	return sum / total
}

// ExpectedUtility returns the expected detection utility when every
// deployed monitor independently fails (or is compromised into silence)
// with probability failProb: evidence with r deployed producers is covered
// with probability 1 - failProb^r. With failProb = 0 it equals Utility.
func ExpectedUtility(idx *model.Index, d *model.Deployment, failProb float64) float64 {
	if failProb <= 0 {
		return Utility(idx, d)
	}
	if failProb >= 1 {
		return 0
	}
	total := idx.System().TotalAttackWeight()
	if total == 0 {
		return 0
	}
	counts := coverCounts(idx, d)
	sum := 0.0
	for a, attack := range idx.System().Attacks {
		ev := idx.AttackData(a)
		if len(ev) == 0 {
			continue
		}
		expected := 0.0
		for _, o := range ev {
			if r := int(counts[o]); r > 0 {
				expected += 1 - pow(failProb, r)
			}
		}
		sum += model.AttackWeight(attack) * expected / float64(len(ev))
	}
	return sum / total
}

// pow computes q^r for small non-negative integer r without importing math.
func pow(q float64, r int) float64 {
	out := 1.0
	for i := 0; i < r; i++ {
		out *= q
	}
	return out
}

// Cost returns the total (capital plus operational) cost of the deployment.
func Cost(idx *model.Index, d *model.Deployment) float64 {
	return d.Cost(idx)
}

package metrics

import (
	"math"
	"math/rand"
	"testing"

	"secmon/internal/model"
	"secmon/internal/synth"
)

// The reference formulas below compute the metrics from string-keyed
// covered-data maps, rebuilt per attack for the per-attack metrics. The
// ordinal versions must return the same bits.

func refCovered(idx *model.Index, d *model.Deployment) map[model.DataTypeID]int {
	out := make(map[model.DataTypeID]int)
	for _, id := range d.IDs() {
		if m, ok := idx.Monitor(id); ok {
			for _, dt := range m.Produces {
				out[dt]++
			}
		}
	}
	return out
}

func refCorroborated(idx *model.Index, d *model.Deployment, k int) float64 {
	total := idx.System().TotalAttackWeight()
	if total == 0 {
		return 0
	}
	covered := refCovered(idx, d)
	sum := 0.0
	for _, a := range idx.System().Attacks {
		ev := idx.AttackEvidence(a.ID)
		if len(ev) == 0 {
			continue
		}
		n := 0
		for _, e := range ev {
			if covered[e] >= k {
				n++
			}
		}
		if k <= 1 {
			sum += model.AttackWeight(a) * (float64(n) / float64(len(ev)))
		} else {
			sum += model.AttackWeight(a) * float64(n) / float64(len(ev))
		}
	}
	return sum / total
}

func refAttackEarliness(idx *model.Index, d *model.Deployment, a model.AttackID) float64 {
	attack, _ := idx.Attack(a)
	covered := refCovered(idx, d)
	for i, step := range attack.Steps {
		for _, e := range step.Evidence {
			if covered[e] > 0 {
				return 1 - float64(i)/float64(len(attack.Steps))
			}
		}
	}
	return 0
}

func refEarliness(idx *model.Index, d *model.Deployment) float64 {
	sum := 0.0
	for _, a := range idx.System().Attacks {
		sum += model.AttackWeight(a) * refAttackEarliness(idx, d, a.ID)
	}
	return sum / idx.System().TotalAttackWeight()
}

func refExpected(idx *model.Index, d *model.Deployment, q float64) float64 {
	covered := refCovered(idx, d)
	sum := 0.0
	for _, a := range idx.System().Attacks {
		ev := idx.AttackEvidence(a.ID)
		expected := 0.0
		for _, e := range ev {
			if r := covered[e]; r > 0 {
				expected += 1 - pow(q, r)
			}
		}
		sum += model.AttackWeight(a) * expected / float64(len(ev))
	}
	return sum / idx.System().TotalAttackWeight()
}

// TestMetricsBitIdenticalToPerAttackFormulas compares Utility,
// CorroboratedUtility, ExpectedUtility, Earliness, AttackEarliness and
// AttackCoverage with the per-attack reference formulas, bit for bit, on
// random deployments of staged and plain synthetic systems. Earliness now
// counts coverage once for all attacks instead of once per attack.
func TestMetricsBitIdenticalToPerAttackFormulas(t *testing.T) {
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s = %v, per-attack formula %v", what, got, want)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for seed := int64(1); seed <= 12; seed++ {
		sys, err := synth.Generate(synth.Config{Seed: seed, Monitors: 40, Attacks: 25, Staged: seed%2 == 0})
		if err != nil {
			t.Fatalf("synth: %v", err)
		}
		idx, err := model.NewIndex(sys)
		if err != nil {
			t.Fatalf("index: %v", err)
		}
		for trial := 0; trial < 10; trial++ {
			d := model.NewDeployment("not-a-monitor")
			for _, id := range idx.MonitorIDs() {
				if rng.Intn(3) == 0 {
					d.Add(id)
				}
			}
			same("Utility", Utility(idx, d), refCorroborated(idx, d, 1))
			for k := 2; k <= 3; k++ {
				same("CorroboratedUtility", CorroboratedUtility(idx, d, k), refCorroborated(idx, d, k))
			}
			same("ExpectedUtility", ExpectedUtility(idx, d, 0.3), refExpected(idx, d, 0.3))
			same("Earliness", Earliness(idx, d), refEarliness(idx, d))
			covered := refCovered(idx, d)
			for _, aid := range idx.AttackIDs() {
				same("AttackEarliness", AttackEarliness(idx, d, aid), refAttackEarliness(idx, d, aid))
				ev := idx.AttackEvidence(aid)
				n := 0
				for _, e := range ev {
					if covered[e] > 0 {
						n++
					}
				}
				same("AttackCoverage", AttackCoverage(idx, d, aid), float64(n)/float64(len(ev)))
			}
		}
	}
}

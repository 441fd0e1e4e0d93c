package campaign

import (
	"math"
	"testing"

	"secmon/internal/metrics"
	"secmon/internal/model"
)

// TestAnalyticRecallMatchesAttackCoverage checks that the per-attack
// evidence recall Analytic derives from its one covered-data map is
// metrics.AttackCoverage bit for bit, for the empty, half and full
// case-study deployments.
func TestAnalyticRecallMatchesAttackCoverage(t *testing.T) {
	idx := testIndex(t)
	for _, d := range []*model.Deployment{
		model.NewDeployment(), halfDeployment(idx), model.NewDeployment(idx.MonitorIDs()...),
	} {
		p, err := Analytic(idx, d, Config{})
		if err != nil {
			t.Fatalf("Analytic: %v", err)
		}
		for _, ap := range p.PerAttack {
			want := metrics.AttackCoverage(idx, d, ap.Attack)
			if math.Float64bits(ap.EvidenceRecall) != math.Float64bits(want) {
				t.Fatalf("%s: recall %v, AttackCoverage %v", ap.Attack, ap.EvidenceRecall, want)
			}
		}
	}
}

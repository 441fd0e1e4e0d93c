package metrics

import (
	"fmt"
	"strings"

	"secmon/internal/model"
)

// AttackReport is the per-attack breakdown inside a Report.
type AttackReport struct {
	ID     model.AttackID `json:"id"`
	Name   string         `json:"name"`
	Weight float64        `json:"weight"`
	// EvidenceTotal is the size of the attack's evidence union.
	EvidenceTotal int `json:"evidenceTotal"`
	// EvidenceCovered is how many evidence items the deployment observes.
	EvidenceCovered int `json:"evidenceCovered"`
	// Coverage is EvidenceCovered / EvidenceTotal.
	Coverage float64 `json:"coverage"`
	// Confidence is the fraction of evidence corroborated by >= 2 monitors.
	Confidence float64 `json:"confidence"`
	// Earliness is how early in the step sequence the attack becomes
	// observable (1 = first step, 0 = never).
	Earliness float64 `json:"earliness"`
}

// Report bundles every metric of a deployment for presentation.
type Report struct {
	Deployment []model.MonitorID `json:"deployment"`
	Cost       float64           `json:"cost"`
	Utility    float64           `json:"utility"`
	// MaxUtility is the ceiling achievable by deploying every monitor.
	MaxUtility         float64 `json:"maxUtility"`
	Richness           float64 `json:"richness"`
	MeanRedundancy     float64 `json:"meanRedundancy"`
	Distinguishability float64 `json:"distinguishability"`
	// Earliness is the weighted mean attack earliness.
	Earliness float64 `json:"earliness"`
	// CorroboratedUtility is the utility counting only evidence seen by at
	// least two monitors.
	CorroboratedUtility float64        `json:"corroboratedUtility"`
	Attacks             []AttackReport `json:"attacks"`
}

// Evaluate computes the full metric report for a deployment. Attack rows are
// ordered by attack identifier.
func Evaluate(idx *model.Index, d *model.Deployment) *Report {
	covered := CoveredData(idx, d)
	r := &Report{
		Deployment:          d.IDs(),
		Cost:                Cost(idx, d),
		Utility:             Utility(idx, d),
		MaxUtility:          MaxUtility(idx),
		Richness:            Richness(idx, d),
		MeanRedundancy:      MeanRedundancy(idx, d),
		Distinguishability:  Distinguishability(idx, d),
		Earliness:           Earliness(idx, d),
		CorroboratedUtility: CorroboratedUtility(idx, d, 2),
	}
	for _, id := range idx.AttackIDs() {
		a, _ := idx.Attack(id)
		ev := idx.AttackEvidence(id)
		coveredCount := 0
		for _, e := range ev {
			if covered[e] > 0 {
				coveredCount++
			}
		}
		cov := 0.0
		if len(ev) > 0 {
			cov = float64(coveredCount) / float64(len(ev))
		}
		r.Attacks = append(r.Attacks, AttackReport{
			ID:              id,
			Name:            a.Name,
			Weight:          model.AttackWeight(*a),
			EvidenceTotal:   len(ev),
			EvidenceCovered: coveredCount,
			Coverage:        cov,
			Confidence:      AttackConfidence(idx, d, id),
			Earliness:       AttackEarliness(idx, d, id),
		})
	}
	return r
}

// String renders the report as a readable multi-line summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "deployment: %d monitors, cost %.2f\n", len(r.Deployment), r.Cost)
	fmt.Fprintf(&b, "utility %.4f (max achievable %.4f), richness %.4f, mean redundancy %.2f, distinguishability %.4f\n",
		r.Utility, r.MaxUtility, r.Richness, r.MeanRedundancy, r.Distinguishability)
	fmt.Fprintf(&b, "earliness %.4f, corroborated utility (k=2) %.4f\n", r.Earliness, r.CorroboratedUtility)
	for _, a := range r.Attacks {
		fmt.Fprintf(&b, "  %-28s w=%.1f coverage %d/%d (%.2f) confidence %.2f earliness %.2f\n",
			a.ID, a.Weight, a.EvidenceCovered, a.EvidenceTotal, a.Coverage, a.Confidence, a.Earliness)
	}
	return b.String()
}

// AssetReport summarizes monitoring posture on one asset.
type AssetReport struct {
	ID   model.AssetID `json:"id"`
	Name string        `json:"name"`
	// MonitorsDeployed and MonitorsAvailable count the deployment's
	// monitors on the asset against all deployable ones.
	MonitorsDeployed  int `json:"monitorsDeployed"`
	MonitorsAvailable int `json:"monitorsAvailable"`
	// Spend is the cost of the deployed monitors on this asset.
	Spend float64 `json:"spend"`
	// RelevantData and CoveredData count the asset's security-relevant data
	// types (those used as attack evidence) and how many are covered.
	RelevantData int `json:"relevantData"`
	CoveredData  int `json:"coveredData"`
}

// EvaluateAssets computes the per-asset posture breakdown: where the
// monitoring spend sits and which assets still generate unobserved
// evidence. Rows follow the system's asset order.
func EvaluateAssets(idx *model.Index, d *model.Deployment) []AssetReport {
	relevant := make(map[model.DataTypeID]bool)
	for _, a := range idx.System().Attacks {
		for _, e := range idx.AttackEvidence(a.ID) {
			relevant[e] = true
		}
	}
	covered := CoveredData(idx, d)

	byAsset := make(map[model.AssetID]*AssetReport)
	order := make([]model.AssetID, 0, len(idx.System().Assets))
	for _, a := range idx.System().Assets {
		byAsset[a.ID] = &AssetReport{ID: a.ID, Name: a.Name}
		order = append(order, a.ID)
	}
	for _, id := range idx.MonitorIDs() {
		m, _ := idx.Monitor(id)
		r, ok := byAsset[m.Asset]
		if !ok {
			continue // unanchored monitor
		}
		r.MonitorsAvailable++
		if d.Contains(id) {
			r.MonitorsDeployed++
			r.Spend += m.TotalCost()
		}
	}
	for dt := range relevant {
		info, ok := idx.DataType(dt)
		if !ok {
			continue
		}
		r, ok := byAsset[info.Asset]
		if !ok {
			continue
		}
		r.RelevantData++
		if covered[dt] > 0 {
			r.CoveredData++
		}
	}

	out := make([]AssetReport, 0, len(order))
	for _, id := range order {
		out = append(out, *byAsset[id])
	}
	return out
}

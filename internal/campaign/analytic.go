package campaign

import (
	"fmt"
	"math"

	"secmon/internal/metrics"
	"secmon/internal/model"
)

// AttackPrediction is the closed-form outcome distribution of one attack's
// campaigns under a deployment and a configuration.
type AttackPrediction struct {
	Attack model.AttackID `json:"attack"`
	Weight float64        `json:"weight"`
	Steps  int            `json:"steps"`
	// DetectionProb is the probability that a campaign of this attack
	// raises at least one alert.
	DetectionProb float64 `json:"detectionProb"`
	// Earliness is the expected event-time detection earliness. Because
	// inter-stage dwells are i.i.d., E[S_i/S_k] = i/k and the expectation
	// reduces to sum_i P(first detection at stage i) * (1 - i/k); under
	// ideal probabilities it equals metrics.AttackEarliness.
	Earliness float64 `json:"earliness"`
	// EvidenceRecall is the ideal-probability recall target: the attack's
	// analytic coverage (metrics.AttackCoverage).
	EvidenceRecall float64 `json:"evidenceRecall"`
}

// Prediction is the analytic counterpart of a Summary: what the estimators
// must converge to as trials grow.
type Prediction struct {
	// DetectionRate and Earliness are campaign-weighted expectations over
	// the replayable attacks (weights mirror the engine's attack sampling).
	// They are exact for any manifest/capture probability; lateral movement
	// turns them into upper bounds (Exact false).
	DetectionRate float64 `json:"detectionRate"`
	Earliness     float64 `json:"earliness"`
	// EvidenceRecall is the weighted analytic coverage; it is an exact
	// expectation only under ideal probabilities (RecallExact).
	EvidenceRecall float64            `json:"evidenceRecall"`
	Exact          bool               `json:"exact"`
	RecallExact    bool               `json:"recallExact"`
	PerAttack      []AttackPrediction `json:"perAttack"`
}

// Divergence is one estimator that failed to match its analytic target
// within the confidence bounds — a reportable bug in the engine or the
// metrics, not a statistical flake.
type Divergence struct {
	Metric    string         `json:"metric"`
	Attack    model.AttackID `json:"attack,omitempty"`
	Empirical float64        `json:"empirical"`
	Analytic  float64        `json:"analytic"`
	HalfWidth float64        `json:"halfWidth"`
	// Bound is "two-sided" for exact expectations and "upper" when lateral
	// movement makes the analytic value a ceiling.
	Bound string `json:"bound"`
}

func (d Divergence) String() string {
	who := d.Metric
	if d.Attack != "" {
		who = fmt.Sprintf("%s[%s]", d.Metric, d.Attack)
	}
	return fmt.Sprintf("%s: empirical %.6f vs analytic %.6f (±%.6f, %s)",
		who, d.Empirical, d.Analytic, d.HalfWidth, d.Bound)
}

// Analytic computes the closed-form campaign outcome the engine must
// reproduce: per attack, the stage-by-stage miss probabilities
//
//	q_j = prod over evidence e of step j: 1 - m*(1 - (1-c)^r_e)
//
// with m the manifest probability, c the capture probability and r_e the
// number of deployed producers of e; detection is 1 - prod q_j and the
// expected event-time earliness is sum_i (prod_{j<i} q_j)(1-q_i)(1 - i/k).
// Under ideal probabilities these reduce to the internal/metrics values:
// detectability (coverage > 0) and AttackEarliness.
func Analytic(idx *model.Index, d *model.Deployment, cfg Config) (*Prediction, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if d == nil {
		d = model.NewDeployment()
	}
	covered := metrics.CoveredData(idx, d)
	p := &Prediction{
		Exact:       c.LateralProb == 0,
		RecallExact: c.LateralProb == 0 && c.ManifestProb == 1 && c.CaptureProb == 1,
	}
	totalW := 0.0
	for _, aid := range idx.AttackIDs() {
		attack, _ := idx.Attack(aid)
		k := len(attack.Steps)
		if k == 0 {
			continue // not replayable; the engine never samples it
		}
		ap := AttackPrediction{
			Attack:         aid,
			Weight:         model.AttackWeight(*attack),
			Steps:          k,
			EvidenceRecall: evidenceRecall(idx.AttackEvidence(aid), covered),
		}
		prefix := 1.0 // probability every stage before the current one missed
		for i, step := range attack.Steps {
			q := 1.0
			for _, e := range step.Evidence {
				r := covered[e]
				q *= 1 - c.ManifestProb*(1-math.Pow(1-c.CaptureProb, float64(r)))
			}
			ap.Earliness += prefix * (1 - q) * (1 - float64(i)/float64(k))
			prefix *= q
		}
		ap.DetectionProb = 1 - prefix
		p.PerAttack = append(p.PerAttack, ap)
		totalW += ap.Weight
		p.DetectionRate += ap.Weight * ap.DetectionProb
		p.Earliness += ap.Weight * ap.Earliness
		p.EvidenceRecall += ap.Weight * ap.EvidenceRecall
	}
	if len(p.PerAttack) == 0 {
		return nil, ErrNoAttacks
	}
	p.DetectionRate /= totalW
	p.Earliness /= totalW
	p.EvidenceRecall /= totalW
	return p, nil
}

// evidenceRecall is metrics.AttackCoverage computed from the deployment's
// covered-data counts, which Analytic builds once for every attack.
func evidenceRecall(ev []model.DataTypeID, covered map[model.DataTypeID]int) float64 {
	if len(ev) == 0 {
		return 0
	}
	n := 0
	for _, e := range ev {
		if covered[e] > 0 {
			n++
		}
	}
	return float64(n) / float64(len(ev))
}

// Check compares a measured summary against the prediction and returns
// every estimator outside its confidence bounds. Exact predictions are
// checked two-sided at the summary's 99% half-widths; with lateral movement
// only the upper bound is asserted. Estimators without a usable confidence
// interval (fewer than two batches) are skipped. An empty result means the
// run converged.
//
// On top of the batch-means half-width, every comparison allows a slack of
// 6/n (n = the estimator's campaign count): the interval covers the variance
// the sample exhibited, not the mass of rare outcomes it plausibly never
// drew. A probability-q event with n*q <= -ln(0.005) ~ 5.3 is absent from an
// n-campaign sample at the 99% level, leaving the mean a constant (zero
// half-width) that legitimately sits up to ~5.3/n away from the target —
// e.g. a per-attack detection probability of 1-1e-4 observed as a clean
// 1.000 over a few hundred campaigns. Without the slack such runs would be
// flagged as engine bugs.
func (p *Prediction) Check(sum *Summary) []Divergence {
	const eps = 1e-9
	var out []Divergence
	check := func(metric string, attack model.AttackID, est Estimate, target float64, n int) {
		if est.HalfWidth99 < 0 || n <= 0 {
			return
		}
		tol := est.HalfWidth99 + 6/float64(n) + eps
		diff := est.Mean - target
		bad := false
		bound := "upper"
		if p.Exact {
			bound = "two-sided"
			bad = math.Abs(diff) > tol
		} else {
			bad = diff > tol
		}
		if bad {
			out = append(out, Divergence{
				Metric: metric, Attack: attack,
				Empirical: est.Mean, Analytic: target,
				HalfWidth: est.HalfWidth99, Bound: bound,
			})
		}
	}
	check("detection-rate", "", sum.DetectionRate, p.DetectionRate, sum.Measured)
	check("earliness", "", sum.Earliness, p.Earliness, sum.Measured)
	if p.RecallExact {
		check("evidence-recall", "", sum.EvidenceRecall, p.EvidenceRecall, sum.Measured)
	}
	byID := make(map[model.AttackID]*AttackPrediction, len(p.PerAttack))
	for i := range p.PerAttack {
		byID[p.PerAttack[i].Attack] = &p.PerAttack[i]
	}
	for _, o := range sum.PerAttack {
		ap, ok := byID[o.Attack]
		if !ok {
			continue
		}
		check("detection-rate", o.Attack, o.DetectionRate, ap.DetectionProb, o.Campaigns)
		check("earliness", o.Attack, o.Earliness, ap.Earliness, o.Campaigns)
		if p.RecallExact {
			check("evidence-recall", o.Attack, o.EvidenceRecall, ap.EvidenceRecall, o.Campaigns)
		}
	}
	return out
}

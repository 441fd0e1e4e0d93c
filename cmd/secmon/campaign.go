package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"secmon/internal/campaign"
	"secmon/internal/core"
	"secmon/internal/model"
)

// campaignOutput is the JSON body of `simulate-campaign -json`: the measured
// summary plus, under -check, the analytic prediction and any divergences.
// It deliberately mirrors the /v1/simulate response so scripted callers can
// consume either surface with one decoder.
type campaignOutput struct {
	Summary     *campaign.Summary     `json:"summary"`
	Analytic    *campaign.Prediction  `json:"analytic,omitempty"`
	Divergences []campaign.Divergence `json:"divergences,omitempty"`
	Converged   *bool                 `json:"converged,omitempty"`
}

// cmdSimulateCampaign replays seeded multi-stage attack campaigns against a
// deployment and reports the empirical estimators with their 99% confidence
// intervals; -check validates them against the analytic metrics and
// -feedback converts the measured detection shortfalls into a tenant delta
// batch for `secmon mutate -deltas`.
func cmdSimulateCampaign(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simulate-campaign", flag.ContinueOnError)
	modelPath := fs.String("model", "", "JSON system model (default: case study)")
	monitors := fs.String("monitors", "", "comma-separated monitor IDs to deploy")
	all := fs.Bool("all", false, "deploy every monitor")
	budgetFraction := fs.Float64("budget-fraction", -1,
		"optimize the deployment first: max-utility at this fraction of total monitor cost")
	seed := fs.Int64("seed", 1, "replay seed; equal seeds are byte-identical")
	trials := fs.Int("trials", 1000, "campaigns to replay")
	warmup := fs.Int("warmup", 0, "initial campaigns excluded from the estimators")
	workers := fs.Int("workers", 1, "simulation workers (the summary is identical for any count)")
	arrival := fs.Float64("arrival-rate", 1, "mean campaign arrivals per unit time")
	benign := fs.Float64("benign-rate", 0, "mean benign background events per unit time")
	dwell := fs.Float64("dwell", 1, "mean inter-stage dwell time")
	manifest := fs.Float64("manifest", 1, "evidence manifestation probability")
	capture := fs.Float64("capture", 1, "monitor capture probability")
	lateral := fs.Float64("lateral", 0, "per-stage lateral-movement probability")
	batches := fs.Int("batches", 0, "batch-means batch count (default 20)")
	check := fs.Bool("check", false, "validate the estimators against the analytic metrics")
	jsonOut := fs.Bool("json", false, "emit the summary as JSON")
	feedback := fs.String("feedback", "", "write detection-shortfall deltas to this file ('-' for stdout)")
	boost := fs.Float64("boost", 1, "weight boost factor for -feedback deltas")
	if err := fs.Parse(args); err != nil {
		return err
	}
	idx, err := loadIndex(*modelPath)
	if err != nil {
		return err
	}
	var d *model.Deployment
	switch {
	case *budgetFraction >= 0:
		spec := core.Spec{BudgetFraction: budgetFraction}
		res, err := core.NewOptimizer(idx, spec.Options()...).Run(spec)
		if err != nil {
			return fmt.Errorf("simulate-campaign: optimize deployment: %w", err)
		}
		d = res.Deployment
	case *all:
		d = model.NewDeployment(idx.MonitorIDs()...)
	default:
		if d, err = parseMonitors(idx, *monitors); err != nil {
			return err
		}
	}
	cfg := campaign.Config{
		Seed:         *seed,
		Trials:       *trials,
		Warmup:       *warmup,
		Workers:      *workers,
		ArrivalRate:  *arrival,
		BenignRate:   *benign,
		DwellMean:    *dwell,
		ManifestProb: *manifest,
		CaptureProb:  *capture,
		LateralProb:  *lateral,
		Batches:      *batches,
	}
	sum, err := campaign.Run(idx, d, cfg)
	if err != nil {
		return err
	}

	output := campaignOutput{Summary: sum}
	var pred *campaign.Prediction
	if *check || *feedback != "" {
		if pred, err = campaign.Analytic(idx, d, cfg); err != nil {
			return err
		}
	}
	if *check {
		div := pred.Check(sum)
		converged := len(div) == 0
		output.Analytic = pred
		output.Divergences = div
		output.Converged = &converged
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(output); err != nil {
			return err
		}
	} else {
		printCampaignSummary(out, &output)
	}

	if *feedback != "" {
		if err := writeFeedbackDeltas(out, idx, sum, pred, *feedback, *boost); err != nil {
			return err
		}
	}
	if output.Converged != nil && !*output.Converged {
		return fmt.Errorf("simulate-campaign: %d estimator(s) diverged from the analytic metrics",
			len(output.Divergences))
	}
	return nil
}

func printCampaignSummary(out io.Writer, o *campaignOutput) {
	sum := o.Summary
	fmt.Fprintf(out, "%d campaigns replayed (%d measured), %d events, horizon %.1f, peak concurrency %d\n",
		sum.Campaigns, sum.Measured, sum.Events, sum.Horizon, sum.MaxConcurrent)
	fmt.Fprintf(out, "%-24s %10s %12s %10s\n", "estimator", "mean", "ci99", "analytic")
	row := func(name string, est campaign.Estimate, analytic string) {
		ci := "n/a"
		if est.HalfWidth99 >= 0 {
			ci = fmt.Sprintf("±%.5f", est.HalfWidth99)
		}
		fmt.Fprintf(out, "%-24s %10.5f %12s %10s\n", name, est.Mean, ci, analytic)
	}
	analytic := func(v float64) string { return fmt.Sprintf("%.5f", v) }
	if o.Analytic != nil {
		row("detection-rate", sum.DetectionRate, analytic(o.Analytic.DetectionRate))
		row("earliness", sum.Earliness, analytic(o.Analytic.Earliness))
		row("evidence-recall", sum.EvidenceRecall, analytic(o.Analytic.EvidenceRecall))
	} else {
		row("detection-rate", sum.DetectionRate, "-")
		row("earliness", sum.Earliness, "-")
		row("evidence-recall", sum.EvidenceRecall, "-")
	}
	fmt.Fprintf(out, "%d attack alerts, %d benign alerts (%.2f false positives per unit time)\n",
		sum.AttackAlerts, sum.BenignAlerts, sum.FalsePositiveLoad)
	if o.Converged != nil {
		if *o.Converged {
			fmt.Fprintln(out, "convergence check: all estimators within their analytic bounds")
		} else {
			for _, d := range o.Divergences {
				fmt.Fprintf(out, "DIVERGED %s\n", d)
			}
		}
	}
}

// writeFeedbackDeltas converts measured detection shortfalls into a
// state-delta batch (drop + re-add with boosted weight per attack), written
// as the JSON array `secmon mutate -deltas` consumes.
func writeFeedbackDeltas(out io.Writer, idx *model.Index, sum *campaign.Summary,
	pred *campaign.Prediction, path string, boost float64) error {
	shortfalls := campaign.Shortfalls(sum, pred)
	deltas, err := campaign.FeedbackDeltas(idx, shortfalls, boost)
	if err != nil {
		return err
	}
	body, err := json.MarshalIndent(deltas, "", "  ")
	if err != nil {
		return err
	}
	body = append(body, '\n')
	if path == "-" {
		_, err = out.Write(body)
		return err
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return fmt.Errorf("write feedback deltas: %w", err)
	}
	fmt.Fprintf(out, "wrote %d feedback deltas for %d shortfall(s) to %s\n",
		len(deltas), len(shortfalls), path)
	return nil
}

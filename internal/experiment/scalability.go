package experiment

import (
	"fmt"
	"io"
	"time"

	"secmon/internal/core"
	"secmon/internal/model"
	"secmon/internal/synth"
)

// ScalePoint is one measured configuration of the scalability experiment.
type ScalePoint struct {
	Monitors     int
	Attacks      int
	Workers      int
	Utility      float64
	Nodes        int
	LPIterations int
	Elapsed      time.Duration
}

// e7MonitorSweep and e7AttackSweep are the synthetic system sizes of E7.
// The paper's claim under reproduction: optimal deployments for systems with
// hundreds of monitors and attacks are computed within minutes.
var (
	e7MonitorSweep = []int{50, 100, 200, 400}
	e7AttackSweep  = []int{50, 100, 200, 400}
)

// e7BudgetFraction is the budget (fraction of total cost) used at every
// scalability point; mid-range budgets are the hardest for the solver.
const e7BudgetFraction = 0.3

// ScalabilityPoint generates a synthetic system of the given size and solves
// the MaxUtility ILP at the standard budget fraction, returning the measured
// effort. It runs one branch-and-bound worker; see ScalabilityPointWorkers.
func ScalabilityPoint(monitors, attacks int, seed int64) (ScalePoint, error) {
	return ScalabilityPointWorkers(monitors, attacks, seed, 1)
}

// ScalabilityPointWorkers is ScalabilityPoint with an explicit
// branch-and-bound worker count (<= 0 selects runtime.GOMAXPROCS).
func ScalabilityPointWorkers(monitors, attacks int, seed int64, workers int) (ScalePoint, error) {
	sys, err := synth.Generate(synth.Config{Seed: seed, Monitors: monitors, Attacks: attacks})
	if err != nil {
		return ScalePoint{}, err
	}
	idx, err := model.NewIndex(sys)
	if err != nil {
		return ScalePoint{}, err
	}
	opt := core.NewOptimizer(idx, core.WithWorkers(workers))
	res, err := opt.MaxUtility(sys.TotalMonitorCost() * e7BudgetFraction)
	if err != nil {
		return ScalePoint{}, err
	}
	return ScalePoint{
		Monitors:     monitors,
		Attacks:      attacks,
		Workers:      res.Stats.Workers,
		Utility:      res.Utility,
		Nodes:        res.Stats.Nodes,
		LPIterations: res.Stats.LPIterations,
		Elapsed:      res.Stats.Elapsed,
	}, nil
}

// RunE7Scalability renders solve effort across the monitor sweep (attacks
// fixed at 100) and the attack sweep (monitors fixed at 100): the paper's
// scalability figure.
func RunE7Scalability(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "monitor sweep (attacks fixed at 100, budget 30% of total):"); err != nil {
		return err
	}
	t := newTable(w, "monitors", "attacks", "utility", "bb-nodes", "lp-iters", "solve-time")
	for _, m := range e7MonitorSweep {
		p, err := ScalabilityPoint(m, 100, 1000+int64(m))
		if err != nil {
			return err
		}
		t.rowf("%d\t%d\t%.4f\t%d\t%d\t%s", p.Monitors, p.Attacks, p.Utility, p.Nodes, p.LPIterations,
			p.Elapsed.Round(time.Millisecond))
	}
	if err := t.flush(); err != nil {
		return err
	}

	if _, err := fmt.Fprintln(w, "attack sweep (monitors fixed at 100, budget 30% of total):"); err != nil {
		return err
	}
	t = newTable(w, "monitors", "attacks", "utility", "bb-nodes", "lp-iters", "solve-time")
	for _, a := range e7AttackSweep {
		p, err := ScalabilityPoint(100, a, 2000+int64(a))
		if err != nil {
			return err
		}
		t.rowf("%d\t%d\t%.4f\t%d\t%d\t%s", p.Monitors, p.Attacks, p.Utility, p.Nodes, p.LPIterations,
			p.Elapsed.Round(time.Millisecond))
	}
	return t.flush()
}

package core

import (
	"errors"
	"testing"

	"secmon/internal/certify"
	"secmon/internal/metrics"
	"secmon/internal/model"
)

// edgeIndex builds a small system from a monitor spec list; every monitor
// observes the single attack's only evidence item unless it produces
// nothing the attack needs.
type edgeMonitor struct {
	id       model.MonitorID
	cap, op  float64
	produces []model.DataTypeID
}

func edgeIndexFor(t *testing.T, monitors []edgeMonitor) *model.Index {
	t.Helper()
	b := model.NewBuilder("edge-test").
		Asset("host", "Host", "host").
		DataType("log", "Log", "host", "f").
		DataType("ghost", "Unproduced data", "host", "f")
	for _, m := range monitors {
		b = b.Monitor(m.id, string(m.id), "host", m.cap, m.op, m.produces...)
	}
	sys, err := b.
		Attack("a1", "Attack", 1).
		Step("s1", "log").
		Done().
		Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	idx, err := model.NewIndex(sys)
	if err != nil {
		t.Fatalf("index: %v", err)
	}
	return idx
}

// verifyEdgeResult checks the proof obligations shared by every edge case:
// a proven status and a verifiable certificate.
func verifyEdgeResult(t *testing.T, label string, res *Result) {
	t.Helper()
	if !res.Proven {
		t.Fatalf("%s: not proven (status %s)", label, res.Status)
	}
	if res.Certificate == nil {
		t.Fatalf("%s: no certificate: %s", label, res.CertificateNote)
	}
	if _, err := certify.Verify(res.Certificate); err != nil {
		t.Fatalf("%s: certificate rejected: %v", label, err)
	}
}

// TestEdgeCases drives the presolve/root handling through degenerate
// instance shapes, at one worker and at four, certifying every
// proven solve.
func TestEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, workers int)
	}{
		{"empty instance", func(t *testing.T, workers int) {
			// No monitors at all: the only deployment is the empty one.
			idx := edgeIndexFor(t, nil)
			opt := NewOptimizer(idx, WithWorkers(workers), WithCertificate())
			res, err := opt.MaxUtility(100)
			if err != nil {
				t.Fatalf("MaxUtility: %v", err)
			}
			if len(res.Monitors) != 0 || res.Utility != 0 || res.Cost != 0 {
				t.Fatalf("want empty zero-utility deployment, got %+v", res)
			}
			verifyEdgeResult(t, "empty MaxUtility", res)
			if _, err := opt.MinCost(CoverageTargets{Global: 1}); !errors.Is(err, ErrInfeasible) {
				t.Fatalf("MinCost on empty system: err = %v, want ErrInfeasible", err)
			}
			clamped := NewOptimizer(idx, WithWorkers(workers), WithCertificate(), WithClampToAchievable())
			res, err = clamped.MinCost(CoverageTargets{Global: 1})
			if err != nil {
				t.Fatalf("clamped MinCost: %v", err)
			}
			if res.Cost != 0 {
				t.Fatalf("clamped MinCost cost %v, want 0", res.Cost)
			}
			verifyEdgeResult(t, "empty clamped MinCost", res)
		}},
		{"all-zero-cost monitors", func(t *testing.T, workers int) {
			idx := edgeIndexFor(t, []edgeMonitor{
				{id: "m1", produces: []model.DataTypeID{"log"}},
				{id: "m2", produces: []model.DataTypeID{"log"}},
			})
			opt := NewOptimizer(idx, WithWorkers(workers), WithCertificate())
			// A zero budget still buys every free monitor: utility must hit
			// the achievable ceiling at zero cost.
			res, err := opt.MaxUtility(0)
			if err != nil {
				t.Fatalf("MaxUtility: %v", err)
			}
			if want := metrics.MaxUtility(idx); !approx(res.Utility, want) {
				t.Fatalf("utility %v, want ceiling %v", res.Utility, want)
			}
			if res.Cost != 0 {
				t.Fatalf("cost %v, want 0", res.Cost)
			}
			verifyEdgeResult(t, "zero-cost MaxUtility", res)
		}},
		{"infeasible budget", func(t *testing.T, workers int) {
			idx := edgeIndexFor(t, []edgeMonitor{{id: "m1", cap: 10, op: 5, produces: []model.DataTypeID{"log"}}})
			opt := NewOptimizer(idx, WithWorkers(workers), WithCertificate())
			if _, err := opt.MaxUtility(-1); !errors.Is(err, ErrBadBudget) {
				t.Fatalf("negative budget: err = %v, want ErrBadBudget", err)
			}
			// A budget below every monitor's cost is feasible — the optimum
			// is simply the empty deployment.
			res, err := opt.MaxUtility(1)
			if err != nil {
				t.Fatalf("MaxUtility: %v", err)
			}
			if len(res.Monitors) != 0 || res.Utility != 0 {
				t.Fatalf("want empty deployment under tiny budget, got %+v", res)
			}
			verifyEdgeResult(t, "tiny-budget MaxUtility", res)
		}},
		{"single monitor", func(t *testing.T, workers int) {
			idx := edgeIndexFor(t, []edgeMonitor{{id: "only", cap: 10, op: 5, produces: []model.DataTypeID{"log"}}})
			opt := NewOptimizer(idx, WithWorkers(workers), WithCertificate())
			res, err := opt.MaxUtility(15)
			if err != nil {
				t.Fatalf("MaxUtility: %v", err)
			}
			if len(res.Monitors) != 1 || res.Monitors[0] != "only" {
				t.Fatalf("monitors %v, want [only]", res.Monitors)
			}
			if want := metrics.MaxUtility(idx); !approx(res.Utility, want) {
				t.Fatalf("utility %v, want %v", res.Utility, want)
			}
			verifyEdgeResult(t, "single MaxUtility", res)
			res, err = opt.MinCost(CoverageTargets{Global: 1})
			if err != nil {
				t.Fatalf("MinCost: %v", err)
			}
			if !approx(res.Cost, 15) {
				t.Fatalf("MinCost cost %v, want 15", res.Cost)
			}
			verifyEdgeResult(t, "single MinCost", res)
		}},
		{"duplicate monitors", func(t *testing.T, workers int) {
			// Two identical monitors: the optimum needs exactly one, and the
			// tie must not confuse the solver or the certificate.
			idx := edgeIndexFor(t, []edgeMonitor{
				{id: "twin-a", cap: 10, op: 5, produces: []model.DataTypeID{"log"}},
				{id: "twin-b", cap: 10, op: 5, produces: []model.DataTypeID{"log"}},
			})
			opt := NewOptimizer(idx, WithWorkers(workers), WithCertificate())
			res, err := opt.MaxUtility(40)
			if err != nil {
				t.Fatalf("MaxUtility: %v", err)
			}
			if len(res.Monitors) != 1 {
				t.Fatalf("monitors %v, want exactly one twin", res.Monitors)
			}
			if want := metrics.MaxUtility(idx); !approx(res.Utility, want) {
				t.Fatalf("utility %v, want %v", res.Utility, want)
			}
			verifyEdgeResult(t, "duplicate MaxUtility", res)
			res, err = opt.MinCost(CoverageTargets{Global: 1})
			if err != nil {
				t.Fatalf("MinCost: %v", err)
			}
			if !approx(res.Cost, 15) || len(res.Monitors) != 1 {
				t.Fatalf("MinCost %v at %v, want one twin at 15", res.Monitors, res.Cost)
			}
			verifyEdgeResult(t, "duplicate MinCost", res)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				tc.run(t, workers)
			}
		})
	}
}

package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"secmon/internal/model"
)

// TestEvaluatorMatchesPureFunctions drives an Evaluator through random
// add/remove trajectories and checks every intermediate state against the
// pure CorroboratedUtility, for all corroboration levels the counts can
// reach. The evaluator must be a drop-in for the map-based functions.
func TestEvaluatorMatchesPureFunctions(t *testing.T) {
	idx := testIndex(t)
	mons := idx.MonitorIDs()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		d := model.NewDeployment()
		for _, id := range mons {
			if rng.Intn(2) == 0 {
				d.Add(id)
			}
		}
		e := NewEvaluator(idx)
		e.Load(d)
		check := func(step string) {
			t.Helper()
			for k := 0; k <= 4; k++ {
				want := CorroboratedUtility(idx, d, k)
				if got := e.CorroboratedUtility(k); !approx(got, want) {
					t.Fatalf("trial %d %s: k=%d evaluator=%v pure=%v deployment=%v",
						trial, step, k, got, want, d)
				}
			}
		}
		check("after load")
		for step := 0; step < 10; step++ {
			id := mons[rng.Intn(len(mons))]
			if d.Contains(id) {
				d.Remove(id)
				e.Remove(id)
			} else {
				d.Add(id)
				e.Add(id)
			}
			check(fmt.Sprintf("step %d", step))
		}
	}
}

// TestEvaluatorUnknownMonitor verifies unknown identifiers are ignored, as
// CoveredData ignores them.
func TestEvaluatorUnknownMonitor(t *testing.T) {
	idx := testIndex(t)
	d := model.NewDeployment("m-http", "ghost-monitor")
	e := NewEvaluator(idx)
	e.Load(d)
	if got, want := e.CorroboratedUtility(1), Utility(idx, d); !approx(got, want) {
		t.Fatalf("with unknown monitor: evaluator=%v pure=%v", got, want)
	}
	e.Remove("ghost-monitor") // must be a no-op, not a panic
	if got, want := e.CorroboratedUtility(1), Utility(idx, d); !approx(got, want) {
		t.Fatalf("after removing unknown monitor: evaluator=%v pure=%v", got, want)
	}
}

// TestEvaluatorReload verifies Load fully resets state from a previous
// deployment.
func TestEvaluatorReload(t *testing.T) {
	idx := testIndex(t)
	e := NewEvaluator(idx)
	e.Load(model.NewDeployment("m-http", "m-db", "m-net"))
	d := model.NewDeployment("m-db")
	e.Load(d)
	for k := 1; k <= 2; k++ {
		if got, want := e.CorroboratedUtility(k), CorroboratedUtility(idx, d, k); !approx(got, want) {
			t.Fatalf("k=%d after reload: evaluator=%v pure=%v", k, got, want)
		}
	}
}

// TestEvaluatorChangePreview checks the swap preview against applying the
// swap: when no evidence data type crosses the threshold the score is
// unchanged bit for bit, and otherwise delta is the score change up to
// rounding.
func TestEvaluatorChangePreview(t *testing.T) {
	idx := testIndex(t)
	n := idx.NumMonitors()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		e := NewEvaluator(idx)
		in := make([]bool, n)
		for m := range in {
			if in[m] = rng.Intn(2) == 0; in[m] {
				e.AddOrdinal(m)
			}
		}
		out, add := -1, -1
		for m := range in {
			if in[m] && (out < 0 || rng.Intn(2) == 0) {
				out = m
			}
			if !in[m] && (add < 0 || rng.Intn(2) == 0) {
				add = m
			}
		}
		if rng.Intn(3) == 0 {
			add = -1
		}
		for k := 1; k <= 2; k++ {
			before := e.CorroboratedUtility(k)
			crossed, delta := e.Change(out, add, k)
			if out >= 0 {
				e.RemoveOrdinal(out)
			}
			if add >= 0 {
				e.AddOrdinal(add)
			}
			after := e.CorroboratedUtility(k)
			if !crossed && math.Float64bits(after) != math.Float64bits(before) {
				t.Fatalf("trial %d k=%d: no crossing but score %v -> %v", trial, k, before, after)
			}
			if math.Abs(after-before-delta) > 1e-12 {
				t.Fatalf("trial %d k=%d: delta %v, score change %v", trial, k, delta, after-before)
			}
			if add >= 0 {
				e.RemoveOrdinal(add)
			}
			if out >= 0 {
				e.AddOrdinal(out)
			}
		}
	}
}

package server

import (
	"encoding/json"
	"math"
	"strconv"

	"secmon/internal/core"
	"secmon/internal/model"
)

// sweepPointKeyFields is the subset of a sweep request that determines one
// budget point's result: the system, the baseline seed, and the per-solve
// worker count. Grid shape (steps, budgets, point-level workers) and
// deadlines deliberately do not participate — a point proven under one grid
// is the same point under any other, which is what lets differently shaped
// sweeps share budget points.
type sweepPointKeyFields struct {
	System        *model.System `json:"system,omitempty"`
	Seed          int64         `json:"seed"`
	SolverWorkers int           `json:"solverWorkers"`
}

// sweepPointPrefix hashes the point-relevant request fields once per sweep;
// individual point keys append only the budget, so an N-point sweep pays
// for one request hash rather than N. The handler has already resolved the
// seed and solver-worker defaults.
func sweepPointPrefix(req *SweepRequest) (string, error) {
	return requestKey("sweep-point", &sweepPointKeyFields{
		System:        req.System,
		Seed:          req.Seed,
		SolverWorkers: req.SolverWorkers,
	})
}

// sweepPointKey is the cache key for one budget point. The budget is keyed
// by its exact bit pattern: two budgets alias only when they are the same
// float64, matching the solver's own duplicate-budget detection.
func sweepPointKey(prefix string, budget float64) string {
	return prefix + ":" + strconv.FormatUint(math.Float64bits(budget), 16)
}

// decodeSweepPoint revives a cached budget point. The optimal result's
// Deployment is not serialized (it is derived state), so it is rebuilt from
// the monitor list here — the stabilization pass needs it to compare and
// share deployments across the merged curve. A point that fails to decode is
// treated as a miss.
func decodeSweepPoint(body []byte) (core.SweepPoint, bool) {
	var p core.SweepPoint
	if err := json.Unmarshal(body, &p); err != nil {
		return core.SweepPoint{}, false
	}
	if p.Optimal == nil {
		return core.SweepPoint{}, false
	}
	d := model.NewDeployment()
	for _, id := range p.Optimal.Monitors {
		d.Add(id)
	}
	p.Optimal.Deployment = d
	return p, true
}

package lp

import "testing"

// EnableScanCheck installs the full-scan pivot cross-check (see scanCheck)
// for the rest of the test, for the external tests that drive it through
// whole branch-and-bound solves. The returned function fails t on any
// difference and reports how many dual and primal pivots were checked.
func EnableScanCheck(t testing.TB) (finish func() (dual, primal int)) {
	c := enableScanCheck(t)
	return func() (int, int) {
		t.Helper()
		c.report(t)
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.dualPivots, c.primalPivots
	}
}

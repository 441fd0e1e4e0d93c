package state

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secmon/internal/core"
	"secmon/internal/model"
)

func f64(x float64) *float64 { return &x }

func openTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRecordRoundTrip(t *testing.T) {
	r := &record{
		V: logVersion, Seq: 3, RunID: "run-0011223344556677", Type: "delta",
		Delta: &Delta{Op: OpUpdateBudget, Budget: f64(42.5)},
		End:   true,
	}
	line, err := encodeRecord(r)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := parseRecord(line[:len(line)-1])
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	back, err := encodeRecord(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if string(back) != string(line) {
		t.Errorf("round trip changed bytes:\n%q\n%q", line, back)
	}
}

func TestParseRecordRejects(t *testing.T) {
	good, _ := encodeRecord(&record{V: logVersion, Seq: 1, RunID: "r", Type: "delta",
		Delta: &Delta{Op: OpDropMonitor, MonitorID: "m"}, End: true})
	good = good[:len(good)-1]

	cases := map[string][]byte{
		"empty":         {},
		"no length":     []byte("garbage"),
		"bad checksum":  []byte(strings.Replace(string(good), " ", " 0", 1)),
		"flipped byte":  append(append([]byte{}, good[:len(good)-2]...), '!', good[len(good)-1]),
		"truncated":     good[:len(good)/2],
		"non-canonical": makeFramed(t, `{"seq":1,"v":1,"runId":"r","type":"delta","delta":{"op":"drop-monitor","monitorId":"m"},"end":true}`),
		"unknown field": makeFramed(t, `{"v":1,"seq":1,"runId":"r","type":"delta","delta":{"op":"drop-monitor","monitorId":"m"},"end":true,"x":1}`),
		"wrong version": makeFramed(t, `{"v":9,"seq":1,"runId":"r","type":"delta","delta":{"op":"drop-monitor","monitorId":"m"},"end":true}`),
		"trailing json": makeFramed(t, `{"v":1,"seq":1,"runId":"r","type":"delta"}{}`),
	}
	for name, line := range cases {
		if _, err := parseRecord(line); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
	if _, err := parseRecord(good); err != nil {
		t.Errorf("control: good record rejected: %v", err)
	}
}

// makeFramed frames arbitrary JSON with a correct length and checksum so the
// test reaches the strict-parse and canonicalization layers.
func makeFramed(t *testing.T, body string) []byte {
	t.Helper()
	return []byte(fmt.Sprintf("%d %08x %s", len(body), crc32.ChecksumIEEE([]byte(body)), body))
}

func TestCreateMutateReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sys := testSystem(t, 101, 25, 20)
	spec := SolveSpec{Budget: sys.TotalMonitorCost() * 0.3, Workers: 1}
	tn, err := s.Create("acme", sys, spec)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	first := tn.Last()
	if first == nil || !first.Proven {
		t.Fatalf("initial solve: %+v", first)
	}

	var results []*core.Result
	m0 := sys.Monitors[0].ID
	batches := [][]Delta{
		{{Op: OpUpdateCost, MonitorID: m0, CapitalCost: f64(sys.Monitors[0].CapitalCost * 2)}},
		{{Op: OpUpdateBudget, Budget: f64(spec.Budget * 1.2)}},
		{
			{Op: OpAddAsset, Asset: &model.Asset{ID: "new-host", Name: "new host", Kind: "host"},
				DataTypes: []model.DataType{{ID: "new-dt", Name: "new dt", Asset: "new-host"}}},
			{Op: OpAddMonitor, Monitor: &model.Monitor{ID: "new-mon", Name: "new monitor",
				Asset: "new-host", Produces: []model.DataTypeID{"new-dt"}, CapitalCost: 3, OperationalCost: 1}},
		},
		{{Op: OpDropMonitor, MonitorID: "new-mon"}},
	}
	for i, b := range batches {
		res, err := tn.Mutate(b)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		results = append(results, res)
	}
	wantVersion := tn.Version()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the replayed tenant must match the live one bit for bit.
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	tn2, ok := s2.Tenant("acme")
	if !ok {
		t.Fatalf("tenant lost across restart")
	}
	if got := tn2.Version(); got != wantVersion {
		t.Errorf("version after replay = %d, want %d", got, wantVersion)
	}
	last, want := tn2.Last(), results[len(results)-1]
	if last.Utility != want.Utility || last.Cost != want.Cost || last.BestBound != want.BestBound {
		t.Errorf("replayed result (%v, %v, %v), want (%v, %v, %v)",
			last.Utility, last.Cost, last.BestBound, want.Utility, want.Cost, want.BestBound)
	}
	if !sameSet(last.Monitors, want.Monitors) {
		t.Errorf("replayed set %v, want %v", last.Monitors, want.Monitors)
	}
	if s2.Stats().Replays != 1 {
		t.Errorf("replays = %d, want 1", s2.Stats().Replays)
	}

	// The replayed tenant keeps working incrementally.
	res, err := tn2.Mutate([]Delta{{Op: OpUpdateBudget, Budget: f64(spec.Budget)}})
	if err != nil {
		t.Fatalf("mutate after replay: %v", err)
	}
	scr, err := tn2.SolveScratch()
	if err != nil {
		t.Fatalf("scratch after replay: %v", err)
	}
	checkEquivalent(t, "after replay", tn2, res, scr, true)
}

func TestMutateRejectsInvalid(t *testing.T) {
	s := openTestStore(t)
	sys := testSystem(t, 7, 15, 10)
	tn, err := s.Create("t1", sys, SolveSpec{Budget: sys.TotalMonitorCost() * 0.4, Workers: 1})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	before := tn.Last()
	version := tn.Version()

	cases := [][]Delta{
		{},
		{{Op: "explode"}},
		{{Op: OpDropMonitor, MonitorID: "no-such-monitor"}},
		{{Op: OpAddMonitor, Monitor: &model.Monitor{ID: "m-bad", Name: "x", Produces: []model.DataTypeID{"missing"}, CapitalCost: 1}}},
		{{Op: OpUpdateBudget, Budget: f64(-5)}},
		{{Op: OpUpdateCost, MonitorID: sys.Monitors[0].ID}},
		{{Op: OpUpdateBudget, Budget: f64(10), MonitorID: "stray-payload"}},
		{{Op: OpAddAttack, Attack: &model.Attack{ID: sys.Attacks[0].ID, Name: "dup", Steps: sys.Attacks[0].Steps}}},
	}
	for i, b := range cases {
		if _, err := tn.Mutate(b); err == nil {
			t.Errorf("case %d: invalid batch accepted", i)
		}
	}
	if tn.Version() != version {
		t.Errorf("rejected batches advanced the version: %d -> %d", version, tn.Version())
	}
	if tn.Last() != before {
		t.Errorf("rejected batches replaced the last result")
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sys := testSystem(t, 13, 20, 15)
	spec := SolveSpec{Budget: sys.TotalMonitorCost() * 0.35, Workers: 1}
	tn, err := s.Create("victim", sys, spec)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	res, err := tn.Mutate([]Delta{{Op: OpUpdateBudget, Budget: f64(spec.Budget * 0.9)}})
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	s.Close()

	path := filepath.Join(dir, "victim.log")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A torn write: half of a record appended after the last commit.
	torn := append(append([]byte{}, pristine...), []byte("87 0123abcd {\"v\":1,\"seq\":3,\"ru")...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	tn2, ok := s2.Tenant("victim")
	if !ok {
		t.Fatalf("tenant lost after torn-tail recovery")
	}
	if got := tn2.Last(); got.BestBound != res.BestBound || !sameSet(got.Monitors, res.Monitors) {
		t.Errorf("recovered state diverged: bound %v vs %v", got.BestBound, res.BestBound)
	}
	if s2.Stats().Recovered == 0 {
		t.Errorf("torn tail not counted as recovered")
	}
	s2.Close()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(pristine) {
		t.Errorf("torn tail not truncated back to last good record")
	}

	// Corruption in the middle is NOT silently recoverable.
	mid := append([]byte{}, pristine...)
	mid[len(mid)/2] ^= 0x40
	if err := os.WriteFile(path, mid, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatalf("mid-log corruption opened without error")
	}
}

// TestFailedAppendPoisonsLog forces an append to fail by closing the log's
// file descriptor under the tenant, then leaves behind the torn record such
// a failure can write. Every later mutation must be refused with the same
// error, even once the handle works again, so nothing lands after the torn
// record; reopening the store must yield exactly the committed prefix.
func TestFailedAppendPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sys := testSystem(t, 13, 20, 15)
	spec := SolveSpec{Budget: sys.TotalMonitorCost() * 0.35, Workers: 1}
	tn, err := s.Create("poisoned", sys, spec)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	committed, err := tn.Mutate([]Delta{{Op: OpUpdateBudget, Budget: f64(spec.Budget * 0.9)}})
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	path := filepath.Join(dir, "poisoned.log")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	tn.log.f.Close()
	_, failed := tn.Mutate([]Delta{{Op: OpUpdateBudget, Budget: f64(spec.Budget * 0.8)}})
	if failed == nil {
		t.Fatal("append on a closed descriptor succeeded")
	}
	if got := tn.Version(); got != 2 {
		t.Fatalf("failed mutation moved the version to %d", got)
	}

	const torn = `87 0123abcd {"v":1,"seq":3,"ru`
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(torn); err != nil {
		t.Fatal(err)
	}
	tn.log.f = f
	if _, err := tn.Mutate([]Delta{{Op: OpUpdateBudget, Budget: f64(spec.Budget * 0.7)}}); !errors.Is(err, failed) {
		t.Fatalf("mutation after a failed append: %v, want the poisoning error %v", err, failed)
	}
	if after, _ := os.ReadFile(path); string(after) != string(pristine)+torn {
		t.Fatal("a refused mutation wrote to the log")
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after a failed append: %v", err)
	}
	defer s2.Close()
	tn2, ok := s2.Tenant("poisoned")
	if !ok {
		t.Fatal("tenant lost after a failed append")
	}
	if got := tn2.Version(); got != 2 {
		t.Errorf("replayed version %d, want the committed 2", got)
	}
	if got := tn2.Last(); got.BestBound != committed.BestBound || !sameSet(got.Monitors, committed.Monitors) {
		t.Errorf("replayed state diverged: bound %v vs %v", got.BestBound, committed.BestBound)
	}
	if after, _ := os.ReadFile(path); string(after) != string(pristine) {
		t.Error("torn record not truncated on reopen")
	}
	if _, err := tn2.Mutate([]Delta{{Op: OpUpdateBudget, Budget: f64(spec.Budget * 0.7)}}); err != nil {
		t.Fatalf("mutate after reopen: %v", err)
	}
}

func TestUncommittedBatchDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys := testSystem(t, 17, 20, 15)
	spec := SolveSpec{Budget: sys.TotalMonitorCost() * 0.3, Workers: 1}
	tn, err := s.Create("batchy", sys, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := tn.Last()
	s.Close()

	// Simulate a crash after appending part of a multi-delta batch: a
	// complete, valid record that lacks the end marker.
	path := filepath.Join(dir, "batchy.log")
	pristine, _ := os.ReadFile(path)
	rec := &record{V: logVersion, Seq: 2, RunID: "run-dead", Type: "delta",
		Delta: &Delta{Op: OpUpdateBudget, Budget: f64(1)}} // End: false
	line, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(append([]byte{}, pristine...), line...), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	tn2, _ := s2.Tenant("batchy")
	if got := tn2.Last(); got.BestBound != want.BestBound {
		t.Errorf("uncommitted batch applied: bound %v, want %v", got.BestBound, want.BestBound)
	}
	if got := tn2.Version(); got != 1 {
		t.Errorf("version = %d, want 1", got)
	}
	after, _ := os.ReadFile(path)
	if string(after) != string(pristine) {
		t.Errorf("uncommitted records not truncated")
	}
	// And the log must accept new batches cleanly after the truncation.
	if _, err := tn2.Mutate([]Delta{{Op: OpUpdateBudget, Budget: f64(spec.Budget * 0.8)}}); err != nil {
		t.Fatalf("mutate after truncation: %v", err)
	}
}

func TestMinCostInfeasibleRejectedPreCommit(t *testing.T) {
	s := openTestStore(t)
	sys, err := model.NewBuilder("cover").
		Asset("h", "Host", "host").
		DataType("d1", "log 1", "h", "f").
		DataType("d2", "log 2", "h", "f").
		Monitor("m1", "collector 1", "h", 5, 1, "d1").
		Monitor("m2", "collector 2", "h", 7, 2, "d2").
		Attack("a1", "attack", 1).
		Step("s", "d1", "d2").
		Done().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	tn, err := s.Create("cover", sys, SolveSpec{MinCost: true, Target: 1, Workers: 1})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	version := tn.Version()
	// Dropping m1 makes full coverage unreachable; the batch must be
	// rejected before anything reaches the log.
	_, err = tn.Mutate([]Delta{{Op: OpDropMonitor, MonitorID: "m1"}})
	if err == nil {
		t.Fatalf("infeasible mutation accepted")
	}
	if !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("error = %v, want ErrInfeasible", err)
	}
	if tn.Version() != version {
		t.Errorf("rejected mutation advanced the log")
	}
	// The tenant still answers and still mutates.
	if _, err := tn.Mutate([]Delta{{Op: OpUpdateCost, MonitorID: "m1", CapitalCost: f64(6)}}); err != nil {
		t.Fatalf("follow-up mutation: %v", err)
	}
}

func TestValidTenantID(t *testing.T) {
	for _, ok := range []string{"a", "tenant-1", "A.b_c-9", strings.Repeat("x", 64)} {
		if !ValidTenantID(ok) {
			t.Errorf("ValidTenantID(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", ".hidden", "-lead", "_lead", "a/b", "a b", "a\x00b", strings.Repeat("x", 65)} {
		if ValidTenantID(bad) {
			t.Errorf("ValidTenantID(%q) = true", bad)
		}
	}
}

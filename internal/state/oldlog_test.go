package state

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// oldLogAnswer is one tenant's recorded state after its committed batches:
// the log version and the answer fields of Last(). The logs under
// testdata/oldlogs and these answers were written by the store before
// SolveSpec gained its conversion to core.Spec: a MaxUtility tenant created
// with the budget omitted (0) and then given update-budget, a MinCost tenant
// with a target and kernel "sparse", and a dense-kernel tenant with workers
// omitted.
type oldLogAnswer struct {
	Version   uint64   `json:"version"`
	Monitors  []string `json:"monitors"`
	Utility   float64  `json:"utility"`
	Cost      float64  `json:"cost"`
	Budget    float64  `json:"budget"`
	BestBound float64  `json:"bestBound"`
	Gap       float64  `json:"gap"`
	Proven    bool     `json:"proven"`
	Status    string   `json:"status"`
	Fallback  bool     `json:"fallback"`
}

// TestOldLogsReplay replays committed tenant logs written by an earlier
// store and requires the recorded answers bit for bit, and requires every
// record (the init record with its spec above all) to re-encode byte for
// byte, so the log format and the spec's zero-value meanings stay readable.
func TestOldLogsReplay(t *testing.T) {
	raw, err := os.ReadFile("testdata/oldlogs.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]oldLogAnswer
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for id := range want {
		src := filepath.Join("testdata", "oldlogs", id+logSuffix)
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n")) {
			r, err := parseRecord(line)
			if err != nil {
				t.Fatalf("%s record %d: %v", id, i+1, err)
			}
			enc, err := encodeRecord(r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc[:len(enc)-1], line) {
				t.Errorf("%s record %d re-encodes differently:\n%s\nvs\n%s", id, i+1, enc, line)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, id+logSuffix), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatalf("replay old logs: %v", err)
	}
	defer s.Close()
	if got := s.Stats().Recovered; got != 0 {
		t.Errorf("replay discarded %d tails of committed logs", got)
	}
	for id, w := range want {
		tn, ok := s.Tenant(id)
		if !ok {
			t.Fatalf("tenant %q not replayed", id)
		}
		res := tn.Last()
		if res == nil {
			t.Fatalf("%s: no result after replay", id)
		}
		got := oldLogAnswer{Version: tn.Version(), Utility: res.Utility, Cost: res.Cost, Budget: res.Budget,
			BestBound: res.BestBound, Gap: res.Gap, Proven: res.Proven, Status: res.Status, Fallback: res.Fallback}
		for _, m := range res.Monitors {
			got.Monitors = append(got.Monitors, string(m))
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(w)
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s: replayed\n%s\nrecorded\n%s", id, gb, wb)
		}
	}
}

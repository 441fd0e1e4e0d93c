package experiment

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"text/tabwriter"
)

// Regenerate the golden artifacts after an intentional output change with:
//
//	go test ./internal/experiment -run TestGoldenArtifacts -update
var updateGolden = flag.Bool("update", false, "rewrite golden experiment artifacts")

// goldenIDs lists the artifacts pinned by golden files: the paper's core
// reproduction set.
var goldenIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8"}

// durationToken matches Go duration strings (e.g. "1.2ms", "3m20s"), the
// only nondeterministic content in the artifacts.
var durationToken = regexp.MustCompile(`\d+(\.\d+)?(ns|µs|us|ms|h|m|s)(\d+(\.\d+)?(ns|µs|us|ms|h|m|s))*`)

// pathColumns name the table columns that count solver effort. They record
// the search path, not the answer: a faster kernel or a better dive moves
// them while every objective and deployment stays put. The goldens replace
// them with a placeholder; TestLUKernelCountersPinned in internal/core pins
// the E3 and E7 trees instead.
var pathColumns = map[string]bool{"nodes": true, "bb-nodes": true, "lp-iters": true}

// cellSep splits a tabwriter row into its cells: the writer pads every cell
// but the last with at least two spaces, and no cell holds two in a row.
var cellSep = regexp.MustCompile(`  +`)

// goldenArtifact is the on-disk golden format: one line per entry so diffs
// in `git diff` and test failures stay readable.
type goldenArtifact struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	Output []string `json:"output"`
}

// renderScrubbed runs an experiment in the default solver configuration and
// replaces wall-clock tokens and path columns with placeholders. GOMAXPROCS
// is pinned to 1 by the caller so the default worker count is 1 and the
// search is deterministic.
func renderScrubbed(t *testing.T, e Experiment) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Run(&buf); err != nil {
		t.Fatalf("run %s: %v", e.ID, err)
	}
	scrubbed := durationToken.ReplaceAllString(buf.String(), "<dur>")
	lines := strings.Split(scrubbed, "\n")
	// Tabwriter pads with trailing spaces whose width depends on the
	// scrubbed tokens; trim so the placeholder substitution can't shift
	// alignment between runs.
	for i := range lines {
		lines[i] = strings.TrimRight(lines[i], " ")
	}
	return scrubPathColumns(lines)
}

// scrubPathColumns replaces every path column's cells with "<path>". A
// table starts at a header line naming a path column and runs while lines
// have the header's cell count; the scrubbed table is re-aligned with the
// experiments' tabwriter settings, so answer cells keep their exact text.
func scrubPathColumns(lines []string) []string {
	out := make([]string, 0, len(lines))
	for i := 0; i < len(lines); {
		header := cellSep.Split(lines[i], -1)
		var cols []int
		for c, h := range header {
			if pathColumns[h] {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			out = append(out, lines[i])
			i++
			continue
		}
		var buf bytes.Buffer
		tw := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
		// Line 0 is the header and line 1 its underline; data rows follow.
		for row := 0; i < len(lines); i, row = i+1, row+1 {
			cells := cellSep.Split(lines[i], -1)
			if len(cells) != len(header) {
				break
			}
			if row >= 2 {
				for _, c := range cols {
					cells[c] = "<path>"
				}
			}
			fmt.Fprintln(tw, strings.Join(cells, "\t"))
		}
		tw.Flush()
		for _, l := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
			out = append(out, strings.TrimRight(l, " "))
		}
	}
	return out
}

func TestGoldenArtifacts(t *testing.T) {
	// The experiments run the default solver configuration, the path
	// production runs: auto kernel dispatch and the face dive on.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	for _, id := range goldenIDs {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		t.Run(id, func(t *testing.T) {
			got := goldenArtifact{ID: e.ID, Title: e.Title, Output: renderScrubbed(t, e)}
			path := filepath.Join("testdata", id+".golden.json")

			if *updateGolden {
				body, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(body, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}

			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			var want goldenArtifact
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("decode golden %s: %v", path, err)
			}
			if want.ID != got.ID || want.Title != got.Title {
				t.Errorf("golden header mismatch: got (%s, %q), want (%s, %q)",
					got.ID, got.Title, want.ID, want.Title)
			}
			if len(got.Output) != len(want.Output) {
				t.Fatalf("output is %d lines, golden has %d (regenerate with -update if intended)",
					len(got.Output), len(want.Output))
			}
			for i := range want.Output {
				if got.Output[i] != want.Output[i] {
					t.Errorf("line %d differs:\n got: %q\nwant: %q", i+1, got.Output[i], want.Output[i])
				}
			}
		})
	}
}

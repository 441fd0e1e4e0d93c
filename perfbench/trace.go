package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded call from the benchmark into a layer of secmon: its
// name, interval, the span that caused it and the operation it belongs to.
// Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0   time.Time
	next atomic.Int64
	mu   sync.Mutex
	done []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; a zero spanRef stands for "no span".
type spanRef struct {
	id, parent, op int64
	name           string
	start          time.Time
}

// begin opens a root span for a new operation, numbered op.
func (t *tracer) begin(name string, op int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{id: t.next.Add(1), op: op, name: name, start: time.Now()}
}

// child opens a span caused by parent.
func (t *tracer) child(parent spanRef, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{id: t.next.Add(1), parent: parent.id, op: parent.op, name: name, start: time.Now()}
}

// end closes s.
func (t *tracer) end(s spanRef) {
	if t == nil || s.id == 0 {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.done = append(t.done, span{
		ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
		Start: int64(s.start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// spans returns the closed spans sorted by start time.
func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.done...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children count once).
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		covered := int64(0)
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids[s.ID] { // sorted by start: spans() sorts
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanSummary aggregates spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"totalMs"`
	SelfMS  float64 `json:"selfMs"`
	P50MS   float64 `json:"p50Ms"`
}

// summarize groups spans by name with total and self time.
func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	byName := map[string]*spanSummary{}
	durs := map[string][]float64{}
	for _, s := range spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		d := float64(s.End-s.Start) / 1e6
		sum.Count++
		sum.TotalMS += d
		sum.SelfMS += float64(self[s.ID]) / 1e6
		durs[s.Name] = append(durs[s.Name], d)
	}
	out := make([]spanSummary, 0, len(byName))
	for name, sum := range byName {
		sum.P50MS = median(durs[name])
		out = append(out, *sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS > out[j].TotalMS })
	return out
}

// rootSelfShare is the share of root-span time spent in the benchmark itself,
// outside every layer call: the benchmark's own overhead per operation.
func rootSelfShare(spans []span) float64 {
	self := selfTimes(spans)
	var total, own int64
	for _, s := range spans {
		if s.Parent == 0 {
			total += s.End - s.Start
			own += self[s.ID]
		}
	}
	return ratio(float64(own), float64(total))
}

// writeTrace writes the spans and their per-name summary as JSON under dir.
func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", workload, seed))
	body, err := json.Marshal(struct {
		Workload string        `json:"workload"`
		Seed     int64         `json:"seed"`
		Summary  []spanSummary `json:"summary"`
		Spans    []span        `json:"spans"`
	}{workload, seed, summarize(spans), spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

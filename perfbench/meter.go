package main

import (
	"bytes"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// meter measures the process over a measured window: active wall time, CPU,
// Go runtime counters and the scheduler-latency histogram accumulate only
// while the meter runs, so output checks done between pause and resume stay
// outside every figure. RSS is sampled throughout the window.
type meter struct {
	running bool
	since   time.Time
	cpu0    time.Duration
	rt0     rtSnap

	active time.Duration
	cpu    time.Duration
	rt     rtSnap // accumulated deltas

	steal0 cpuStat

	stop   chan struct{}
	wg     sync.WaitGroup
	mu     sync.Mutex
	rssMB  []float64
	pageMB float64
}

// rtSnap holds the runtime/metrics values the benchmark reports.
type rtSnap struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64
	totalCPU   float64
	sched      []uint64 // /sched/latencies bucket counts
	buckets    []float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSnap {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	s := rtSnap{allocBytes: val(0), gcCycles: val(1), gcCPU: val(2), totalCPU: val(3)}
	if samples[4].Value.Kind() == metrics.KindFloat64Histogram {
		h := samples[4].Value.Float64Histogram()
		s.sched = append([]uint64(nil), h.Counts...)
		s.buckets = h.Buckets
	}
	return s
}

// add accumulates b - a into s.
func (s *rtSnap) add(a, b rtSnap) {
	s.allocBytes += b.allocBytes - a.allocBytes
	s.gcCycles += b.gcCycles - a.gcCycles
	s.gcCPU += b.gcCPU - a.gcCPU
	s.totalCPU += b.totalCPU - a.totalCPU
	if s.sched == nil {
		s.sched = make([]uint64, len(b.sched))
		s.buckets = b.buckets
	}
	for i := range b.sched {
		if i < len(a.sched) && i < len(s.sched) {
			s.sched[i] += b.sched[i] - a.sched[i]
		}
	}
}

// schedP99MS is the p99 goroutine scheduling latency of the accumulated
// histogram, in milliseconds (the upper edge of the p99 bucket).
func (s *rtSnap) schedP99MS() float64 {
	total := uint64(0)
	for _, c := range s.sched {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(float64(total) * 0.99)
	run := uint64(0)
	for i, c := range s.sched {
		run += c
		if run >= want && i+1 < len(s.buckets) {
			return s.buckets[i+1] * 1000
		}
	}
	return s.buckets[len(s.buckets)-1] * 1000
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the aggregate line of /proc/stat, in clock ticks.
type cpuStat struct {
	total, steal float64
	ok           bool
}

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return cpuStat{}
		}
		if i >= 8 { // guest time is already counted in user time
			break
		}
		st.total += x
		if i == 7 {
			st.steal = x
		}
	}
	st.ok = true
	return st
}

func readRSSMB(pageMB float64) (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * pageMB, true
}

// startMeter starts a running meter and its RSS sampler.
func startMeter() *meter {
	m := &meter{stop: make(chan struct{}), pageMB: float64(os.Getpagesize()) / (1 << 20)}
	m.steal0 = readCPUStat()
	m.wg.Add(1)
	go m.sample()
	m.resume()
	return m
}

func (m *meter) sample() {
	defer m.wg.Done()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		if v, ok := readRSSMB(m.pageMB); ok {
			m.mu.Lock()
			m.rssMB = append(m.rssMB, v)
			m.mu.Unlock()
		}
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
	}
}

func (m *meter) resume() {
	if m.running {
		return
	}
	m.running = true
	m.rt0 = readRuntime()
	m.cpu0 = processCPU()
	m.since = time.Now()
}

func (m *meter) pause() {
	if !m.running {
		return
	}
	m.active += time.Since(m.since)
	m.cpu += processCPU() - m.cpu0
	m.rt.add(m.rt0, readRuntime())
	m.running = false
}

// elapsed is the active time measured so far.
func (m *meter) elapsed() time.Duration {
	if m.running {
		return m.active + time.Since(m.since)
	}
	return m.active
}

// window is what a stopped meter measured.
type window struct {
	active     time.Duration
	cpu        time.Duration
	rssP90MB   float64
	rssSamples int
	rt         rtSnap
	stealShare float64 // -1 when /proc/stat is unreadable
}

// finish stops the meter and its sampler and returns the window.
func (m *meter) finish() window {
	m.pause()
	close(m.stop)
	m.wg.Wait()
	w := window{active: m.active, cpu: m.cpu, rt: m.rt, stealShare: -1}
	m.mu.Lock()
	w.rssP90MB = quantile(m.rssMB, 0.9)
	w.rssSamples = len(m.rssMB)
	m.mu.Unlock()
	if s1 := readCPUStat(); m.steal0.ok && s1.ok && s1.total > m.steal0.total {
		w.stealShare = (s1.steal - m.steal0.steal) / (s1.total - m.steal0.total)
	}
	return w
}

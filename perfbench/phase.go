package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"secemb/internal/tensor"
)

// warmup is run before every timed phase so lazily grown buffers, the
// tensor worker pool and the connection state exist before timing starts.
const warmup = 2 * time.Second

// flipEvery is the slice length of a traced run: spans are switched on
// and off every slice, so untraced and traced throughput are measured in
// interleaved slices of one process and the tracing overhead is not
// confounded with the host's slow phases, which last seconds.
const flipEvery = time.Second

// quantile returns the q-quantile (nearest rank) of samples; 0 when empty.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// timeSetups calls build minSetups to maxSetups times (see setupBudget),
// each after a forced GC so garbage from the previous build is not charged
// to the next, and returns the median build time. build keeps whatever its
// last call made; discard, when not nil, releases a build before the next
// one starts, untimed.
func timeSetups(build func() error, discard func()) (time.Duration, error) {
	var times []time.Duration
	var total time.Duration
	for len(times) < minSetups || (total < setupBudget && len(times) < maxSetups) {
		if len(times) > 0 && discard != nil {
			discard()
		}
		runtime.GC()
		start := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start))
		total += times[len(times)-1]
	}
	return quantile(times, 0.5), nil
}

// setEndToEnd reports the end-to-end metrics every workload has. cpu is
// the process's CPU time per unit of work over the timed phase (a DLRM
// sample, a generated token, a wire request) and p50 the median latency of
// the workload's operation (a Predict batch, a decode step, a wire
// request). Throughput and latency percentiles above the median are
// printed on each workload's summary line but not reported here: both
// follow the host's CPU steal, which varied from 1% to 27% between runs a
// few minutes apart. Stolen time is not charged as CPU time, and a median
// lies past the minority of operations a steal burst hits (see README.md,
// Host noise).
func setEndToEnd(o *outcome, setup time.Duration, footprintBytes int64, heapMB float64, cpu, p50 time.Duration) {
	o.set("setup_s", setup.Seconds(), "s")
	o.set("footprint_mb", float64(footprintBytes)/1e6, "MB")
	o.set("heap_mb", heapMB, "MB")
	o.set("cpu_us_per_unit", us(cpu), "us")
	o.set("p50_ms", ms(p50), "ms")
}

// liveHeapMB forces a collection and reports the live heap while state,
// the program objects the workload built, is still reachable. Call it
// after the workload's figures are computed and its series dropped, so
// the benchmark's own samples are not counted.
func liveHeapMB(state ...any) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(state)
	return float64(m.HeapAlloc) / 1e6
}

// slice accumulates one tracing state's share of a traced phase.
type slice struct {
	rounds          atomic.Int64
	elapsed         time.Duration
	allocBytes      uint64
	gcs             uint32
	chunks, inlined int64
}

// phaseResult is one timed phase.
type phaseResult struct {
	attempted, failed int64
	start             time.Time
	elapsed           time.Duration
	// stealPct is the host's CPU steal over the phase, as a percentage of
	// all CPU time; -1 when the kernel does not report it.
	stealPct float64
	// cpu is the user and system CPU time of the whole process over the
	// phase.
	cpu time.Duration
	// Traced phases only: [0] untraced slices, [1] traced slices.
	slices [2]*slice
}

// runPhase runs round closed-loop on streams goroutines for d: each
// goroutine starts its next round only after the previous one returned.
// Every call is one attempted operation; a non-nil error counts it failed.
// With a tracer the phase alternates untraced and traced slices and
// attributes each round to the state it started in.
func runPhase(d time.Duration, streams int, tr *tracer, round func(stream int) error) *phaseResult {
	res := &phaseResult{}
	var attempted, failed atomic.Int64
	var flipper sync.WaitGroup
	done := make(chan struct{})
	if tr != nil {
		res.slices = [2]*slice{{}, {}}
		flipper.Add(1)
		go func() {
			defer flipper.Done()
			flip(tr, &res.slices, done)
		}()
	}
	steal0, total0, stealOK := cpuSteal()
	cpu0 := processCPU()
	start := time.Now()
	res.start = start
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				state := 0
				if tr.enabled() {
					state = 1
				}
				attempted.Add(1)
				if err := round(s); err != nil {
					failed.Add(1)
				} else if tr != nil {
					res.slices[state].rounds.Add(1)
				}
			}
		}(s)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = processCPU() - cpu0
	res.stealPct = -1
	if steal1, total1, ok := cpuSteal(); ok && stealOK && total1 > total0 {
		res.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	close(done)
	flipper.Wait()
	res.attempted, res.failed = attempted.Load(), failed.Load()
	return res
}

// processCPU is the user plus system CPU time the process has used. The
// kernel does not charge a thread for time the hypervisor stole from its
// CPU, so unlike wall time this barely moves with the host's steal.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSteal reads the steal and total jiffies of all CPUs from /proc/stat
// (read only). Steal is time the hypervisor ran something else while this
// machine's CPUs wanted to run; a run with much of it is slower throughout,
// so the summary line prints it to tell such runs apart.
func cpuSteal() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // guest time is already counted in user and nice
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// flip toggles tr every flipEvery until done, charging each slice's time,
// allocation, GC and worker-pool counts to the state it ran in.
func flip(tr *tracer, acc *[2]*slice, done <-chan struct{}) {
	var m runtime.MemStats
	snap := func() (time.Time, uint64, uint32, int64, int64) {
		runtime.ReadMemStats(&m)
		chunks, inlined, _ := tensor.PoolStats()
		return time.Now(), m.TotalAlloc, m.NumGC, chunks, inlined
	}
	state := 0
	t0, a0, g0, c0, i0 := snap()
	tick := time.NewTicker(flipEvery)
	defer tick.Stop()
	for {
		finished := false
		select {
		case <-tick.C:
		case <-done:
			finished = true
		}
		t1, a1, g1, c1, i1 := snap()
		s := acc[state]
		s.elapsed += t1.Sub(t0)
		s.allocBytes += a1 - a0
		s.gcs += g1 - g0
		s.chunks += c1 - c0
		s.inlined += i1 - i0
		t0, a0, g0, c0, i0 = t1, a1, g1, c1, i1
		if finished {
			tr.setEnabled(false)
			return
		}
		state = 1 - state
		tr.setEnabled(state == 1)
	}
}

// perUnit is the phase's CPU time per unit of work completed.
func (p *phaseResult) perUnit(units float64) time.Duration {
	if units <= 0 {
		return 0
	}
	return time.Duration(float64(p.cpu) / units)
}

package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// counters is a reading of the process-wide clocks the harness charges to
// each op: wall time, CPU time (user+sys, every thread, GC workers
// included), heap allocation, and garbage-collector work. allocObjects
// counts tiny allocations one by one, as runtime.MemStats.Mallocs does.
type counters struct {
	wall         time.Time
	cpu          time.Duration
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
	gcCPU        float64 // seconds
}

// runtimeSamples is reused by every read so that taking a reading does not
// allocate. The harness is single-goroutine.
var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readCounters() counters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(runtimeSamples)
	return counters{
		wall:         time.Now(),
		cpu:          time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes:   runtimeSamples[0].Value.Uint64(),
		allocObjects: runtimeSamples[1].Value.Uint64() + runtimeSamples[2].Value.Uint64(),
		gcCycles:     runtimeSamples[3].Value.Uint64(),
		gcCPU:        runtimeSamples[4].Value.Float64(),
	}
}

// delta accumulates the difference between two readings.
type delta struct {
	wall         time.Duration
	cpu          time.Duration
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
	gcCPU        float64
}

func (d *delta) add(from, to counters) {
	d.wall += to.wall.Sub(from.wall)
	d.cpu += to.cpu - from.cpu
	d.allocBytes += to.allocBytes - from.allocBytes
	d.allocObjects += to.allocObjects - from.allocObjects
	d.gcCycles += to.gcCycles - from.gcCycles
	d.gcCPU += to.gcCPU - from.gcCPU
}

// liveHeapBytes forces full collections and returns the bytes still
// reachable: what the workload holds, not what it churned through. The
// second collection frees what sync.Pools kept through the first.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// settle collects, off the clock, the garbage that off-clock work (checks,
// re-opens) left behind, so that the next ops neither pay for collecting
// it nor start from a heap goal it raised: each round starts from the same
// heap.
func settle() { runtime.GC() }

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between closest ranks. xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

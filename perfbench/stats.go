package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (0 for an empty slice). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if frac := pos - float64(lo); frac > 0 {
		return s[lo] + (s[lo+1]-s[lo])*frac
	}
	return s[lo]
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler polls the Go heap through runtime/metrics, which reads without
// stopping the world, and keeps the peak. Start it right before the measured
// work and stop it right after.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // written by the polling goroutine only, read after done
}

const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

// samplePeriod is how often the heap sampler polls; short against every
// measured run, long enough to stay off the CPU profile.
const samplePeriod = 10 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapObjectsMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	go func() {
		defer close(h.done)
		read()
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for its goroutine, and returns the peak
// heap in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// gcCounters is a snapshot of the runtime's cumulative allocation and GC
// counters.
type gcCounters struct {
	allocs, allocBytes, cycles uint64
	pause                      time.Duration
}

func readGC() gcCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcCounters{
		allocs:     ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		cycles:     uint64(ms.NumGC),
		pause:      time.Duration(ms.PauseTotalNs),
	}
}

func (a gcCounters) sub(b gcCounters) gcCounters {
	return gcCounters{
		allocs:     a.allocs - b.allocs,
		allocBytes: a.allocBytes - b.allocBytes,
		cycles:     a.cycles - b.cycles,
		pause:      a.pause - b.pause,
	}
}

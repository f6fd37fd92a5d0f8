package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeCounters struct {
	allocBytes, gcCycles uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// heapSampler reads the heap's live objects every 5 ms while a phase runs
// and keeps the peak of each second.
type heapSampler struct {
	done  chan struct{}
	wg    sync.WaitGroup
	peaks []float64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		var peak uint64
		window := time.Now()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			if time.Since(window) >= time.Second {
				h.peaks = append(h.peaks, float64(peak))
				peak, window = 0, time.Now()
			}
			select {
			case <-h.done:
				h.peaks = append(h.peaks, float64(peak))
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the median of the per-second peaks in
// bytes: the heap a phase needs, steadier than one extreme sample.
func (h *heapSampler) stop() float64 {
	close(h.done)
	h.wg.Wait()
	return quantile(h.peaks, 0.5)
}

// quantile returns the q-quantile of xs by nearest rank (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// frac is n/d, or 0 when there is nothing to divide.
func frac(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

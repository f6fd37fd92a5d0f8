package main

import (
	"math"
	"math/cmplx"
	"runtime"
	"slices"
	"sync"
	"time"
)

// The host this benchmark runs on is shared, and its cores run slower or
// faster with the other tenants' load: over a two-minute batch run the
// program's CPU time per session moved between 25 and 49 ms with no change
// to the program, in stretches of tens of seconds. A raw time therefore
// measures the host as much as the program.
//
// The benchmark measures the host's speed alongside the program's, with a
// fixed reference kernel of its own that shares nothing with the program:
// an FFT cross-correlation of a 4096-sample block, the kind of work the
// detector does, run on one goroutine per CPU as the load is. It runs
// before and after each timed sub-phase, never during one, and the two
// samples give the scale that brings the sub-phase's times to a host that
// runs the kernel in refNominal; scaling each short sub-phase by its own
// samples follows the host through a run better than one scale per run.
// A change to the program cannot move the reference, so a program that
// gets slower still reports slower times.

// refNominal is the median time of one reference correlation on the host
// speed the scaled times are reported at: about its median on the 2-vCPU
// host the baseline was measured on.
const refNominal = 560 * time.Microsecond

// refUnits is the number of correlations one reference sample times on
// each goroutine, after one untimed to warm the caches.
const refUnits = 96

const refN = 4096

// refBuf is one goroutine's reference workspace.
type refBuf struct{ x, y []complex128 }

// fftRef is an in-place radix-2 FFT, inverse when inv is set (unscaled).
func fftRef(a []complex128, inv bool) {
	n := len(a)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	sign := -1.0
	if inv {
		sign = 1
	}
	for l := 2; l <= n; l <<= 1 {
		w := cmplx.Exp(complex(0, sign*2*math.Pi/float64(l)))
		for i := 0; i < n; i += l {
			wk := complex(1, 0)
			for k := 0; k < l/2; k++ {
				u, v := a[i+k], a[i+k+l/2]*wk
				a[i+k], a[i+k+l/2] = u+v, u-v
				wk *= w
			}
		}
	}
}

// correlate finds the lag of a block against a shifted copy of itself,
// from a fixed pseudo-random fill; it returns the lag so the work is used.
func (b *refBuf) correlate(seed uint64) int {
	s := seed | 1
	for i := range b.x {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		b.x[i] = complex(float64(int16(s))/32768, 0)
		b.y[(i+137)%refN] = b.x[i]
	}
	fftRef(b.x, false)
	fftRef(b.y, false)
	for i := range b.x {
		b.x[i] *= cmplx.Conj(b.y[i])
	}
	fftRef(b.x, true)
	best, lag := 0.0, 0
	for i, v := range b.x {
		if a := cmplx.Abs(v); a > best {
			best, lag = a, i
		}
	}
	return lag
}

// refSample runs the reference kernel on every CPU at once and returns the
// median time of one correlation: a median, so a goroutine preempted for a
// few milliseconds moves the sample little while a slower core moves every
// correlation. It collects the garbage first, so each sample starts from
// the same heap.
func refSample() time.Duration {
	runtime.GC()
	n := runtime.GOMAXPROCS(0)
	took := make([]time.Duration, n*refUnits)
	lags := make([]int, n)
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := refBuf{x: make([]complex128, refN), y: make([]complex128, refN)}
			b.correlate(uint64(g))
			for u := range refUnits {
				start := time.Now()
				lags[g] += b.correlate(uint64(u*n + g))
				took[g*refUnits+u] = time.Since(start)
			}
		}()
	}
	wg.Wait()
	for g := range n {
		if lags[g] != refUnits*(refN-137) {
			panic("reference kernel found the wrong lag") // the kernel is fixed: unreachable
		}
	}
	slices.Sort(took)
	return took[(len(took)-1)/2]
}

// hostScale is refNominal over the mean of refs: the factor that brings a
// time measured between those reference samples to the nominal host.
func hostScale(refs ...time.Duration) float64 {
	var sum time.Duration
	for _, r := range refs {
		sum += r
	}
	return float64(refNominal) * float64(len(refs)) / float64(sum)
}

package dsp

import "fmt"

// StreamResyncHops is the recommended maximum number of incremental hops a
// SlidingBandDFT should take between full-FFT resynchronizations (Reset
// calls), and the contiguous hop-range (block) size the detector's
// range-claiming coarse scan uses.
//
// Drift analysis: each single-sample advance multiplies the per-bin state by
// a unit-modulus rotation and adds one sample, so rounding error grows at
// most linearly in the number of samples slid: after H hops of S samples the
// accumulated relative error is O(H·S·ε) with ε = 2⁻⁵². Near the streaming
// break-even (S ≲ 15 at N = 4096, see StreamingWins) that is at worst
// 64·15·2.2e-16 ≈ 2e-13 relative — three orders of magnitude inside the
// 1e-9 parity the spectral engine promises elsewhere. Larger hops drift
// proportionally more but are exactly the hops StreamingWins routes to
// independent FFTs anyway, so the incremental path never runs long enough
// to matter.
const StreamResyncHops = 64

// streamAdvanceNsPerOp and bandFFTNsPerUnitNLog2N are the measured cost
// constants behind StreamingWins, taken on the reference machine (see
// PERFORMANCE.md and BenchmarkSlidingBandDFTAdvance /
// BenchmarkPowerSpectrumBandInto): the SoA rotate-accumulate inner loop
// retires ~1.3 ns per (bin, sample) update, and the fused packed
// half-length FFT plus band-restricted unpack costs ~0.38 ns per
// n·log₂(n) unit (≈18.8 µs at N = 4096 with the paper's 939-bin band).
// Only the ratio matters; both paths scale linearly on the machines we
// target.
const (
	streamAdvanceNsPerOp   = 1.3
	bandFFTNsPerUnitNLog2N = 0.38
)

// StreamingWins reports whether advancing a band-limited sliding DFT by one
// hop of step samples (cost ∝ bins·step rotate-accumulate updates) beats
// recomputing an independent band-restricted FFT for the new window (cost ∝
// n·log₂n butterflies + band unpack). The detector consults this once per
// scan, from measured constants rather than naive op counts.
//
// At the paper's parameters (n = 4096, 939-bin candidate band) the
// break-even hop is ~15 samples: the default coarse step of 1000 stays on
// independent FFTs, while high-resolution scanning configurations (step ≤
// ~15, or narrower bands pushing the break-even up) stream.
func StreamingWins(n, bins, step int) bool {
	if n < 2 || bins < 1 || step < 1 {
		return false
	}
	log2n := 0
	for v := n; v > 1; v >>= 1 {
		log2n++
	}
	streamNs := streamAdvanceNsPerOp * float64(bins) * float64(step)
	fftNs := bandFFTNsPerUnitNLog2N * float64(n) * float64(log2n)
	return streamNs < fftNs
}

// SlidingBandDFT advances the DFT values of one sliding window over a
// recording incrementally, restricted to the canonical half-spectrum bin
// band [lo, hi). Where an independent FFT pays O(N log N) per window, the
// sliding update pays O((hi−lo)·step) per hop — the winner for small hops
// and narrow bands (see StreamingWins).
//
// The per-bin state is kept as split re/im float64 slices (SoA) so the
// per-sample rotate-accumulate loop vectorizes; the rotation table is
// shared, immutable, and cached on the plan. State drifts by O(hops·step·ε)
// between Reset calls (see StreamResyncHops for the resync policy); a Reset
// recomputes the band exactly via the plan's packed FFT, so powers read
// right after Reset are bit-identical to PowerSpectrumBandInto.
//
// The engine slides over either representation of a recording: float64
// samples (Reset) or raw int16 PCM (ResetPCM), with the widening conversion
// fused into the per-sample feed — PCM scans are bit-identical to scanning
// the converted recording, without the copy.
//
// A SlidingBandDFT owns its state and is NOT safe for concurrent use; build
// one per worker. Construction is cheap once the plan's rotation table for
// the band exists (first construction per (plan, band) builds and caches
// it).
type SlidingBandDFT struct {
	plan    *FFTPlan
	lo, hi  int
	step    int
	rot     *bandRot
	re, im  []float64
	scratch []complex128

	// Exactly one of rec/recPCM is non-nil between a Reset and the next
	// Release: the recording in whichever representation the caller holds.
	rec    []float64
	recPCM []int16
	pos    int // current window start; -1 before the first Reset
}

// NewSlidingBandDFT builds a sliding engine on plan for canonical bins
// [lo, hi) (0 ≤ lo < hi ≤ N/2+1) hopping step ≥ 1 samples per Advance.
func NewSlidingBandDFT(plan *FFTPlan, lo, hi, step int) (*SlidingBandDFT, error) {
	if plan == nil {
		return nil, fmt.Errorf("dsp: sliding band dft: nil plan")
	}
	if lo < 0 || hi <= lo || hi > plan.half+1 {
		return nil, fmt.Errorf("dsp: sliding band dft band [%d, %d) outside [0, %d]", lo, hi, plan.half+1)
	}
	if step < 1 {
		return nil, fmt.Errorf("dsp: sliding band dft step %d must be ≥ 1", step)
	}
	return &SlidingBandDFT{
		plan:    plan,
		lo:      lo,
		hi:      hi,
		step:    step,
		rot:     plan.bandRotTable(lo, hi),
		re:      make([]float64, hi-lo),
		im:      make([]float64, hi-lo),
		scratch: plan.NewScratch(),
		pos:     -1,
	}, nil
}

// Band returns the canonical bin range [lo, hi).
func (s *SlidingBandDFT) Band() (lo, hi int) { return s.lo, s.hi }

// Step returns the hop size in samples.
func (s *SlidingBandDFT) Step() int { return s.step }

// SetStep changes the hop size for subsequent Advance calls. The per-bin
// state and the cached rotation table depend only on the band, not the hop,
// so one pooled engine can serve both the coarse and the fine hop sequences
// of a scan without reallocating (the detector's workspaces rely on this).
func (s *SlidingBandDFT) SetStep(step int) error {
	if step < 1 {
		return fmt.Errorf("dsp: sliding band dft step %d must be ≥ 1", step)
	}
	s.step = step
	return nil
}

// Pos returns the current window start, or -1 before the first Reset.
func (s *SlidingBandDFT) Pos() int { return s.pos }

// Release drops the engine's reference to the recording so a pooled engine
// does not pin a finished scan's audio in memory. The next Reset re-arms
// it; Advance/PowersInto before that report the un-Reset state.
func (s *SlidingBandDFT) Release() {
	s.rec = nil
	s.recPCM = nil
	s.pos = -1
}

// recLen returns the length of whichever recording representation is armed.
func (s *SlidingBandDFT) recLen() int {
	if s.recPCM != nil {
		return len(s.recPCM)
	}
	return len(s.rec)
}

// Reset points the engine at rec[start : start+N] and computes the band
// exactly with a full packed FFT — the resynchronization that bounds drift.
func (s *SlidingBandDFT) Reset(rec []float64, start int) error {
	n := s.plan.n
	if start < 0 || start+n > len(rec) {
		return fmt.Errorf("dsp: sliding band dft window [%d, %d) outside recording of %d", start, start+n, len(rec))
	}
	if err := s.plan.BandSpectrumInto(s.re, s.im, rec[start:start+n], s.scratch, s.lo, s.hi); err != nil {
		return err
	}
	s.rec = rec
	s.recPCM = nil
	s.pos = start
	return nil
}

// ResetPCM is Reset over raw int16 PCM: the resynchronizing FFT fuses the
// widening conversion into its pack stage (dsp.BandSpectrumIntoPCM), and
// subsequent Advance calls convert each slid sample on the fly, so the
// stream is bit-identical to Reset over the converted recording with no
// float64 copy anywhere.
func (s *SlidingBandDFT) ResetPCM(rec []int16, start int) error {
	n := s.plan.n
	if start < 0 || start+n > len(rec) {
		return fmt.Errorf("dsp: sliding band dft window [%d, %d) outside recording of %d", start, start+n, len(rec))
	}
	if err := s.plan.BandSpectrumIntoPCM(s.re, s.im, rec[start:start+n], s.scratch, s.lo, s.hi); err != nil {
		return err
	}
	s.rec = nil
	s.recPCM = rec
	s.pos = start
	return nil
}

// Advance slides the window forward by Step samples, updating every band
// bin incrementally: per slid sample, X[k] ← (X[k] + x[i+N] − x[i])·e^(+2πik/N).
func (s *SlidingBandDFT) Advance() error {
	if s.pos < 0 {
		return fmt.Errorf("dsp: sliding band dft advanced before Reset")
	}
	if s.pos+s.step+s.plan.n > s.recLen() {
		return fmt.Errorf("dsp: sliding band dft window [%d, %d) outside recording of %d", s.pos+s.step, s.pos+s.step+s.plan.n, s.recLen())
	}
	if s.recPCM != nil {
		advanceOver(s, s.recPCM)
	} else {
		advanceOver(s, s.rec)
	}
	s.pos += s.step
	return nil
}

// advanceOver is Advance's rotate-accumulate hot loop, generic over the
// recording representation (the int16 instantiation widens each slid sample
// exactly, see realSample). It does not move s.pos; Advance does.
func advanceOver[T realSample](s *SlidingBandDFT, x []T) {
	n := s.plan.n
	re, im := s.re, s.im
	rr, ri := s.rot.re, s.rot.im
	for m := 0; m < s.step; m++ {
		d := float64(x[s.pos+n+m]) - float64(x[s.pos+m])
		for k := range re {
			nr := re[k] + d
			ni := im[k]
			re[k] = nr*rr[k] - ni*ri[k]
			im[k] = nr*ri[k] + ni*rr[k]
		}
	}
}

// PowersInto writes the normalized power of every band bin into the
// full-length spectrum slice dst (len == N): dst[k] for k in [lo, hi), plus
// the conjugate mirror dst[N−k] for interior bins, exactly the entries
// PowerSpectrumBandInto writes. Entries outside the band are untouched.
func (s *SlidingBandDFT) PowersInto(dst []float64) error {
	n := s.plan.n
	if len(dst) != n {
		return fmt.Errorf("dsp: sliding band dft dst length %d, want %d", len(dst), n)
	}
	invN := 2 / float64(n)
	norm := invN * invN
	h := s.plan.half
	for k := s.lo; k < s.hi; k++ {
		xr, xi := s.re[k-s.lo], s.im[k-s.lo]
		pw := (xr*xr + xi*xi) * norm
		dst[k] = pw
		if k > 0 && k < h {
			dst[n-k] = pw
		}
	}
	return nil
}

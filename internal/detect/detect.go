package detect

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/acoustic-auth/piano/internal/dsp"
	"github.com/acoustic-auth/piano/internal/faultinject"
	"github.com/acoustic-auth/piano/internal/sigref"
)

// Config carries the detection parameters of Algorithms 1 and 2. The
// defaults are the paper's prototype settings (§VI-A).
type Config struct {
	// Alpha is the attenuation tolerance: a window may match only if each
	// chosen frequency retains power > Alpha·R_f. Paper: 1%.
	Alpha float64
	// BetaFrac sets the foreign-frequency ceiling β = BetaFrac·R_f: every
	// candidate frequency NOT in the reference signal must stay below β.
	// Paper: β = 0.5%·R_f.
	BetaFrac float64
	// Epsilon is the absent-signal threshold fraction: if the maximum
	// normalized power over all windows is below Epsilon·R_S (R_S = Σ R_f),
	// the signal is declared not present (⊥). The paper sets ε = 1%.
	Epsilon float64
	// Theta is the frequency-smoothing aggregation half-width in FFT bins.
	// Paper: 5.
	Theta int
	// CoarseStep and FineStep are the two stage sizes of the prototype's
	// adaptive search. Paper: 1000 and 10.
	CoarseStep int
	FineStep   int

	// CandidateBandLo and CandidateBandHi optionally pin the canonical
	// half-spectrum bin range [lo, hi) the band-limited scan engine
	// computes per window. Both zero (the default) derives the band from
	// the signals being detected — every bin Algorithm 2 reads, i.e. the
	// candidate frequencies' (possibly aliased) bins ± Theta. When set
	// explicitly the band must lie inside the canonical half-spectrum
	// [0, winLen/2] (hi is half-open, so hi ≤ winLen/2+1) and cover the
	// signals' spectral footprint; DetectAll rejects it otherwise rather
	// than silently scoring bins the engine never computed.
	CandidateBandLo int
	CandidateBandHi int

	// MaxLossFraction is the degraded-mode ceiling for streaming
	// ingestion over a lossy transport: the fraction of a stream's
	// declared recording that may be declared lost before the scan gives
	// up with ErrInsufficientAudio instead of deciding from what remains.
	// 0 means DefaultMaxLossFraction; 1 disables the ceiling. Values
	// outside [0, 1] are rejected. Batch scans ignore it.
	MaxLossFraction float64

	// DisableBetaCheck turns off the foreign-frequency sanity check.
	// ABLATION ONLY: the paper's §V argues this check is what defeats
	// all-frequency spoofing; the ablation bench demonstrates that
	// attacks start succeeding without it.
	DisableBetaCheck bool
}

// DefaultConfig returns the paper's prototype parameters.
func DefaultConfig() Config {
	return Config{
		Alpha:      0.01,
		BetaFrac:   0.005,
		Epsilon:    0.01,
		Theta:      5,
		CoarseStep: 1000,
		FineStep:   10,
	}
}

// Validate checks parameter sanity.
func (c Config) Validate() error {
	switch {
	case c.Alpha <= 0 || c.Alpha >= 1:
		return fmt.Errorf("detect: alpha %g out of (0,1)", c.Alpha)
	case c.BetaFrac <= 0 || c.BetaFrac >= 1:
		return fmt.Errorf("detect: beta fraction %g out of (0,1)", c.BetaFrac)
	case c.Epsilon <= 0 || c.Epsilon >= 1:
		return fmt.Errorf("detect: epsilon %g out of (0,1)", c.Epsilon)
	case c.Theta < 0:
		return fmt.Errorf("detect: theta %d negative", c.Theta)
	case c.CoarseStep < 1 || c.FineStep < 1:
		return fmt.Errorf("detect: steps %d/%d must be ≥1", c.CoarseStep, c.FineStep)
	case c.FineStep > c.CoarseStep:
		return fmt.Errorf("detect: fine step %d exceeds coarse step %d", c.FineStep, c.CoarseStep)
	case c.MaxLossFraction < 0 || c.MaxLossFraction > 1:
		return fmt.Errorf("detect: max loss fraction %g outside [0, 1]", c.MaxLossFraction)
	}
	if c.CandidateBandLo != 0 || c.CandidateBandHi != 0 {
		switch {
		case c.CandidateBandLo < 0:
			return fmt.Errorf("detect: candidate band [%d, %d) has negative low bin", c.CandidateBandLo, c.CandidateBandHi)
		case c.CandidateBandLo >= c.CandidateBandHi:
			return fmt.Errorf("detect: candidate band [%d, %d) is inverted (lo ≥ hi)", c.CandidateBandLo, c.CandidateBandHi)
		}
		// The upper bound depends on the window length, which is a signal
		// property; DetectAll enforces CandidateBandHi ≤ winLen/2+1.
	}
	return nil
}

// bandRange is a canonical half-spectrum bin range [lo, hi).
type bandRange struct{ lo, hi int }

// CandidateBand returns the canonical half-spectrum bin range [lo, hi)
// covering every power-spectrum bin Algorithm 2 can read for signals drawn
// from p with smoothing half-width theta: each candidate frequency's bin
// ⌊f/fs·N⌋ (which lands above Nyquist for the paper's 25–35 kHz band, on
// the conjugate mirror), widened by ±theta and clamped exactly the way
// BandPower clamps, then folded to canonical bins k ≤ N/2. The band-limited
// scan engine computes only this range (~45% of the bins at the paper's
// parameters).
func CandidateBand(p sigref.Params, theta int) (lo, hi int) {
	n := p.Length
	half := n / 2
	minB, maxB := n, -1
	for _, f := range p.Candidates() {
		b := dsp.BinIndex(f, p.SampleRate, n)
		rlo, rhi := b-theta, b+theta
		if rlo < 0 {
			rlo = 0
		}
		if rhi > n-1 {
			rhi = n - 1
		}
		for r := rlo; r <= rhi; r++ {
			m := r
			if m > half {
				m = n - m
			}
			if m < minB {
				minB = m
			}
			if m > maxB {
				maxB = m
			}
		}
	}
	if maxB < 0 {
		// No candidate maps into the spectrum at all (degenerate params);
		// fall back to the full half-spectrum so scoring stays well-defined.
		return 0, half + 1
	}
	return minB, maxB + 1
}

// scanBand resolves the band the engine computes for signals drawn from p:
// the derived footprint by default, or the configured override after
// validating it against the window length and checking it covers the
// footprint.
func (c Config) scanBand(p sigref.Params) (bandRange, error) {
	lo, hi := CandidateBand(p, c.Theta)
	if c.CandidateBandLo == 0 && c.CandidateBandHi == 0 {
		return bandRange{lo, hi}, nil
	}
	cLo, cHi := c.CandidateBandLo, c.CandidateBandHi
	switch {
	// hi is half-open, so hi = winLen/2+1 (including the Nyquist bin) is
	// the largest expressible band — matching the engines' convention, and
	// necessary when a candidate's footprint folds onto bin winLen/2.
	case cLo < 0 || cHi > p.Length/2+1:
		return bandRange{}, fmt.Errorf("detect: candidate band [%d, %d) outside the canonical spectrum [0, %d] for window length %d", cLo, cHi, p.Length/2, p.Length)
	case cLo >= cHi:
		return bandRange{}, fmt.Errorf("detect: candidate band [%d, %d) is inverted (lo ≥ hi)", cLo, cHi)
	case cLo > lo || cHi < hi:
		return bandRange{}, fmt.Errorf("detect: candidate band [%d, %d) does not cover the signals' spectral footprint [%d, %d)", cLo, cHi, lo, hi)
	}
	return bandRange{cLo, cHi}, nil
}

// Result is the outcome of locating one reference signal.
type Result struct {
	// Location is the sample index where the signal starts, valid only
	// when Found.
	Location int
	// Power is the maximum normalized power observed.
	Power float64
	// Found is false when Algorithm 1 outputs ⊥ (signal not present).
	Found bool
	// WindowsScanned counts NormPower evaluations attributable to this
	// signal (coarse scan + its fine scan); the coarse scan is shared
	// across signals detected in the same pass.
	WindowsScanned int
	// CoarseScanned is the shared coarse-scan window count, so callers
	// can compute total FFT work without double-counting.
	CoarseScanned int
}

// PanicError is a panic recovered inside the scan engine (a pool worker,
// a transient scan goroutine, or the submitting goroutine's own share of a
// scan), converted to an error so one crashing scan cannot take down the
// process or the shared worker pool. The workspace the panicking goroutine
// held is discarded, not recycled, so later scans never see its
// potentially corrupted scratch; the service layer wraps PanicError into
// its typed ErrInternal and re-prewarms a replacement workspace.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("detect: panic during scan: %v", e.Value)
}

// Detector locates reference signals in recorded audio.
//
// A Detector is safe for concurrent use and holds pooled per-scan scratch
// (FFT workspaces and score buffers), so steady-state scans perform no
// per-window heap allocations. Must not be copied after first use.
//
// By default each scan fans out over transient goroutines (≤ GOMAXPROCS).
// A long-lived service instead attaches a shared Pool (UsePool) and a
// pinned plan set (UsePlans), so concurrent sessions batch their windows
// through one bounded worker set and one FFT plan per window length.
// Scores are always reduced in window order, so the attachment never
// changes results.
type Detector struct {
	cfg Config

	// pool, when non-nil, supplies scan workers instead of per-scan
	// goroutine fan-out. Set once before first use (UsePool).
	pool *Pool
	// plans, when non-nil, resolves FFT plans with a pinned lock-free
	// lookup instead of the process-wide cache. Set once before first use
	// (UsePlans).
	plans *dsp.PlanSet

	// disableStream forces exact per-window FFTs even when the streaming
	// break-even would choose the sliding engine. Used by benchmarks and
	// A/B tests to measure the engine choice itself; production code
	// leaves it false and lets dsp.StreamingWins decide.
	disableStream bool

	// wsPool holds *scanWorkspace values; one is checked out per scan
	// worker and returned when the scan finishes.
	wsPool sync.Pool
	// scorePool holds *scoreBuf values: the per-window score storage the
	// parallel scan writes into before the deterministic reduction.
	scorePool sync.Pool
}

// scanWorkspace is the per-worker scratch for window scoring: a shared
// immutable FFT plan plus this worker's private spectrum and FFT buffers,
// and — once a streaming scan has run — the worker-local sliding-DFT state
// the range-claiming coarse scan advances incrementally.
type scanWorkspace struct {
	n       int
	plan    *dsp.FFTPlan
	scratch []complex128
	spec    []float64
	// slide is the lazily built streaming engine, reused as long as the
	// scan's band and hop stay the same (they do, across every session of a
	// service: the band is a function of the signal design and Theta).
	slide *dsp.SlidingBandDFT
}

// sliding returns the workspace's streaming engine for (band, step),
// (re)building it only when the requested band changes — the hop size is
// mutable on the engine (dsp.SlidingBandDFT.SetStep), so one pinned state
// serves both the coarse and the fine hop sequences and steady-state
// service traffic reuses it allocation-free.
func (ws *scanWorkspace) sliding(band bandRange, step int) (*dsp.SlidingBandDFT, error) {
	if s := ws.slide; s != nil {
		if lo, hi := s.Band(); lo == band.lo && hi == band.hi {
			if err := s.SetStep(step); err != nil {
				return nil, err
			}
			return s, nil
		}
	}
	s, err := dsp.NewSlidingBandDFT(ws.plan, band.lo, band.hi, step)
	if err != nil {
		return nil, err
	}
	ws.slide = s
	return s, nil
}

// scoreBuf wraps a growable score slice so it can round-trip through a
// sync.Pool without re-boxing.
type scoreBuf struct{ buf []float64 }

// recSource is the scanned recording in whichever representation the caller
// holds: float64 samples or raw int16 PCM. Exactly one field is non-nil.
// The int16→float64 widening is exact and the PCM path fuses it into the
// FFT pack stage and the sliding-DFT feed (see dsp), so scanning PCM is
// bit-identical to scanning audio.ToFloat(pcm) — without the 4×-sized float64 copy
// a session used to pay per device.
type recSource struct {
	f   []float64
	pcm []int16
}

func (r recSource) len() int {
	if r.pcm != nil {
		return len(r.pcm)
	}
	return len(r.f)
}

// bandSpectrumAt computes the exact band-restricted power spectrum of the
// window starting at i into ws.spec — the single-window primitive both the
// exact scan mode and the fine scan's at-peak re-check use.
func (r recSource) bandSpectrumAt(ws *scanWorkspace, i, winLen int, band bandRange) error {
	if r.pcm != nil {
		return ws.plan.PowerSpectrumBandIntoPCM(ws.spec, r.pcm[i:i+winLen], ws.scratch, band.lo, band.hi)
	}
	return ws.plan.PowerSpectrumBandInto(ws.spec, r.f[i:i+winLen], ws.scratch, band.lo, band.hi)
}

// reset arms the sliding engine on this recording at the given window start.
func (r recSource) reset(sd *dsp.SlidingBandDFT, start int) error {
	if r.pcm != nil {
		return sd.ResetPCM(r.pcm, start)
	}
	return sd.Reset(r.f, start)
}

// fineDriftMargin is the relative half-width of the streamed-score
// confidence interval the streaming fine scan uses to choose its exact
// re-check candidates: window w is re-scored with an exact band-restricted
// FFT iff score(w) + margin·gross(w) ≥ max_v(score(v) − margin·gross(v)),
// where gross is the total (unsigned) band power the score read — i.e. iff
// the window's true score could still be the true maximum. The sliding
// engine's drift between resyncs is bounded at ≤2e-13 relative
// (dsp.StreamResyncHops); 1e-9 keeps >5000× headroom above that bound
// (the contract floor is 1e3×) while in practice re-checking only the peak
// window plus exact ties.
const fineDriftMargin = 1e-9

// New builds a Detector.
func New(cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg}, nil
}

// UsePool attaches a shared worker pool: scans stop spawning their own
// goroutines and batch windows through the pool's workers instead. Call
// before the first scan; a nil pool restores the default fan-out.
func (d *Detector) UsePool(p *Pool) { d.pool = p }

// UsePlans attaches a pinned FFT plan set (see dsp.PlanSet). Call before
// the first scan; a nil set restores the process-wide plan cache.
func (d *Detector) UsePlans(ps *dsp.PlanSet) { d.plans = ps }

// getWorkspace checks a workspace for window length n out of the pool,
// building one (with the process-shared FFT plan) on a miss or length
// change.
func (d *Detector) getWorkspace(n int) (*scanWorkspace, error) {
	if v := d.wsPool.Get(); v != nil {
		ws := v.(*scanWorkspace)
		if ws.n == n {
			return ws, nil
		}
		// Window length changed (different signal params): drop the stale
		// workspace and build a fresh one.
	}
	var plan *dsp.FFTPlan
	var err error
	if d.plans != nil {
		plan, err = d.plans.Plan(n)
	} else {
		plan, err = dsp.SharedFFTPlan(n)
	}
	if err != nil {
		return nil, err
	}
	return &scanWorkspace{n: n, plan: plan, scratch: plan.NewScratch(), spec: make([]float64, n)}, nil
}

// getScores checks the score buffer out of the pool, growing it to hold at
// least n values.
func (d *Detector) getScores(n int) *scoreBuf {
	sb, _ := d.scorePool.Get().(*scoreBuf)
	if sb == nil {
		sb = &scoreBuf{}
	}
	if cap(sb.buf) < n {
		sb.buf = make([]float64, n)
	}
	return sb
}

// Config returns the detector's parameters.
func (d *Detector) Config() Config { return d.cfg }

// sigSpec is the precomputed spectral footprint of one reference signal.
type sigSpec struct {
	sig          *sigref.Signal
	chosenBins   []int // spectrum bin per chosen candidate
	foreignBins  []int // spectrum bin per non-chosen candidate
	alphaFloor   float64
	betaCeiling  float64
	absentFloor  float64
	windowLength int
	skipBeta     bool
}

func (d *Detector) newSigSpec(sig *sigref.Signal) *sigSpec {
	p := sig.Params()
	chosenSet := make(map[int]bool, sig.Count())
	for _, idx := range sig.Indices() {
		chosenSet[idx] = true
	}
	var chosen, foreign []int
	for i, f := range p.Candidates() {
		bin := dsp.BinIndex(f, p.SampleRate, p.Length)
		if chosenSet[i] {
			chosen = append(chosen, bin)
		} else {
			foreign = append(foreign, bin)
		}
	}
	return &sigSpec{
		sig:          sig,
		chosenBins:   chosen,
		foreignBins:  foreign,
		alphaFloor:   d.cfg.Alpha * sig.RF(),
		betaCeiling:  d.cfg.BetaFrac * sig.RF(),
		absentFloor:  d.cfg.Epsilon * sig.TotalRF(),
		windowLength: p.Length,
		skipBeta:     d.cfg.DisableBetaCheck,
	}
}

// normPower implements Algorithm 2 given a precomputed window power
// spectrum. It returns −Inf when either sanity check fails.
func (s *sigSpec) normPower(spectrum []float64, theta int) float64 {
	var sumChosen float64
	for _, bin := range s.chosenBins {
		p := dsp.BandPower(spectrum, bin, theta)
		if p <= s.alphaFloor {
			return math.Inf(-1)
		}
		sumChosen += p
	}
	var sumForeign float64
	for _, bin := range s.foreignBins {
		p := dsp.BandPower(spectrum, bin, theta)
		if !s.skipBeta && p >= s.betaCeiling {
			return math.Inf(-1)
		}
		sumForeign += p
	}
	return sumChosen - sumForeign
}

// normPowerStreamed is normPower over a possibly drifted (streamed)
// spectrum. Each α/β sanity check classifies its band power into one of
// three zones relative to fineDriftMargin:
//
//   - certain fail — outside the threshold by more than drift can explain
//     (p ≤ α·R_f·(1−m), or p ≥ β·(1+m)): the exact check fails too, so the
//     (−Inf, 0) return is authoritative and the window is never re-checked.
//   - certain pass — inside the threshold by more than the margin: the
//     exact check passes, and the streamed score lies within
//     fineDriftMargin·gross of the exact score (gross = total unsigned
//     band power read).
//   - ambiguous — straddling a threshold within the margin: the exact
//     check could go either way, so the window's exact score could be
//     anything from −Inf to its drift interval. Such a window returns
//     gross = +Inf, which makes its confidence interval (−Inf, +Inf): it
//     never tightens the re-check bound but is always re-checked exactly.
func (s *sigSpec) normPowerStreamed(spectrum []float64, theta int) (score, gross float64) {
	const m = fineDriftMargin
	ambiguous := false
	var sumChosen float64
	for _, bin := range s.chosenBins {
		p := dsp.BandPower(spectrum, bin, theta)
		if p <= s.alphaFloor*(1-m) {
			return math.Inf(-1), 0
		}
		if p <= s.alphaFloor*(1+m) {
			ambiguous = true
		}
		sumChosen += p
	}
	var sumForeign float64
	for _, bin := range s.foreignBins {
		p := dsp.BandPower(spectrum, bin, theta)
		if !s.skipBeta {
			if p >= s.betaCeiling*(1+m) {
				return math.Inf(-1), 0
			}
			if p >= s.betaCeiling*(1-m) {
				ambiguous = true
			}
		}
		sumForeign += p
	}
	if ambiguous {
		return sumChosen - sumForeign, math.Inf(1)
	}
	return sumChosen - sumForeign, sumChosen + sumForeign
}

// NormPower exposes Algorithm 2 for a single window (tests, ablations). It
// scores through the same pooled planned band-restricted spectrum as the
// scan engine — so a NormPower value is bit-identical to the score DetectAll
// computes for that window — and agrees with the legacy one-shot
// dsp.PowerSpectrum path to 1e-9 relative (the planned FFT's fused radix-2²
// schedule rounds a few ULPs differently; pinned by the parity test).
func (d *Detector) NormPower(window []float64, sig *sigref.Signal) (float64, error) {
	if sig == nil {
		return 0, errors.New("detect: nil signal")
	}
	if len(window) != sig.Params().Length {
		return 0, fmt.Errorf("detect: window length %d != signal length %d", len(window), sig.Params().Length)
	}
	band, err := d.cfg.scanBand(sig.Params())
	if err != nil {
		return 0, err
	}
	ws, err := d.getWorkspace(len(window))
	if err != nil {
		return 0, err
	}
	defer d.wsPool.Put(ws)
	if err := ws.plan.PowerSpectrumBandInto(ws.spec, window, ws.scratch, band.lo, band.hi); err != nil {
		return 0, err
	}
	return d.newSigSpec(sig).normPower(ws.spec, d.cfg.Theta), nil
}

// Detect runs Algorithm 1 for a single reference signal.
func (d *Detector) Detect(recording []float64, sig *sigref.Signal) (Result, error) {
	results, err := d.DetectAll(recording, sig)
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// DetectAll locates several reference signals in one recording, sharing the
// coarse-scan FFTs across signals — the prototype's "detect the two
// reference signals simultaneously in one scan" optimization. All signals
// must share Params (length and grid).
//
// Window spectra run through the pooled zero-alloc band-limited engine —
// exact band-restricted FFTs (dsp.FFTPlan.PowerSpectrumBandInto) or, when
// the scan's hop sits below the dsp.StreamingWins break-even, incremental
// sliding-DFT updates (dsp.SlidingBandDFT) — computed only over the band
// Algorithm 2 reads (see Config.CandidateBandLo/Hi; an explicit band that
// is invalid or fails to cover the signals' footprint is rejected here).
// Windows are scored across a bounded worker pool claiming fixed hop
// blocks, and the reduction is performed in window order, so results are
// deterministic for a given recording regardless of GOMAXPROCS. The fine
// scan streams whenever its hop is below the break-even (the paper's
// default fine step of 10 is) and re-scores every near-peak window with an
// exact FFT, so reported locations and powers are bit-identical to an
// all-exact fine scan by construction (see rescoreFinePeaks).
//
// DetectAll is a Stream fed the whole recording: the scan and the
// reduction are Stream's, so a stream fed the same audio in any chunking
// decides bit-identically.
func (d *Detector) DetectAll(recording []float64, sigs ...*sigref.Signal) ([]Result, error) {
	return d.detectAll(nil, recSource{f: recording}, sigs)
}

// DetectAllContext is DetectAll with cooperative cancellation: the scan
// observes ctx between hop blocks (the fixed dsp.StreamResyncHops /
// fftScanBlock grid) and between phases, returning ctx.Err() as soon as a
// checkpoint sees the context done. Scans that complete are bit-identical
// to DetectAll — cancellation can only abort a scan, never reorder or
// change its scores. A nil ctx scans without checkpoints.
func (d *Detector) DetectAllContext(ctx context.Context, recording []float64, sigs ...*sigref.Signal) ([]Result, error) {
	return d.detectAll(ctx, recSource{f: recording}, sigs)
}

// DetectAllPCM is DetectAll over a raw int16 PCM recording — the
// representation sessions actually record (audio.Buffer.Samples). The
// widening conversion is fused into the engine's FFT pack stage and
// sliding-window feed, so no float64 copy of the recording is ever
// materialized and results are bit-identical to
// DetectAll(audio.ToFloat(pcm), ...).
func (d *Detector) DetectAllPCM(pcm []int16, sigs ...*sigref.Signal) ([]Result, error) {
	return d.detectAll(nil, recSource{pcm: pcm}, sigs)
}

// DetectAllPCMContext is DetectAllPCM with the cooperative-cancellation
// checkpoints of DetectAllContext.
func (d *Detector) DetectAllPCMContext(ctx context.Context, pcm []int16, sigs ...*sigref.Signal) ([]Result, error) {
	return d.detectAll(ctx, recSource{pcm: pcm}, sigs)
}

// ctxErr reports a done context without blocking; nil contexts never err.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// detectAll is the batch scan: a Stream over the caller's complete
// recording, adopted without a copy (either representation — recSource
// keeps the float path), advanced to the end in one scan and reduced by the
// stream's fold. Batch and streaming decisions therefore share one argmax,
// fine scan and absent check by construction.
func (d *Detector) detectAll(ctx context.Context, rec recSource, sigs []*sigref.Signal) ([]Result, error) {
	st, err := d.newStream(rec.len(), sigs)
	if err != nil {
		return nil, err
	}
	st.rec = rec
	results, _, err := st.results(ctx)
	return results, err
}

// fineRange returns the fine-scan window sequence around a coarse argmax:
// starts lo, lo+FineStep, …, hi (count windows), the ±CoarseStep span
// clamped to the recording's window range [0, limit]. limit must be the
// FULL recording's last window start — the streaming engine passes the
// declared total length's limit even when only a prefix has arrived, so an
// early fine scan runs over exactly the range the batch oracle would.
func (c Config) fineRange(bestIdx, limit int) (lo, hi, count int) {
	lo = bestIdx - c.CoarseStep
	if lo < 0 {
		lo = 0
	}
	hi = bestIdx + c.CoarseStep
	if hi > limit {
		hi = limit
	}
	count = (hi-lo)/c.FineStep + 1
	return lo, hi, count
}

// fineLocate runs one signal's fine scan around its coarse argmax
// (*bestIdx), updating (*bestPow, *bestIdx) exactly as the sequential
// all-exact fine reduction would, and returns the number of fine windows
// evaluated. one is the single-spec slice for this signal (a subslice of
// the caller's spec array, so the call is allocation-free); sb is the
// caller's pooled score storage, grown in place as needed. Called only
// from Stream.Results, the fold batch and streaming scans share.
func (d *Detector) fineLocate(ctx context.Context, rec recSource, winLen, limit int, band bandRange, fineStream bool, one []*sigSpec, sb *scoreBuf, bestPow *float64, bestIdx *int) (int, error) {
	lo, _, fineCount := d.cfg.fineRange(*bestIdx, limit)
	need := fineCount
	if fineStream {
		need = 2 * fineCount // scores + per-window gross band power
	}
	if cap(sb.buf) < need {
		sb.buf = make([]float64, need)
	}
	fineScores := sb.buf[:fineCount]
	if !fineStream {
		// Exact per-window FFTs (band-restricted unpack only): fine
		// steps above the break-even don't benefit from streaming.
		if err := d.scanWindows(ctx, rec, winLen, lo, d.cfg.FineStep, fineCount, band, false, one, fineScores, nil); err != nil {
			return 0, err
		}
		for w := 0; w < fineCount; w++ {
			if p := fineScores[w]; p > *bestPow {
				*bestPow, *bestIdx = p, lo+w*d.cfg.FineStep
			}
		}
		return fineCount, nil
	}
	gross := sb.buf[fineCount : 2*fineCount]
	if err := d.scanWindows(ctx, rec, winLen, lo, d.cfg.FineStep, fineCount, band, true, one, fineScores, gross); err != nil {
		return 0, err
	}
	if err := d.rescoreFinePeaks(ctx, rec, winLen, lo, fineCount, band, one[0], fineScores, gross, bestPow, bestIdx); err != nil {
		return 0, err
	}
	return fineCount, nil
}

// rescoreFinePeaks is the exact-at-peak verification pass of the streaming
// fine scan. scores/gross hold the streamed (drift-relaxed) score and total
// unsigned band power of each fine window; every window whose exact score
// could still be the true fine maximum — streamed score within the
// fineDriftMargin confidence interval of the streamed maximum — is
// re-scored with one exact band-restricted FFT, in window order, against
// the strict Algorithm 2 checks, updating (*bestPow, *bestIdx) exactly as
// the all-exact fine reduction would.
//
// Why this is bit-identical to scanning every fine window exactly: every
// window's exact score s(v) lies inside its streamed confidence interval
// [s̃(v) − margin·gross(v), s̃(v) + margin·gross(v)] — for certain-pass
// windows by the drift bound, for certain-fail windows because both are
// −Inf, and for threshold-ambiguous windows because gross = +Inf makes the
// interval (−Inf, +Inf) (see normPowerStreamed's three zones). The exact
// argmax w* therefore satisfies s̃(w*) + margin·gross(w*) ≥ s(w*) ≥ s(v) ≥
// s̃(v) − margin·gross(v) for every v — i.e. w* (and every exact tie for
// the maximum) is always a re-check candidate. Candidates are re-scored in
// ascending window order with the same strictly-greater update rule, so
// the earliest window attaining the exact maximum wins, exactly as in the
// all-exact scan; skipped windows have exact scores strictly below the
// maximum and could never have changed the outcome. A streamed −Inf is
// authoritative, so certain-fail windows are never re-checked and an
// all-certain-fail fine scan re-checks nothing, again matching the
// all-exact scan.
func (d *Detector) rescoreFinePeaks(ctx context.Context, rec recSource, winLen, lo, fineCount int, band bandRange, ss *sigSpec, scores, gross []float64, bestPow *float64, bestIdx *int) error {
	// maxLower is the best exact score certainly attained (the largest
	// interval lower bound); ambiguous windows contribute −Inf to it but
	// still force their own re-check via a +Inf upper bound.
	maxLower := math.Inf(-1)
	anyFinite := false
	for w := 0; w < fineCount; w++ {
		if !math.IsInf(scores[w], -1) {
			anyFinite = true
		}
		if l := scores[w] - fineDriftMargin*gross[w]; l > maxLower {
			maxLower = l
		}
	}
	if !anyFinite {
		// Every fine window certainly failed the sanity checks, so every
		// exact score is −Inf too: nothing can improve on the coarse best.
		return nil
	}
	ws, err := d.getWorkspace(winLen)
	if err != nil {
		return err
	}
	defer d.wsPool.Put(ws)
	for w := 0; w < fineCount; w++ {
		if math.IsInf(scores[w], -1) || scores[w]+fineDriftMargin*gross[w] < maxLower {
			continue
		}
		// Each candidate costs one exact FFT; let cancellation land
		// between them (usually just the peak window, so this is ~free).
		if err := ctxErr(ctx); err != nil {
			return err
		}
		i := lo + w*d.cfg.FineStep
		if err := rec.bandSpectrumAt(ws, i, winLen, band); err != nil {
			return err
		}
		if p := ss.normPower(ws.spec, d.cfg.Theta); p > *bestPow {
			*bestPow, *bestIdx = p, i
		}
	}
	return nil
}

// fftScanBlock is the contiguous hop-range size workers claim in the exact
// per-window-FFT mode. Range claiming exists for the streaming mode (the
// incremental state must stay worker-local); in FFT mode every window is
// independent, so the block size only tunes claim overhead and cache
// locality and never changes a score.
const fftScanBlock = 4

// scanJob bundles one window-scan's parameters so block processing is
// shared verbatim between the sequential fast path and pool workers — the
// block grid, not the worker schedule, determines every score.
type scanJob struct {
	rec    recSource
	winLen int
	lo     int
	step   int
	count  int
	band   bandRange
	stream bool
	specs  []*sigSpec
	scores []float64
	// gross, when non-nil, switches scoring to the drift-relaxed streamed
	// variant (normPowerStreamed) and records each window's total unsigned
	// band power alongside its score — the streaming fine scan's re-check
	// candidate input. Same layout as scores.
	gross []float64
	theta int
	block int
	// blocks is the total block count of the fixed grid.
	blocks int
	// ctx/done are the scan's cancellation checkpoint state: done is
	// ctx.Done(), captured once so the per-block check is a nil test plus
	// a non-blocking select. Both nil for uncancellable scans.
	ctx  context.Context
	done <-chan struct{}
}

// checkpoint returns ctx.Err() once the scan's context is done. It sits
// between hop blocks, so the happy path pays one nil check per block and a
// canceled scan stops within one block's worth of FFT work.
func (j *scanJob) checkpoint() error {
	if j.done == nil {
		return nil
	}
	select {
	case <-j.done:
		return j.ctx.Err()
	default:
		return nil
	}
}

// runBlock scores the contiguous hop range of block b with ws (and its
// sliding engine sd in streaming mode: one exact Reset at the block start,
// incremental advances within).
func (j *scanJob) runBlock(ws *scanWorkspace, sd *dsp.SlidingBandDFT, b int) error {
	// Chaos hook: one atomic load when the fault registry is disabled (the
	// production state); armed, it can stall this block, panic the worker
	// (exercising panic isolation), or trip a Hook that cancels the
	// session mid-scan.
	if err := faultinject.Fire(faultinject.SiteDetectBlock); err != nil {
		return err
	}
	w0 := b * j.block
	wEnd := w0 + j.block
	if wEnd > j.count {
		wEnd = j.count
	}
	if j.stream {
		if err := j.rec.reset(sd, j.lo+w0*j.step); err != nil {
			return err
		}
		for w := w0; w < wEnd; w++ {
			if w > w0 {
				if err := sd.Advance(); err != nil {
					return err
				}
			}
			if err := sd.PowersInto(ws.spec); err != nil {
				return err
			}
			j.score(w, ws.spec)
		}
		return nil
	}
	for w := w0; w < wEnd; w++ {
		if err := j.rec.bandSpectrumAt(ws, j.lo+w*j.step, j.winLen, j.band); err != nil {
			return err
		}
		j.score(w, ws.spec)
	}
	return nil
}

func (j *scanJob) score(w int, spec []float64) {
	if j.gross != nil {
		for s, ss := range j.specs {
			sc, g := ss.normPowerStreamed(spec, j.theta)
			j.scores[w*len(j.specs)+s] = sc
			j.gross[w*len(j.specs)+s] = g
		}
		return
	}
	for s, ss := range j.specs {
		j.scores[w*len(j.specs)+s] = ss.normPower(spec, j.theta)
	}
}

// scanWindows scores the arithmetic window sequence lo, lo+step, … (count
// windows) against every spec, writing scores[w*len(specs)+s] (and, when
// gross is non-nil, the drift-relaxed streamed scores plus per-window gross
// band power — see scanJob.gross). Workers — idle goroutines borrowed from
// the attached Pool when one is set, transient goroutines (≤ GOMAXPROCS)
// otherwise — claim contiguous blocks of hops off a shared atomic counter,
// each with one pooled workspace.
//
// In FFT mode each window gets an exact band-restricted power spectrum
// (dsp.FFTPlan.PowerSpectrumBandInto), so scores are independent of
// scheduling and blocking. In streaming mode (coarse scans below the
// sliding-DFT break-even) each block starts with a full-FFT Reset and
// advances incrementally within the block; the block grid is fixed
// (dsp.StreamResyncHops), so which worker computes a block never changes
// its scores and results stay bit-deterministic at any GOMAXPROCS. The
// caller's in-order reduction therefore always matches a sequential scan.
func (d *Detector) scanWindows(ctx context.Context, rec recSource, winLen, lo, step, count int, band bandRange, stream bool, specs []*sigSpec, scores, gross []float64) error {
	// Bounds guard: the last window is recording[lo+(count-1)*step :
	// lo+(count-1)*step+winLen]. A recording too short for the requested
	// sequence used to slice out of range and panic; refuse it instead.
	if lo < 0 || step < 1 || count < 1 {
		return fmt.Errorf("detect: invalid window sequence lo=%d step=%d count=%d", lo, step, count)
	}
	if last := lo + (count-1)*step; last > rec.len()-winLen {
		return fmt.Errorf("detect: recording of %d samples too short for window [%d:%d] (lo=%d step=%d count=%d winLen=%d)",
			rec.len(), last, last+winLen, lo, step, count, winLen)
	}

	job := scanJob{
		rec:    rec,
		winLen: winLen,
		lo:     lo,
		step:   step,
		count:  count,
		band:   band,
		stream: stream,
		specs:  specs,
		scores: scores,
		gross:  gross,
		theta:  d.cfg.Theta,
		block:  fftScanBlock,
		ctx:    ctx,
	}
	if ctx != nil {
		job.done = ctx.Done()
	}
	if stream {
		// One resync (full-FFT Reset) per block bounds sliding-DFT drift;
		// see dsp.StreamResyncHops for the drift budget.
		job.block = dsp.StreamResyncHops
	}
	job.blocks = (count + job.block - 1) / job.block

	// Sequential fast path (single-core machines, tiny scans): the
	// submitting goroutine walks the same fixed block grid alone — no
	// extra goroutines, no synchronization — so scores are identical to a
	// parallel run by construction and steady-state allocations stay at
	// zero. The shared atomic counter only ever sees one claimant here.
	helpers := runtime.GOMAXPROCS(0) - 1
	if d.pool != nil {
		helpers = d.pool.Workers()
	}
	if helpers > job.blocks-1 {
		helpers = job.blocks - 1
	}
	if helpers <= 0 {
		var next atomic.Int64
		return d.scanWorker(&job, &next)
	}
	// The parallel path's closures share one heap copy of the job; job
	// itself stays on the stack so the sequential path above is
	// allocation-free.
	jobp := new(scanJob)
	*jobp = job

	var next atomic.Int64
	var errMu sync.Mutex
	var scanErr error
	fail := func(err error) {
		errMu.Lock()
		if scanErr == nil {
			scanErr = err
		}
		errMu.Unlock()
		next.Store(int64(jobp.blocks)) // stop remaining claims
	}
	work := func() {
		if err := d.scanWorker(jobp, &next); err != nil {
			fail(err)
		}
	}

	// The submitting goroutine always participates; extra workers join up
	// to the bound. With a pool attached only idle pool workers join (a
	// busy pool never blocks a scan); without one, transient goroutines
	// are spawned as before.
	var wg sync.WaitGroup
	for g := 0; g < helpers; g++ {
		if d.pool != nil {
			wg.Add(1)
			if !d.pool.offer(func() { defer wg.Done(); work() }) {
				wg.Done()
				break // pool saturated; stop recruiting
			}
		} else {
			wg.Add(1)
			go func() { defer wg.Done(); work() }()
		}
	}
	work()
	wg.Wait()
	return scanErr
}

// scanWorker is one goroutine's share of a scan: it checks a workspace
// out of the pool and claims blocks off the shared counter until the grid
// is exhausted, an error occurs, or a checkpoint observes cancellation.
//
// Panic isolation: a panic anywhere in the claimed blocks (a bug, or an
// injected fault) is recovered here and converted to a *PanicError so the
// scan fails with a typed error instead of killing the process. The
// workspace the panic may have left mid-update is treated as poisoned and
// discarded — never recycled into the pool — so subsequent scans only ever
// see scratch in a known-good state; the owning service re-prewarms a
// replacement (detect.Prewarm) when it sees the error.
func (d *Detector) scanWorker(j *scanJob, next *atomic.Int64) (err error) {
	ws, err := d.getWorkspace(j.winLen)
	if err != nil {
		return err
	}
	var sd *dsp.SlidingBandDFT
	defer func() {
		if r := recover(); r != nil {
			// Poisoned: drop ws on the floor (GC reclaims it) and report.
			err = &PanicError{Value: r, Stack: debug.Stack()}
			return
		}
		if sd != nil {
			// Don't let the pooled workspace pin this scan's recording
			// after the scan ends.
			sd.Release()
		}
		d.wsPool.Put(ws)
	}()
	if j.stream {
		if sd, err = ws.sliding(j.band, j.step); err != nil {
			return err
		}
	}
	for {
		b := int(next.Add(1)) - 1
		if b >= j.blocks {
			return nil
		}
		if err := j.checkpoint(); err != nil {
			return err
		}
		if err := j.runBlock(ws, sd, b); err != nil {
			return err
		}
	}
}

// Prewarm builds and pools workers scan workspaces sized for signals drawn
// from p: the pinned FFT plan, the full-length spectrum buffer, the packed
// FFT scratch, and — when the configured coarse step streams — the
// sliding-DFT state and its shared rotation table. A long-lived service
// calls this at construction so steady-state traffic never pays cold-start
// allocations (and the first sessions don't race to build the same
// tables).
func (d *Detector) Prewarm(p sigref.Params, workers int) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("detect: prewarm: %w", err)
	}
	band, err := d.cfg.scanBand(p)
	if err != nil {
		return err
	}
	if workers < 1 {
		workers = 1
	}
	// One sliding engine per workspace covers every hop size that streams
	// (the hop is mutable on the engine); the paper's default fine step of
	// 10 streams even though its coarse step of 1000 does not.
	bins := band.hi - band.lo
	stream := dsp.StreamingWins(p.Length, bins, d.cfg.CoarseStep) ||
		dsp.StreamingWins(p.Length, bins, d.cfg.FineStep)
	wss := make([]*scanWorkspace, 0, workers)
	for i := 0; i < workers; i++ {
		ws, err := d.getWorkspace(p.Length)
		if err != nil {
			return err
		}
		if stream {
			if _, err := ws.sliding(band, d.cfg.FineStep); err != nil {
				return err
			}
		}
		wss = append(wss, ws)
	}
	for _, ws := range wss {
		d.wsPool.Put(ws)
	}
	return nil
}

// DetectCrossCorrelation locates a reference signal using plain normalized
// cross-correlation against the original time-domain waveform — the
// BeepBeep-style detector the ACTION-CC baseline uses. It has no absent
// check; it always returns the correlation argmax, which is exactly why it
// fails under frequency smoothing (Fig. 2b).
func (d *Detector) DetectCrossCorrelation(recording []float64, sig *sigref.Signal) (Result, error) {
	if sig == nil {
		return Result{}, errors.New("detect: nil signal")
	}
	ref := sig.Samples()
	if len(recording) < len(ref) {
		return Result{}, fmt.Errorf("detect: recording %d shorter than reference %d", len(recording), len(ref))
	}
	corr, err := dsp.CrossCorrelate(recording, ref)
	if err != nil {
		return Result{}, err
	}
	idx, val := dsp.ArgMax(corr)
	return Result{Location: idx, Power: val, Found: true, WindowsScanned: len(corr)}, nil
}

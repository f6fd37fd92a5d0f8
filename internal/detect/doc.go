// Package detect implements the paper's signal-detection algorithms:
// Algorithm 2 (NormPower), the sanity-checked spectral matcher that scores
// how well a window of recorded audio matches a reference signal's power
// spectrum — with the α (attenuation floor), β (foreign-frequency ceiling),
// and θ (frequency-smoothing aggregation width) parameters — and
// Algorithm 1, the sliding-window search for a reference signal's location
// with the prototype's adaptive two-stage step (coarse 1000, fine 10), the
// simultaneous two-signal single-scan optimization, and the ε·R_S
// absent-signal check. It also provides the cross-correlation detector used
// by the ACTION-CC baseline of Fig. 2(b).
//
// Key types: Config carries the algorithm parameters plus the candidate
// band (derived by CandidateBand or pinned via CandidateBandLo/Hi, both
// validated); Detector owns pooled per-worker scan workspaces and runs
// DetectAll, the two-signal scan, and DetectAllPCM, its zero-copy raw
// int16 form (the widening conversion is fused into the spectral engine,
// bit-identically); Pool is the bounded worker set a batching service
// shares across sessions, with cooperative idle-worker recruitment. Scans
// compute per-window spectra only over the candidate band and switch to
// the streaming sliding-DFT engine below the measured dsp.StreamingWins
// break-even — the default fine step does, so the fine scan streams its
// hops and then re-scores every window within a drift margin of the
// streamed maximum with an exact band-restricted FFT, reporting locations
// and powers from exact scores only (bit-identical to an all-exact fine
// scan by construction).
//
// Detector.NewStream is the incremental form of the same scan, and the
// only implementation of its reduction: a Stream accumulates chunked PCM
// against the recording length declared at construction (bounded by
// MaxStreamLength; over-feeding is rejected whole with ErrFeedOverflow),
// scores coarse windows as they complete on the fixed block grid, runs
// the fine re-check as soon as the candidate band is buffered, and reports
// via Results either the per-signal results or how many more samples it
// needs. DetectAll and DetectAllPCM are a Stream fed the whole recording
// at once (adopting the caller's float64 or int16 audio without a copy),
// so batch and streaming share one argmax, fine-scan and absent-check
// fold, and after any prefix a stream's state is bit-identical to a batch
// scan of that prefix.
//
// Invariants: scans are bit-deterministic at any GOMAXPROCS and pool size —
// streaming-scan workers claim contiguous hop blocks aligned to the resync
// grid, and window scores (and the fine scan's exact re-checks) reduce in
// window order regardless of which worker computed them. Scan workspaces
// are recycled across sessions and allocate nothing in steady state
// (Prewarm builds them up front); a truncated recording errors instead of
// panicking.
package detect

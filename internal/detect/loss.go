package detect

import (
	"context"
	"errors"
	"fmt"
)

// DefaultMaxLossFraction is the degraded-mode ceiling applied when
// Config.MaxLossFraction is zero: a stream that loses more than a quarter
// of its declared recording refuses to decide.
const DefaultMaxLossFraction = 0.25

// ErrInsufficientAudio is returned (wrapped, match with errors.Is) by a
// Stream when transport loss precludes a trustworthy decision: the total
// lost audio exceeded the configured ceiling, the surviving argmax's
// fine-scan band overlaps a lost span (the exact-at-peak re-check would
// score fabricated zeros), or loss excluded windows while every scored
// window failed the sanity checks (a ⊥ that might be a loss artifact).
// It is a decision-grade refusal — the caller gets a typed error, never a
// silently low-confidence accept or reject.
var ErrInsufficientAudio = errors.New("detect: lost audio precludes a trustworthy decision")

// lostSpan is a half-open sample range [lo, hi) declared lost.
type lostSpan struct{ lo, hi int }

// FeedLost declares the next n samples of the stream's recording lost:
// the transport could not deliver them and the repair deadline passed.
// The span is zero-filled in the PCM buffer — keeping the fixed hop grid, the
// block-aligned scan order, and the sliding-DFT resync arithmetic
// bit-identical to a clean feed — and recorded so Results deterministically
// excludes every coarse window overlapping it from the argmax fold. Like
// Feed, an over-length span is rejected whole with ErrFeedOverflow. When
// cumulative loss crosses the MaxLossFraction ceiling the span is still
// recorded but FeedLost (and every later Results) reports
// ErrInsufficientAudio — the stream refuses to decide.
func (st *Stream) FeedLost(ctx context.Context, n int) error {
	if n < 0 {
		return fmt.Errorf("detect: negative lost-span length %d", n)
	}
	if n == 0 {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	lo := st.rec.len()
	if lo+n > st.total {
		return fmt.Errorf("%w: %d + %d lost samples against declared length %d",
			ErrFeedOverflow, lo, n, st.total)
	}
	st.rec.pcm = st.rec.pcm[:lo+n]
	clear(st.rec.pcm[lo:])
	if k := len(st.lost); k > 0 && st.lost[k-1].hi == lo {
		st.lost[k-1].hi = lo + n
	} else {
		st.lost = append(st.lost, lostSpan{lo, lo + n})
	}
	st.lostSamples += n
	if err := st.ceiling(); err != nil {
		return err
	}
	return st.advance(ctx)
}

// ceiling reports ErrInsufficientAudio once cumulative loss exceeds the
// configured bound. Called with st.mu held.
func (st *Stream) ceiling() error {
	if st.lostSamples > st.maxLost {
		return fmt.Errorf("%w: %d of %d samples lost exceeds the %d-sample ceiling",
			ErrInsufficientAudio, st.lostSamples, st.total, st.maxLost)
	}
	return nil
}

// Loss reports the stream's degraded-mode accounting: how many samples
// have been declared lost, and how many coarse windows of the full fixed
// grid those spans exclude from scoring.
func (st *Stream) Loss() (samples, windows int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, n := st.excludedWindows()
	return st.lostSamples, n
}

// excludedWindows marks the grid windows overlapping any lost span (nil
// when the feed is clean — the zero-loss path allocates nothing). Called
// with st.mu held.
func (st *Stream) excludedWindows() ([]bool, int) {
	if len(st.lost) == 0 {
		return nil, 0
	}
	excl := make([]bool, st.grid.Count)
	n := 0
	for _, sp := range st.lost {
		w0, w1 := st.grid.WindowsOverlapping(sp.lo, sp.hi)
		for w := w0; w < w1; w++ {
			if !excl[w] {
				excl[w] = true
				n++
			}
		}
	}
	return excl, n
}

// overlapsLost reports whether the sample range [lo, hi) intersects any
// lost span. Called with st.mu held.
func (st *Stream) overlapsLost(lo, hi int) bool {
	for _, sp := range st.lost {
		if sp.lo < hi && sp.hi > lo {
			return true
		}
	}
	return false
}

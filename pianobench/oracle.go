package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"github.com/acoustic-auth/piano"
)

// sampleRecords picks up to k records with a seeded RNG, in index order.
func sampleRecords(recs []*record, k int, seed int64) []*record {
	if len(recs) <= k {
		return recs
	}
	pick := rand.New(rand.NewSource(seed)).Perm(len(recs))[:k]
	slices.Sort(pick)
	out := make([]*record, k)
	for j, i := range pick {
		out[j] = recs[i]
	}
	return out
}

// verdict is what the oracle found on one sampled session.
type verdict struct {
	r *record
	// serial is the latency of the session run alone on the idle service,
	// the same way it ran under load; 0 where the oracle did not time one.
	serial   time.Duration
	mismatch string // empty when the session matched its oracle
}

// check recomputes each sampled session serially, outside any timed phase.
// A clean decision must be Float64bits-identical to a serial Authenticate
// of the same request. A session over the lossy wire must equal a serial
// replay of the same framed schedule: the same decision bits or the same
// typed refusal. With replay set, plain stream sessions are replayed too,
// to time them unloaded.
func (d *driver) check(ctx context.Context, sample []*record, replay bool) ([]verdict, error) {
	serial := *d
	serial.traced = false
	out := make([]verdict, 0, len(sample))
	for _, r := range sample {
		if r.err != nil && d.w.mode != feedFramed {
			continue // a typed shed is counted as failed, not compared
		}
		v := verdict{r: r}
		if d.w.mode == feedFramed || replay && d.w.mode == feedPlain {
			ref := &record{idx: r.idx, req: r.req}
			serial.origin = time.Now()
			serial.session(ctx, ref)
			v.serial = ref.latency()
			v.mismatch = sameOutcome(r, ref.dec, ref.err, "serial replay")
		}
		if v.mismatch == "" && r.err == nil && r.dec.Degraded == nil {
			start := time.Now()
			dec, err := d.svc.AuthenticateContext(ctx, r.req)
			if d.w.mode == feedBatch {
				v.serial = time.Since(start)
			}
			if err != nil {
				return nil, fmt.Errorf("oracle Authenticate of session %d: %w", r.idx, err)
			}
			v.mismatch = sameOutcome(r, dec, nil, "serial Authenticate")
		}
		out = append(out, v)
	}
	return out, nil
}

// sameOutcome compares a session's outcome with its oracle's; it returns ""
// on a match and a description otherwise.
func sameOutcome(r *record, dec *piano.Decision, err error, oracle string) string {
	switch {
	case r.err != nil || err != nil:
		if r.err != nil && err != nil && category(r.err) != "" && category(r.err) == category(err) {
			return ""
		}
		return fmt.Sprintf("session %d: outcome error %v, %s error %v", r.idx, r.err, oracle, err)
	case !sameDecision(r.dec, dec):
		return fmt.Sprintf("session %d: decision %+v differs from %s %+v", r.idx, *r.dec, oracle, *dec)
	}
	return ""
}

func sameDecision(a, b *piano.Decision) bool {
	if a.Granted != b.Granted || a.Reason != b.Reason ||
		math.Float64bits(a.DistanceM) != math.Float64bits(b.DistanceM) ||
		math.Float64bits(a.AuthTimeSec) != math.Float64bits(b.AuthTimeSec) {
		return false
	}
	if a.Degraded == nil || b.Degraded == nil {
		return a.Degraded == b.Degraded
	}
	return *a.Degraded == *b.Degraded
}

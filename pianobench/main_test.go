package main

import (
	"context"
	"errors"
	"maps"
	"math"
	"testing"

	"github.com/acoustic-auth/piano"
)

// TestDeterministicCounts runs each workload twice with one seed and a fixed
// session count, and requires every count that depends only on the inputs —
// outcome fractions, audio needed, TryResult calls, frame and window counts —
// to repeat exactly.
func TestDeterministicCounts(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Chdir(t.TempDir()) // the traced run writes its spans under the working directory
			o := options{workload: w.name, seed: 7, seconds: 1, trace: 1, sessions: 10}
			var counts [2]map[string]float64
			for k := range counts {
				res, err := measure(context.Background(), w, o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct {
					t.Fatalf("run %d incorrect: %v", k, res.problems)
				}
				counts[k] = res.counts
			}
			if !maps.Equal(counts[0], counts[1]) {
				t.Errorf("counts differ between two runs of seed %d:\n%v\n%v", o.seed, counts[0], counts[1])
			}
			if w.mode != feedBatch && counts[0]["try_calls"] == 0 {
				t.Errorf("no TryResult calls counted: %v", counts[0])
			}
		})
	}
}

// TestOracleComparison pins what the correctness gate treats as a mismatch:
// any bit of the decision, or a different typed error.
func TestOracleComparison(t *testing.T) {
	dec := &piano.Decision{Granted: true, Reason: piano.ReasonGranted, DistanceM: 0.7, AuthTimeSec: 1.5}
	r := &record{dec: dec}
	next := *dec
	next.DistanceM = math.Nextafter(dec.DistanceM, 1)
	if sameOutcome(r, dec, nil, "oracle") != "" {
		t.Error("identical decisions reported as a mismatch")
	}
	if sameOutcome(r, &next, nil, "oracle") == "" {
		t.Error("a one-ulp distance difference passed the oracle")
	}
	degraded := *dec
	degraded.Degraded = &piano.Degraded{LostSamples: 1}
	if sameOutcome(r, &degraded, nil, "oracle") == "" {
		t.Error("a degraded oracle decision matched a clean one")
	}
	refused := &record{err: piano.ErrInsufficientAudio}
	if sameOutcome(refused, nil, piano.ErrInsufficientAudio, "oracle") != "" {
		t.Error("the same typed refusal reported as a mismatch")
	}
	if sameOutcome(refused, nil, piano.ErrOverloaded, "oracle") == "" {
		t.Error("different typed errors matched")
	}
	untyped := &record{err: errors.New("boom")}
	if sameOutcome(untyped, nil, errors.New("boom"), "oracle") == "" {
		t.Error("errors with no category matched")
	}
}

package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/acoustic-auth/piano"
	"github.com/acoustic-auth/piano/internal/arrival"
)

// feedMode is how a workload's client hands audio to the service.
type feedMode int

const (
	feedBatch  feedMode = iota // AuthenticateContext over the whole recording
	feedPlain                  // OpenSessionContext + Feed chunks + TryResult
	feedFramed                 // OpenSessionContext + FeedFrame over a lossy wire
)

// workload is one traffic mix the benchmark runs, each with one closed-loop
// client per CPU. An open loop of short batch sessions was tried and left
// out: on a shared 2-vCPU host its latency swung 2.7x between runs with
// the host's load, far past any usable regression bound.
type workload struct {
	name string
	mode feedMode
}

// workloads are the named mixes; BENCHMARK.json records why each exists.
var workloads = []workload{
	{name: "batch", mode: feedBatch},
	{name: "stream", mode: feedPlain},
	{name: "stream-lossy", mode: feedFramed},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	thresholdM = 1.0
	// The stream clients' microphone model: 20 ms chunks, ±20% jitter in
	// size, delivered flat-out (the chunking shapes the calls, not pacing).
	chunkMS     = 20
	chunkJitter = 0.2
	// The stream-lossy wire.
	wireLoss    = 0.005
	wireDup     = 0.1
	wireReorder = 0.2
)

var (
	chunkCfg = arrival.Config{ChunkMS: chunkMS, Jitter: chunkJitter}
	wireCfg  = arrival.WireConfig{LossProb: wireLoss, DupProb: wireDup, ReorderProb: wireReorder}
)

// roleSeed is the seed of one role's chunk or wire schedule in session i.
func roleSeed(req piano.AuthRequest, ri int) int64 { return req.Seed*2 + int64(ri) }

// mixSeed derives an independent stream seed from the run seed and an index.
func mixSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 29
	return int64(x>>1) | 1
}

// request is the i-th request of the run with the given seed; it depends
// on (seed, i) alone, so any index can be rebuilt by the oracle and the
// probes. Every request places a device pair 0.3–1.65 m apart around the
// 1 m threshold with distinct clock skews. Slot 3 of every ten puts the
// vouching device behind a wall; slot 7 adds one interfering PIANO user
// 1.8–2.8 m from the hub.
func request(seed int64, i int) piano.AuthRequest {
	rng := rand.New(rand.NewSource(mixSeed(seed, i)))
	dist := 0.3 + 1.35*rng.Float64()
	theta := 2 * math.Pi * rng.Float64()
	skewA := 5 + 25*rng.Float64()
	skewV := -(3 + 20*rng.Float64())
	req := piano.AuthRequest{
		Auth:  piano.DeviceSpec{Name: fmt.Sprintf("hub-%d", i), ClockSkewPPM: skewA},
		Vouch: piano.DeviceSpec{Name: fmt.Sprintf("watch-%d", i), X: dist * math.Cos(theta), Y: dist * math.Sin(theta), ClockSkewPPM: skewV},
		Seed:  rng.Int63n(1<<40) + 1,
	}
	switch i % 10 {
	case 3:
		req.Vouch.Room = 1
	case 7:
		r := 1.8 + rng.Float64()
		phi := 2 * math.Pi * rng.Float64()
		req.Interferers = []piano.DeviceSpec{{Name: fmt.Sprintf("other-user-%d", i), X: r * math.Cos(phi), Y: r * math.Sin(phi)}}
	}
	return req
}

// shouldGrant is the ground truth: the pair is within τ and in one room.
func shouldGrant(req piano.AuthRequest) bool {
	return math.Hypot(req.Vouch.X-req.Auth.X, req.Vouch.Y-req.Auth.Y) <= thresholdM && req.Vouch.Room == req.Auth.Room
}

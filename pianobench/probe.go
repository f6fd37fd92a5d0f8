package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"github.com/acoustic-auth/piano"
	"github.com/acoustic-auth/piano/internal/arrival"
	"github.com/acoustic-auth/piano/internal/core"
	"github.com/acoustic-auth/piano/internal/detect"
	"github.com/acoustic-auth/piano/internal/device"
	"github.com/acoustic-auth/piano/internal/dsp"
	"github.com/acoustic-auth/piano/internal/frame"
	"github.com/acoustic-auth/piano/internal/sigref"
	"github.com/acoustic-auth/piano/internal/world"
)

// Probe-scene schedule, global seconds: the benchmark's own, inside the
// 1.2 s recording and before the sessions' decision horizon (~0.82 s).
const (
	probePlayAuth  = 0.20
	probePlayVouch = 0.50
	probePlayOther = 0.35
)

// scene is one probe session's world, ready to render, and the signals
// each recording is scanned for.
type scene struct {
	w    *world.World
	devs [2]*device.Device
	sigs [2]*sigref.Signal
}

// probeScene builds a scene of req's shape: its two devices and each
// interferer where the request puts them, a fresh reference signal per
// device, all played on the fixed probe schedule. It is not the session's
// own scene — render and scan cost follow the scene's shape (devices,
// plays, recording length), not the random draws behind it.
func probeScene(cfg core.Config, req piano.AuthRequest) (*scene, error) {
	rng := rand.New(rand.NewSource(req.Seed))
	w, err := world.New(cfg.World, rng)
	if err != nil {
		return nil, err
	}
	play := func(name string, spec piano.DeviceSpec, at float64, avoid *sigref.Signal) (*device.Device, *sigref.Signal, error) {
		dev, err := device.NewSessionDevice(name, name, spec.X, spec.Y, spec.Room, spec.ClockSkewPPM)
		if err != nil {
			return nil, nil, err
		}
		var sig *sigref.Signal
		for sig == nil || avoid != nil && slices.Equal(sig.Indices(), avoid.Indices()) {
			if sig, err = sigref.New(cfg.Signal, rng); err != nil {
				return nil, nil, err
			}
		}
		if err := w.AddDevice(dev); err != nil {
			return nil, nil, err
		}
		return dev, sig, w.SchedulePlay(dev, sig.Samples(), at)
	}
	sc := &scene{w: w}
	if sc.devs[0], sc.sigs[0], err = play("auth", req.Auth, probePlayAuth, nil); err != nil {
		return nil, err
	}
	if sc.devs[1], sc.sigs[1], err = play("vouch", req.Vouch, probePlayVouch, sc.sigs[0]); err != nil {
		return nil, err
	}
	for i, in := range req.Interferers {
		if _, _, err := play(fmt.Sprintf("other-%d", i), in, probePlayOther, nil); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// probeStats are the layer probes' raw samples.
type probeStats struct {
	sessions     int
	renderMS     []float64 // world.Render, one per session
	batchMS      []float64 // DetectAllPCM, one per recording
	coarse       int       // coarse windows scored, both roles
	windows      int       // NormPower evaluations, both roles
	resultsCalls int       // Results calls, all roles
	wastedMS     float64   // Results calls before the deciding one
	fineMS       []float64 // the deciding Results call, one per recording
	streamRoles  int
	addCalls     int
	addTime      time.Duration
}

// probe runs world, detect and frame directly and serially over sample,
// after the load phases. Each sampled request gives a probe scene of its
// shape: render it, scan each recording in batch, stream it at the
// session's chunking with one Results call per round up to the session's
// own decision horizon, and replay its wire schedule into a reassembler.
func (d *driver) probe(ctx context.Context, sample []*record) (*probeStats, error) {
	cfg := core.DefaultConfig()
	workers := runtime.GOMAXPROCS(0)
	det, err := detect.New(cfg.Detect)
	if err != nil {
		return nil, err
	}
	plans, err := dsp.NewPlanSet(cfg.Signal.Length)
	if err != nil {
		return nil, err
	}
	pool := detect.NewPool(workers)
	defer pool.Close()
	det.UsePool(pool)
	det.UsePlans(plans)
	if err := det.Prewarm(cfg.Signal, workers+1); err != nil {
		return nil, err
	}

	ps := &probeStats{}
	for _, r := range sample {
		// The session is opened only for its decision horizon, which sets
		// how many Results calls the stream probe makes.
		sess, err := d.svc.OpenSessionContext(ctx, r.req)
		if err != nil {
			return nil, fmt.Errorf("probe session %d: %w", r.idx, err)
		}
		var early [2]int
		for ri, role := range roles {
			early[ri] = sess.EarlyFeedLen(role)
		}
		sess.Close()

		sc, err := probeScene(cfg, r.req)
		if err != nil {
			return nil, fmt.Errorf("probe scene %d: %w", r.idx, err)
		}
		start := time.Now()
		out, err := sc.w.Render()
		if err != nil {
			return nil, err
		}
		ps.renderMS = append(ps.renderMS, ms(time.Since(start)))
		ps.sessions++
		var recs [2][]int16
		for ri, dev := range sc.devs {
			recs[ri] = out[dev].Samples
			early[ri] = min(early[ri], len(recs[ri]))
		}

		for ri := range roles {
			start := time.Now()
			res, err := det.DetectAllPCMContext(ctx, recs[ri], sc.sigs[0], sc.sigs[1])
			if err != nil {
				return nil, err
			}
			ps.batchMS = append(ps.batchMS, ms(time.Since(start)))
			ps.coarse += res[0].CoarseScanned
			ps.windows += res[0].CoarseScanned
			for _, x := range res {
				ps.windows += x.WindowsScanned - x.CoarseScanned
			}
		}

		switch d.w.mode {
		case feedPlain, feedFramed:
			if err := ps.streamProbe(ctx, det, sc, r.req, recs, early); err != nil {
				return nil, fmt.Errorf("probe stream %d: %w", r.idx, err)
			}
		}
		if d.w.mode == feedFramed {
			if err := ps.frameProbe(r.req, recs); err != nil {
				return nil, fmt.Errorf("probe frames %d: %w", r.idx, err)
			}
		}
	}
	return ps, nil
}

// streamProbe feeds both roles' detect.Streams in lockstep at the session's
// chunking and calls Results on both after every round, until both have
// reached the horizon early with nothing more needed — the calls a
// TryResult per round makes.
func (ps *probeStats) streamProbe(ctx context.Context, det *detect.Detector, sc *scene, req piano.AuthRequest, recs [2][]int16, early [2]int) error {
	var sts [2]*detect.Stream
	var chunks [2][]int
	for ri := range roles {
		var err error
		if sts[ri], err = det.NewStream(len(recs[ri]), sc.sigs[0], sc.sigs[1]); err != nil {
			return err
		}
		if chunks[ri], err = arrival.Chunks(chunkCfg, roleSeed(req, ri), len(recs[ri])); err != nil {
			return err
		}
	}
	var next [2]int
	var last [2]float64
	for {
		fedAny := false
		for ri, st := range sts {
			if next[ri] < len(chunks[ri]) {
				at := st.Fed()
				if err := st.Feed(ctx, recs[ri][at:at+chunks[ri][next[ri]]]); err != nil {
					return err
				}
				next[ri]++
				fedAny = true
			}
		}
		ready := true
		for ri, st := range sts {
			start := time.Now()
			_, need, err := st.Results(ctx)
			if err != nil {
				return err
			}
			ps.resultsCalls++
			ps.wastedMS += last[ri]
			last[ri] = ms(time.Since(start))
			ready = ready && need == 0 && st.Fed() >= early[ri]
		}
		if ready {
			ps.fineMS = append(ps.fineMS, last[0], last[1])
			ps.streamRoles += 2
			return nil
		}
		if !fedAny {
			return errors.New("undecided after the whole recording")
		}
	}
}

// frameProbe replays both roles' wire schedules into fresh reassemblers
// and times Reassembler.Add.
func (ps *probeStats) frameProbe(req piano.AuthRequest, recs [2][]int16) error {
	now := time.Now()
	for ri := range roles {
		evs, err := arrival.Wire(chunkCfg, wireCfg, roleSeed(req, ri), len(recs[ri]))
		if err != nil {
			return err
		}
		frames := make([]frame.Frame, len(evs))
		for k, ev := range evs {
			frames[k] = frame.New(ev.Seq, ev.Offset, recs[ri][ev.Offset:ev.Offset+ev.N])
		}
		ra, err := frame.NewReassembler(len(recs[ri]), 0)
		if err != nil {
			return err
		}
		start := time.Now()
		for _, f := range frames {
			if _, _, err := ra.Add(f, now); err != nil {
				return err
			}
		}
		ps.addTime += time.Since(start)
		ps.addCalls += len(frames)
	}
	return nil
}

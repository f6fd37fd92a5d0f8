package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/acoustic-auth/piano"
	"github.com/acoustic-auth/piano/internal/arrival"
)

var roles = [2]piano.Role{piano.RoleAuth, piano.RoleVouch}

// span is one traced call into the service, or the session around them.
// Times are offsets from the phase origin.
type span struct {
	Name       string
	Start, End time.Duration
	// Need is what a TryResult call returned: samples still needed, 0
	// once decided.
	Need int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// record is one session: its request, its outcome, and what it cost.
type record struct {
	idx int
	req piano.AuthRequest
	// start is when the session's first call into the service began, end
	// when the session resolved.
	start, end time.Duration

	dec *piano.Decision
	err error

	fed    int // samples fed before resolution, the max over roles
	tries  int // TryResult calls
	frames piano.FrameStats
	// spans holds the session span followed by one span per service call;
	// nil when the phase is not traced.
	spans []span
}

func (r *record) latency() time.Duration { return r.end - r.start }

// resolved reports whether the session ended in a decision or a typed
// error, as opposed to an error nobody classified.
func (r *record) resolved() bool { return r.err == nil || category(r.err) != "" }

// driver runs the sessions of one workload against one service.
type driver struct {
	svc    *piano.Service
	w      workload
	seed   int64
	traced bool
	origin time.Time
}

func (d *driver) now() time.Duration { return time.Since(d.origin) }

// call runs one service call, recording a span around it when traced.
func (d *driver) call(r *record, name string, f func()) {
	if !d.traced {
		f()
		return
	}
	s := d.now()
	f()
	r.spans = append(r.spans, span{Name: name, Start: s, End: d.now()})
}

// session runs r to resolution with the workload's feed mode.
func (d *driver) session(ctx context.Context, r *record) {
	if d.traced {
		r.spans = append(r.spans[:0], span{Name: "session"})
	}
	r.start = d.now()
	switch d.w.mode {
	case feedBatch:
		d.call(r, "AuthenticateContext", func() { r.dec, r.err = d.svc.AuthenticateContext(ctx, r.req) })
	case feedPlain:
		d.stream(ctx, r, false)
	case feedFramed:
		d.stream(ctx, r, true)
	}
	r.end = d.now()
	if d.traced {
		r.spans[0].Start, r.spans[0].End = r.start, r.end
	}
}

// stream runs one online session: each round hands every role its next
// chunk (plain) or wire event (framed), then asks for the decision. A
// framed role whose wire schedule is exhausted declares its feed finished,
// so unrepaired gaps become loss.
func (d *driver) stream(ctx context.Context, r *record, framed bool) {
	var sess *piano.AuthSession
	var err error
	d.call(r, "OpenSessionContext", func() { sess, err = d.svc.OpenSessionContext(ctx, r.req) })
	if err != nil {
		r.err = err
		return
	}
	defer sess.Close()
	var recs [2][]int16
	var chunks [2][]int
	var evs [2][]arrival.WireEvent
	for ri, role := range roles {
		recs[ri] = sess.Recording(role)
		if framed {
			evs[ri], err = arrival.Wire(chunkCfg, wireCfg, roleSeed(r.req, ri), len(recs[ri]))
		} else {
			chunks[ri], err = arrival.Chunks(chunkCfg, roleSeed(r.req, ri), len(recs[ri]))
		}
		if err != nil {
			r.err = err
			return
		}
	}
	var next, at [2]int
	var finished [2]bool
	defer func() {
		r.fed = max(sess.Fed(piano.RoleAuth), sess.Fed(piano.RoleVouch))
		if framed {
			a, v := sess.FrameStats(piano.RoleAuth), sess.FrameStats(piano.RoleVouch)
			r.frames = piano.FrameStats{Frames: a.Frames + v.Frames, Dups: a.Dups + v.Dups,
				Corrupt: a.Corrupt + v.Corrupt, Rejected: a.Rejected + v.Rejected, LostSamples: a.LostSamples + v.LostSamples}
		}
	}()
	for {
		fedAny := false
		for ri, role := range roles {
			var ferr error
			switch {
			case !framed && next[ri] < len(chunks[ri]):
				pcm := recs[ri][at[ri] : at[ri]+chunks[ri][next[ri]]]
				d.call(r, "Feed", func() { ferr = sess.Feed(role, pcm) })
				at[ri] += len(pcm)
			case framed && next[ri] < len(evs[ri]):
				ev := evs[ri][next[ri]]
				f := piano.NewFrame(ev.Seq, ev.Offset, recs[ri][ev.Offset:ev.Offset+ev.N])
				d.call(r, "FeedFrame", func() { ferr = sess.FeedFrame(role, f) })
			case framed && !finished[ri]:
				d.call(r, "FinishFeed", func() { ferr = sess.FinishFeed(role) })
				finished[ri] = true
				continue
			default:
				continue
			}
			if ferr != nil {
				r.err = ferr
				return
			}
			next[ri]++
			fedAny = true
		}
		var dec *piano.Decision
		var need int
		d.call(r, "TryResult", func() { dec, need, err = sess.TryResult() })
		r.tries++
		if d.traced {
			r.spans[len(r.spans)-1].Need = need
		}
		if err != nil {
			r.err = err
			return
		}
		if need == 0 {
			r.dec = dec
			return
		}
		if !fedAny && (!framed || finished[0] && finished[1]) {
			r.err = fmt.Errorf("session undecided after its whole feed (need %d samples)", need)
			return
		}
	}
}

// phase is one timed stretch of load and what it cost the process.
type phase struct {
	recs []*record
	// wall runs from the phase origin to the last resolution.
	wall       time.Duration
	cpu        time.Duration
	heapPeak   float64 // bytes: the median of the per-second peaks
	allocBytes uint64
	gcCycles   uint64
	// In end-to-end runs, setup is how long the service the phase ran on
	// took to set up, and refs are the reference samples taken after that
	// set-up and after the phase.
	setup time.Duration
	refs  [2]time.Duration
}

// run drives sessions [from, from+limit) — or, with limit 0, as many as
// start within dur — with one client per CPU, and measures the phase.
func (d *driver) run(ctx context.Context, from, limit int, dur time.Duration) *phase {
	runtime.GC()
	heap := startHeapSampler()
	cpu0 := cpuTime()
	m0 := readRuntime()
	d.origin = time.Now()
	recs := d.closedLoop(ctx, from, limit, dur)
	m1 := readRuntime()
	p := &phase{
		recs:       recs,
		cpu:        cpuTime() - cpu0,
		heapPeak:   heap.stop(),
		allocBytes: m1.allocBytes - m0.allocBytes,
		gcCycles:   m1.gcCycles - m0.gcCycles,
	}
	for _, r := range recs {
		p.wall = max(p.wall, r.end)
	}
	return p
}

func (d *driver) closedLoop(ctx context.Context, from, limit int, dur time.Duration) []*record {
	var next atomic.Int64
	next.Store(int64(from))
	var mu sync.Mutex
	var recs []*record
	var wg sync.WaitGroup
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if limit == 0 && d.now() >= dur {
					return
				}
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= from+limit {
					return
				}
				r := &record{idx: i, req: request(d.seed, i)}
				d.session(ctx, r)
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(recs, func(a, b int) bool { return recs[a].idx < recs[b].idx })
	return recs
}

// category names a typed terminal error, or "" for one nobody classified.
// Reap categories come before the context ones: a watchdog resolution is
// what the server decided, whatever the client saw.
func category(err error) string {
	switch {
	case errors.Is(err, piano.ErrSessionStalled):
		return "stalled"
	case errors.Is(err, piano.ErrSessionExpired):
		return "expired"
	case errors.Is(err, piano.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, piano.ErrClosed):
		return "closed"
	case errors.Is(err, piano.ErrInternal):
		return "internal"
	case errors.Is(err, piano.ErrInsufficientAudio):
		return "insufficient"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	}
	return ""
}

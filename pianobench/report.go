package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/acoustic-auth/piano"
	"github.com/acoustic-auth/piano/internal/world"
)

// warmupSeed generates the warm-up sessions of every set-up.
const warmupSeed = -1

func clients() int { return runtime.GOMAXPROCS(0) }

func newService() (*piano.Service, error) {
	cfg := piano.DefaultServiceConfig()
	cfg.ThresholdM = thresholdM
	return piano.NewService(cfg)
}

// tally folds a phase's sessions into outcome counts.
type tally struct {
	attempted, decided, degraded int
	refused                      int // typed ErrInsufficientAudio
	typedFailed                  int // every other typed error
	untyped                      int
	falseAccept, shouldDeny      int
	falseReject, shouldGrant     int
	tries                        int
	frames                       piano.FrameStats
	latMS, audioMS               []float64
}

func tallyOf(w workload, recs []*record) tally {
	cfg := world.DefaultConfig()
	var t tally
	for _, r := range recs {
		t.attempted++
		t.tries += r.tries
		t.frames.Frames += r.frames.Frames
		t.frames.Dups += r.frames.Dups
		t.frames.LostSamples += r.frames.LostSamples
		switch {
		case r.err == nil:
			t.decided++
			if r.dec.Degraded != nil {
				t.degraded++
			}
			if shouldGrant(r.req) {
				t.shouldGrant++
				if !r.dec.Granted {
					t.falseReject++
				}
			} else {
				t.shouldDeny++
				if r.dec.Granted {
					t.falseAccept++
				}
			}
		case category(r.err) == "insufficient":
			t.refused++
		case category(r.err) != "":
			t.typedFailed++
		default:
			t.untyped++
		}
		if r.resolved() {
			t.latMS = append(t.latMS, ms(r.latency()))
			audio := cfg.DurationSec * 1000
			if w.mode != feedBatch {
				audio = float64(r.fed) / cfg.SampleRate * 1000
			}
			t.audioMS = append(t.audioMS, audio)
		}
	}
	return t
}

// verdictProblems lists the oracle mismatches and unclassified errors.
func verdictProblems(vs []verdict, recs []*record) []string {
	var out []string
	for _, v := range vs {
		if v.mismatch != "" {
			out = append(out, "oracle mismatch: "+v.mismatch)
		}
	}
	for _, r := range recs {
		if !r.resolved() {
			out = append(out, fmt.Sprintf("session %d: error with no category: %v", r.idx, r.err))
		}
	}
	return out
}

func countMismatches(vs []verdict) int {
	n := 0
	for _, v := range vs {
		if v.mismatch != "" {
			n++
		}
	}
	return n
}

func (t tally) failedFrac(mismatches int) float64 {
	return frac(float64(t.refused+t.typedFailed+t.untyped+mismatches), float64(t.attempted))
}

// falseAcceptFrac is the share of decided sessions that should have been
// denied — the pair farther apart than τ or behind a wall — and were granted.
func (t tally) falseAcceptFrac() float64 {
	return frac(float64(t.falseAccept), float64(t.shouldDeny))
}

// falseRejectFrac is the share of decided sessions within τ in one room
// that were denied.
func (t tally) falseRejectFrac() float64 {
	return frac(float64(t.falseReject), float64(t.shouldGrant))
}

// outcome fills the fields every result carries, the outcome metrics the
// table shows, and the deterministic counts.
func outcome(w workload, t tally, vs []verdict, recs []*record) *result {
	mism := countMismatches(vs)
	res := &result{
		workload:  w.name,
		attempted: t.attempted,
		failed:    t.untyped + t.typedFailed + mism,
		problems:  verdictProblems(vs, recs),
	}
	res.correct = len(res.problems) == 0
	res.extra = []metric{
		{"failed_frac", "fraction", t.failedFrac(mism), t.attempted},
		{"false_accept_frac", "fraction", t.falseAcceptFrac(), t.shouldDeny},
		{"false_reject_frac", "fraction", t.falseRejectFrac(), t.shouldGrant},
		{"audio_needed_ms", "ms", quantile(t.audioMS, 0.5), len(t.audioMS)},
	}
	res.counts = map[string]float64{
		"try_calls":    float64(t.tries),
		"frames":       float64(t.frames.Frames),
		"dups":         float64(t.frames.Dups),
		"lost_samples": float64(t.frames.LostSamples),
	}
	for _, m := range res.extra {
		res.counts[m.name] = m.value
	}
	return res
}

// endToEnd reports a run of consecutive sub-phases. Latencies pool every
// resolved session of the run; throughput and CPU time divide the run's
// totals; the heap is the median of the sub-phases' peaks. Each sub-phase's
// times are scaled to the nominal host by its own reference samples, each
// set-up's by the sample right after it; the table shows them raw too.
func endToEnd(w workload, phases []*phase, vs []verdict) *result {
	var all []*record
	var lat, setups, scaledSetups, heaps, refUS []float64
	var wall, scaledWall, cpu, scaledCPU float64 // seconds, milliseconds
	for _, p := range phases {
		all = append(all, p.recs...)
		f := hostScale(p.refs[:]...)
		for _, r := range p.recs {
			if r.resolved() {
				lat = append(lat, ms(r.latency())*f)
			}
		}
		wall += p.wall.Seconds()
		scaledWall += p.wall.Seconds() * f
		cpu += ms(p.cpu)
		scaledCPU += ms(p.cpu) * f
		setups = append(setups, p.setup.Seconds())
		scaledSetups = append(scaledSetups, p.setup.Seconds()*hostScale(p.refs[0]))
		heaps = append(heaps, p.heapPeak/1e6)
		refUS = append(refUS, ms(p.refs[0])*1e3, ms(p.refs[1])*1e3)
	}
	t := tallyOf(w, all)
	res := outcome(w, t, vs, all)
	a := float64(t.attempted)
	resolved := len(t.latMS)
	res.metrics = []metric{
		{"sessions_per_s", "1/s", frac(float64(resolved), scaledWall), resolved},
		{"decision_p50_ms", "ms", quantile(lat, 0.5), resolved},
		{"decision_p90_ms", "ms", quantile(lat, 0.9), resolved},
		{"cpu_ms_per_session", "ms", frac(scaledCPU, a), t.attempted},
		{"heap_peak_mb", "MB", quantile(heaps, 0.5), len(phases)},
		{"decided_frac", "fraction", frac(float64(t.decided), a), t.attempted},
		{"correct_grant_frac", "fraction", frac(float64(t.decided-t.falseAccept-t.falseReject), float64(t.decided)), t.decided},
		{"setup_s", "s", quantile(scaledSetups, 0.5), len(setups)},
	}
	res.extra = append(res.extra,
		metric{"raw.sessions_per_s", "1/s", frac(float64(resolved), wall), resolved},
		metric{"raw.decision_p50_ms", "ms", quantile(t.latMS, 0.5), resolved},
		metric{"raw.decision_p90_ms", "ms", quantile(t.latMS, 0.9), resolved},
		metric{"raw.cpu_ms_per_session", "ms", frac(cpu, a), t.attempted},
		metric{"raw.setup_s", "s", quantile(setups, 0.5), len(setups)},
		metric{"host.ref_us", "us", quantile(refUS, 0.5), len(refUS)},
	)
	return res
}

func perLayer(w workload, plain, traced *phase, vs []verdict, ps *probeStats) *result {
	t := tallyOf(w, plain.recs)
	res := outcome(w, t, vs, plain.recs)
	tt := tallyOf(w, traced.recs)
	res.attempted += tt.attempted
	res.failed += tt.untyped + tt.typedFailed
	res.problems = append(res.problems, verdictProblems(nil, traced.recs)...)
	res.correct = len(res.problems) == 0
	a := float64(t.attempted)

	var wait []float64
	for _, v := range vs {
		if v.serial > 0 {
			wait = append(wait, ms(v.r.latency()-v.serial))
		}
	}

	// Span totals over the traced phase. A session's self time is its span
	// minus the service calls inside it: the client's own work.
	calls := map[string][]float64{}
	var wastedTry, self, inService time.Duration
	var tryCalls, decidingTries int
	for _, r := range traced.recs {
		own := r.spans[0].dur()
		for _, s := range r.spans[1:] {
			own -= s.dur()
			inService += s.dur()
			calls[s.Name] = append(calls[s.Name], ms(s.dur()))
			if s.Name == "TryResult" {
				tryCalls++
				if s.Need > 0 {
					wastedTry += s.dur()
				} else {
					decidingTries++
				}
			}
		}
		self += own
	}
	n := float64(len(traced.recs))
	sum := func(names ...string) float64 {
		total := 0.0
		for _, name := range names {
			for _, x := range calls[name] {
				total += x
			}
		}
		return total
	}
	overhead := frac(ms(traced.cpu)/n, ms(plain.cpu)/a) - 1

	res.metrics = []metric{
		{"loadgen.self_ms_per_session", "ms", frac(ms(self), n), len(traced.recs)},
		{"service.self_ms_per_session", "ms", frac(ms(inService), n), len(traced.recs)},
		{"service.wait_p50_ms", "ms", quantile(wait, 0.5), len(wait)},
		{"service.authenticate_p50_ms", "ms", quantile(calls["AuthenticateContext"], 0.5), len(calls["AuthenticateContext"])},
		{"service.open_p50_ms", "ms", quantile(calls["OpenSessionContext"], 0.5), len(calls["OpenSessionContext"])},
		{"service.feed_ms_per_session", "ms", frac(sum("Feed"), n), len(calls["Feed"])},
		{"service.feedframe_ms_per_session", "ms", frac(sum("FeedFrame", "FinishFeed"), n), len(calls["FeedFrame"])},
		{"service.try_calls_per_session", "count", frac(float64(tryCalls), n), tryCalls},
		{"service.try_wasted_ms_per_session", "ms", frac(ms(wastedTry), n), tryCalls - decidingTries},
		{"service.try_decide_ms", "ms", quantile(decidingOnly(traced.recs), 0.5), decidingTries},
		{"service.decisions_per_try", "ratio", frac(float64(decidingTries), float64(tryCalls)), tryCalls},
		{"service.audio_needed_ms", "ms", quantile(t.audioMS, 0.5), len(t.audioMS)},
		{"service.failed_frac", "fraction", t.failedFrac(countMismatches(vs)), t.attempted},
		{"service.false_accept_frac", "fraction", t.falseAcceptFrac(), t.shouldDeny},
		{"service.false_reject_frac", "fraction", t.falseRejectFrac(), t.shouldGrant},
		{"world.render_p50_ms", "ms", quantile(ps.renderMS, 0.5), len(ps.renderMS)},
		{"detect.batch_p50_ms", "ms", quantile(ps.batchMS, 0.5), len(ps.batchMS)},
		{"detect.coarse_windows_per_session", "count", frac(float64(ps.coarse), float64(ps.sessions)), ps.sessions},
		{"detect.windows_scanned_per_session", "count", frac(float64(ps.windows), float64(ps.sessions)), ps.sessions},
		{"detect.results_calls_per_role", "count", frac(float64(ps.resultsCalls), float64(ps.streamRoles)), ps.streamRoles},
		{"detect.results_wasted_ms_per_role", "ms", frac(ps.wastedMS, float64(ps.streamRoles)), ps.streamRoles},
		{"detect.fine_p50_ms", "ms", quantile(ps.fineMS, 0.5), len(ps.fineMS)},
		{"frame.add_us_per_frame", "us", frac(float64(ps.addTime)/float64(time.Microsecond), float64(ps.addCalls)), ps.addCalls},
		{"frame.frames_per_session", "count", frac(float64(t.frames.Frames), a), t.attempted},
		{"frame.dups_per_session", "count", frac(float64(t.frames.Dups), a), t.attempted},
		{"frame.lost_samples_per_session", "count", frac(float64(t.frames.LostSamples), a), t.attempted},
		{"frame.degraded_frac", "fraction", frac(float64(t.degraded), a), t.attempted},
		{"frame.refused_frac", "fraction", frac(float64(t.refused), a), t.attempted},
		{"runtime.alloc_kb_per_session", "KiB", frac(float64(plain.allocBytes)/1024, a), t.attempted},
		{"runtime.gc_per_session", "count", frac(float64(plain.gcCycles), a), t.attempted},
		{"trace.overhead_frac", "fraction", overhead, len(traced.recs)},
	}
	res.counts["coarse_windows"] = float64(ps.coarse)
	res.counts["windows_scanned"] = float64(ps.windows)
	res.counts["results_calls"] = float64(ps.resultsCalls)
	return res
}

// decidingOnly returns the durations of the TryResult calls that resolved
// their session.
func decidingOnly(recs []*record) []float64 {
	var out []float64
	for _, r := range recs {
		for _, s := range r.spans[1:] {
			if s.Name == "TryResult" && s.Need == 0 {
				out = append(out, ms(s.dur()))
			}
		}
	}
	return out
}

// spansDir is where traced runs write their spans, inside the checkout.
const spansDir = ".bench_build/spans"

// writeSpans writes the traced phase's spans as JSON lines: one per call,
// each naming its session and the session span that is its parent.
func writeSpans(o options, w workload, recs []*record) (err error) {
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed)))
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		ID      int    `json:"id"`
		Parent  int    `json:"parent,omitempty"`
		Session int    `json:"session"`
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		Need    int    `json:"need,omitempty"`
	}
	id := 0
	for _, r := range recs {
		root := id + 1
		for k, s := range r.spans {
			id++
			l := line{ID: id, Session: r.idx, Name: s.Name, StartNS: int64(s.Start), EndNS: int64(s.End), Need: s.Need}
			if k > 0 {
				l.Parent = root
			}
			if err := enc.Encode(l); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

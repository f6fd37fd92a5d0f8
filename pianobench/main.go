// Command pianobench is the repository's benchmark. It drives the public
// piano.Service API in-process on one named workload and prints, as its last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash pianobench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see workload.go), each with one closed-loop client per CPU:
// batch, whole-recording Authenticate calls; stream, 20 ms chunks fed to
// online sessions; stream-lossy, framed chunks over a seeded lossy wire.
// Every input is generated from --seed.
//
// --trace 0 measures the end-to-end metrics over --seconds of load, in ten
// consecutive sub-phases, each on a service set up just before it; setup_s
// is the median of the ten set-up times. Every reported time is scaled to a
// nominal host speed, measured by a reference kernel run before and after
// each sub-phase (see hostref.go); the table also shows the raw times.
// --trace 1 runs half the time untraced and half with a span around every
// call into the service, then probes the world, detect and frame layers
// serially on a seeded sample of the sessions, and prints the per-layer
// metrics; the spans go to .bench_build/spans/.
//
// Both modes check a seeded fifth of the sessions (at least 16) against a
// serial oracle outside the timed phases, and exit 1 on any mismatch or any error without
// a typed category. Run the determinism self-check with `go test` in this
// directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	// sessions fixes the number of sessions per timed phase instead of
	// running for seconds; the determinism self-check sets it.
	sessions int
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pianobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: batch, stream, stream-lossy, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&o.seconds, "seconds", 30, "length of the measured load, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run and per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(stderr, "pianobench: need --seconds ≥ 1 and --trace 0 or 1")
		return 2
	}
	var ws []workload
	if o.workload == "all" {
		ws = workloads
	} else {
		w, err := findWorkload(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "pianobench:", err)
			return 2
		}
		ws = []workload{w}
	}
	code := 0
	for _, w := range ws {
		res, err := measure(ctx, w, o)
		if err != nil {
			fmt.Fprintf(stderr, "pianobench: %s: %v\n", w.name, err)
			return 1
		}
		res.print(stdout)
		for _, p := range res.problems {
			fmt.Fprintf(stderr, "pianobench: %s: %s\n", w.name, p)
		}
		if !res.correct {
			code = 1
		}
	}
	return code
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	n     int // samples behind the value, for the human-readable table
}

// result is one workload's outcome.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	// metrics go into the JSON line; extra only into the table.
	metrics, extra []metric
	problems       []string
	// counts are the deterministic counts the self-check compares.
	counts map[string]float64
}

func (res *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s: %d attempted, %d failed, correct=%v\n", res.workload, res.attempted, res.failed, res.correct)
	for _, m := range append(res.metrics, res.extra...) {
		fmt.Fprintf(w, "  %-36s %14.4f %-8s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]jv{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = jv{m.value, m.unit}
	}
	buf, err := json.Marshal(out)
	if err != nil {
		panic(err) // only floats and strings: unreachable
	}
	fmt.Fprintf(w, "%s\n", buf)
}

// Run sizing.
const (
	subPhases = 10 // consecutive timed sub-phases per end-to-end run
	warmupPer = 1  // warm-up sessions per client in each set-up
	// One session in oracleShare, and at least oracleMin, is checked
	// against the serial oracle in each run.
	oracleShare = 5
	oracleMin   = 16
	probeN      = 6 // sessions the layer probes run on
)

func oracleSample(recs []*record, seed int64) []*record {
	return sampleRecords(recs, max(oracleMin, len(recs)/oracleShare), seed)
}

// setUp builds a service and warms it with a few sessions outside any
// measurement, returning the driver and how long that took. It collects
// the garbage first, so every set-up starts from the same heap. The k-th
// set-up's warm-up sessions come from warmupSeed, not the run's seed, so
// every run sets up with the same work.
func setUp(ctx context.Context, w workload, o options, k int) (*driver, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	svc, err := newService()
	if err != nil {
		return nil, 0, err
	}
	d := &driver{svc: svc, w: w, seed: warmupSeed, origin: time.Now()}
	n := warmupPer * clients()
	for _, r := range d.closedLoop(ctx, k*n, n, 0) {
		if !r.resolved() {
			svc.Close()
			return nil, 0, fmt.Errorf("warm-up session %d: %w", r.idx, r.err)
		}
	}
	took := time.Since(start)
	d.seed = o.seed
	return d, took, nil
}

func measure(ctx context.Context, w workload, o options) (*result, error) {
	dur := time.Duration(o.seconds) * time.Second
	if o.trace == 0 {
		// Each sub-phase runs on a service set up just before it, so the
		// set-ups are sampled across the run as the load is. The reference
		// kernel runs after each set-up and each sub-phase.
		var d *driver
		var phases []*phase
		var all []*record
		for k := 0; k < subPhases; k++ {
			if d != nil {
				d.svc.Close()
			}
			var took time.Duration
			var err error
			if d, took, err = setUp(ctx, w, o, k); err != nil {
				return nil, err
			}
			ref := refSample()
			p := d.run(ctx, len(all), o.sessions, dur/subPhases)
			p.setup, p.refs = took, [2]time.Duration{ref, refSample()}
			phases = append(phases, p)
			all = append(all, p.recs...)
		}
		defer d.svc.Close()
		vs, err := d.check(ctx, oracleSample(all, o.seed), false)
		if err != nil {
			return nil, err
		}
		return endToEnd(w, phases, vs), nil
	}

	d, _, err := setUp(ctx, w, o, 0)
	if err != nil {
		return nil, err
	}
	defer d.svc.Close()
	plain := d.run(ctx, 0, o.sessions, dur/2)
	// The traced half replays exactly the untraced half's sessions, so the
	// two phases do the same work and differ only by the tracing.
	d.traced = true
	traced := d.run(ctx, 0, len(plain.recs), dur/2)
	d.traced = false
	vs, err := d.check(ctx, oracleSample(plain.recs, o.seed), true)
	if err != nil {
		return nil, err
	}
	ps, err := d.probe(ctx, sampleRecords(plain.recs, probeN, o.seed+1))
	if err != nil {
		return nil, err
	}
	if err := writeSpans(o, w, traced.recs); err != nil {
		return nil, err
	}
	return perLayer(w, plain, traced, vs, ps), nil
}

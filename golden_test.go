package piano

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/acoustic-auth/piano/internal/audio"
	"github.com/acoustic-auth/piano/internal/detect"
	"github.com/acoustic-auth/piano/internal/sigref"
)

// updateGolden re-baselines testdata/decision_golden.json.
//
// Golden re-baseline procedure: the file pins the exact bits of end-to-end
// decisions and of the detection engine's results, so it must only change
// when a PR deliberately changes the floating-point arithmetic of a
// decision (a new summation order, a new FFT schedule). Such a change must
// (1) keep every determinism and exactness test green first, then
// (2) re-record the baseline explicitly:
//
//	go test . -run TestDecisionGolden -update
//
// and (3) call out the re-baseline in CHANGES.md and PERFORMANCE.md. A
// refactor (moving code, sharing a fold, deleting a path) must pass this
// test unchanged; a golden diff without a deliberate arithmetic change is a
// regression.
var updateGolden = flag.Bool("update", false, "re-baseline the golden decision bits in testdata/")

const decisionGoldenPath = "testdata/decision_golden.json"

// goldenRequests is the pinned service workload: device pairs staggered
// 0.3–1.65 m around the 1 m threshold with distinct skews and seeds; slot 3
// of every ten puts the vouching device behind a wall and slot 7 adds an
// interfering PIANO user.
func goldenRequests() []AuthRequest {
	reqs := make([]AuthRequest, 60)
	for i := range reqs {
		reqs[i] = AuthRequest{
			Auth:  DeviceSpec{Name: "hub", X: 0, Y: 0, ClockSkewPPM: float64(5 + i%25)},
			Vouch: DeviceSpec{Name: "watch", X: 0.3 + 0.15*float64(i%10), Y: 0.05, ClockSkewPPM: -float64(3 + i%20)},
			Seed:  int64(1000 + i),
		}
		switch i % 10 {
		case 3:
			reqs[i].Vouch.Room = 1
		case 7:
			reqs[i].Interferers = []DeviceSpec{{Name: "colleague", X: 2.0, Y: 1.5}}
		}
	}
	return reqs
}

// decisionBits renders a decision with its floats as raw IEEE-754 bits, so
// the golden comparison is bit-exact.
func decisionBits(d *Decision) string {
	return fmt.Sprintf("granted=%t reason=%q distance=%016x auth_time=%016x",
		d.Granted, d.Reason.String(), math.Float64bits(d.DistanceM), math.Float64bits(d.AuthTimeSec))
}

// resultBits renders detection results with Power as raw bits.
func resultBits(rs []detect.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = fmt.Sprintf("found=%t location=%d power=%016x windows=%d coarse=%d",
			r.Found, r.Location, math.Float64bits(r.Power), r.WindowsScanned, r.CoarseScanned)
	}
	return out
}

// goldenRecording builds a deterministic ~1.2 s two-signal capture over a
// faint wideband floor; with planted2 false the second signal is absent, so
// the ⊥ path is pinned too.
func goldenRecording(t *testing.T, seed int64, planted2 bool) ([]float64, []*sigref.Signal) {
	t.Helper()
	const total = 52920
	rng := rand.New(rand.NewSource(seed))
	sigs := make([]*sigref.Signal, 2)
	for i := range sigs {
		s, err := sigref.New(sigref.DefaultParams(), rng)
		if err != nil {
			t.Fatal(err)
		}
		sigs[i] = s
	}
	rec := make([]float64, total)
	for i := range rec {
		rec[i] = 40 * rng.NormFloat64()
	}
	plant := func(s *sigref.Signal, at int, gain float64) {
		for i, v := range s.Samples() {
			rec[at+i] += gain * v
		}
	}
	plant(sigs[0], 7777, 0.5)
	if planted2 {
		plant(sigs[1], 31234, 0.35)
	}
	return rec, sigs
}

// TestDecisionGolden pins the exact decisions of a seeded service workload
// and the exact results of the batch detection engine (float and PCM
// ingestion) against testdata/decision_golden.json. It is the external
// oracle for refactors of the detection fold: tests that compare batch with
// streaming stop being independent once both share one engine, this file
// does not.
func TestDecisionGolden(t *testing.T) {
	got := map[string][]string{}

	svc, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i, req := range goldenRequests() {
		dec, err := svc.Authenticate(req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		got["service"] = append(got["service"], decisionBits(dec))
	}

	det, err := detect.New(detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		seed     int64
		planted2 bool
	}{{"rec_both", 41, true}, {"rec_one_absent", 42, false}} {
		rec, sigs := goldenRecording(t, tc.seed, tc.planted2)
		fl, err := det.DetectAll(rec, sigs...)
		if err != nil {
			t.Fatal(err)
		}
		pcm, err := det.DetectAllPCM(audio.FromFloat(rec), sigs...)
		if err != nil {
			t.Fatal(err)
		}
		got[tc.name+"/float"] = resultBits(fl)
		got[tc.name+"/pcm"] = resultBits(pcm)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(decisionGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(decisionGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("re-baselined %s", decisionGoldenPath)
		return
	}

	data, err := os.ReadFile(decisionGoldenPath)
	if err != nil {
		t.Fatalf("read golden baseline (run with -update to record it): %v", err)
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for key, w := range want {
		g := got[key]
		if len(g) != len(w) {
			t.Errorf("%s: %d entries, golden %d", key, len(g), len(w))
			continue
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("%s[%d]: %s, golden %s — see the re-baseline procedure above", key, i, g[i], w[i])
			}
		}
	}
	if !reflect.DeepEqual(keys(got), keys(want)) {
		t.Errorf("golden keys %v, computed %v; run with -update", keys(want), keys(got))
	}
}

func keys(m map[string][]string) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

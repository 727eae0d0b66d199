package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// buildRipsd compiles the daemon the HTTP workloads start.
func buildRipsd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ripsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ripsd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build ripsd: %v\n%s", err, out)
	}
	return bin
}

// invoke runs the benchmark at its smallest setting and decodes the
// result line.
func invoke(t *testing.T, ripsd string, args ...string) (result, string) {
	t.Helper()
	var out bytes.Buffer
	base := []string{"-seconds", "0.5", "-setup-reps", "1", "-ladder", "10,12",
		"-ripsd", ripsd, "-out", t.TempDir()}
	if code := run(append(base, args...), &out); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	return res, out.String()
}

// TestEveryMetricPrinted runs each workload of BENCHMARK.json, and the
// ungated ripsd-mixed, untraced and traced, and checks that the result
// line carries exactly the metrics BENCHMARK.json names, each with its
// unit, and that every job was checked and correct.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs every workload")
	}
	spec := loadSpec(t)
	ripsd := buildRipsd(t)
	names := []string{"ripsd-mixed"}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				res, out := invoke(t, ripsd, "-workload", name, "-trace", trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case trace == "0" && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want a positive measurement", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestWrongAnswerReported expects a wrong answer for one app and
// checks that its jobs are reported as failed, with their spec, in
// process and over HTTP: the answer check is live on both paths.
func TestWrongAnswerReported(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	ripsd := buildRipsd(t)
	for _, tc := range []struct{ workload, key string }{
		{"inproc-nq14", "nq/14"},
		{"ripsd-mixed", "nq/11"},
	} {
		res, out := invoke(t, ripsd, "-workload", tc.workload, "-corrupt-expect", tc.key)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with a wrong %s answer: correct=%v failed=%d\n%s", tc.workload, tc.key, res.Correct, res.Failed, out)
		}
		if !strings.Contains(out, "# FAILED") || !strings.Contains(out, "want") {
			t.Errorf("%s: failures not printed\n%s", tc.workload, out)
		}
	}
}

// TestSetMetrics checks the benchmark's own metric tables against
// BENCHMARK.json, so the two cannot drift apart.
func TestSetMetrics(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.EndToEnd) != len(e2eMetrics) || len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, perfbench %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(e2eMetrics), len(layerMetrics))
	}
	for i, m := range e2eMetrics {
		if spec.EndToEnd[i].Name != m.name || spec.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %s %s, perfbench has %s %s", i, spec.EndToEnd[i].Name, spec.EndToEnd[i].Unit, m.name, m.unit)
		}
	}
	for i, m := range layerMetrics {
		if spec.PerLayer[i].Name != m.name || spec.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %s %s, perfbench has %s %s", i, spec.PerLayer[i].Name, spec.PerLayer[i].Unit, m.name, m.unit)
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
}

func TestQuantileAndHistogram(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	// Harrell-Davis: symmetric data has its median at the centre, and a
	// quantile stays inside the data's range and increases with q.
	if got := hdQuantile([]float64{5, 1, 4, 2, 3}, 0.5); math.Abs(got-3) > 1e-9 {
		t.Errorf("Harrell-Davis median of 1..5 = %v, want 3", got)
	}
	xs := []float64{1, 1, 1, 10, 10, 10, 10, 50, 50, 100}
	p50, p90 := hdQuantile(xs, 0.5), hdQuantile(xs, 0.9)
	if !(1 < p50 && p50 < p90 && p90 < 100) {
		t.Errorf("Harrell-Davis p50 %v, p90 %v outside the data or out of order", p50, p90)
	}
	if got := betaInc(2, 3, 0.4); math.Abs(got-0.5248) > 1e-9 {
		t.Errorf("I_0.4(2,3) = %v, want 0.5248", got)
	}
	text := `ripsd_x_bucket{lane="low",le="0.1"} 2
ripsd_x_bucket{lane="low",le="1"} 4
ripsd_x_bucket{lane="low",le="+Inf"} 4
ripsd_x_count{lane="low"} 4
ripsd_x_bucket{lane="high",le="0.1"} 0
ripsd_x_bucket{lane="high",le="1"} 0
ripsd_x_bucket{lane="high",le="+Inf"} 0
ripsd_x_count{lane="high"} 0
`
	h := parseHistogram(text, "ripsd_x")
	if h.count != 4 || len(h.bounds) != 2 {
		t.Fatalf("parsed %+v", h)
	}
	if got := h.quantile(0.5); got != 0.1 {
		t.Errorf("p50 = %v, want 0.1 (the second of four samples ends the first bucket)", got)
	}
	if got := h.since(h).count; got != 0 {
		t.Errorf("delta of a histogram with itself has %v samples", got)
	}
}

// TestSpeedupFromBracketingMarks checks that a job's Ts is the mean of
// the two marks around its block, and that speedup is summed Ts over
// summed wall with cache hits left out and omitted when oversubscribed.
func TestSpeedupFromBracketingMarks(t *testing.T) {
	k := appKey{"nq", 13}
	c := newSeqClock(nil, []appKey{k}, 2)
	for _, d := range []time.Duration{100, 200, 400} {
		c.marks = append(c.marks, map[appKey]time.Duration{k: d})
	}
	for rot, want := range []time.Duration{150, 150, 300, 300} {
		if got := c.ts(k, rot); got != want {
			t.Errorf("Ts of rotation %d = %v, want %v", rot, got, want)
		}
	}
	good := []sample{
		{group: "rips", latency: 50, wall: 40, ts: 80},
		{group: "rips", latency: 70, wall: 60, ts: 60},
		{latency: 1}, // a cache hit has no run
	}
	rep := newReport()
	endToEnd(rep, good, time.Second, usage{})
	if got := rep.e2e["speedup"].Value; got != 1.4 {
		t.Errorf("speedup = %v, want (80+60)/(40+60) = 1.4", got)
	}
	if got := rep.e2e["speedup.rips"].Value; got != 1.5 {
		t.Errorf("speedup.rips = %v, want the median of 2 and 1", got)
	}
	if got := rep.e2e["jobs_per_s"].Value; got != 3 {
		t.Errorf("jobs_per_s = %v, want 3", got)
	}
	rep = newReport()
	rep.oversubscribed = true
	endToEnd(rep, good, time.Second, usage{})
	if _, ok := rep.e2e["speedup"]; ok {
		t.Error("speedup reported for an oversubscribed run")
	}
}

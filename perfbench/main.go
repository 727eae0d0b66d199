// Command perfbench is the repository benchmark. One invocation runs
// one workload for a fixed window and prints every metric by name and
// unit; the last line of standard output is a JSON object with the
// keys correct, attempted, failed and metrics. Build and run it with
//
//	bash perfbench/run.sh --workload inproc-ida --seed 1 --seconds 20 --trace 0
//
// from the repository root. With --trace 0 the metrics are the
// end-to-end ones, measured untraced; with --trace 1 the run repeats
// its window with tracing on and reports the per-layer metrics, a
// per-layer self-time table and the tracing overhead. README.md in this
// directory maps each layer metric to the end-to-end metric it should
// move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options is one invocation's settings.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	ripsd     string
	outDir    string
	setupReps int
	ladder    []float64
	corrupt   string // app key whose expected answer is made wrong
}

func (o *options) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// e2eMetrics are the end-to-end metrics every workload reports in its
// result line, with their units; BENCHMARK.json gates exactly these.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"jobs_per_s", "1/s"},
	{"speedup", "x"},
	{"cpu_ms_per_job", "ms"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are the per-layer metrics of a traced run that
// BENCHMARK.json names. A workload that bypasses a layer reports 0 for
// that layer's metrics. ripsd-mixed, which is not gated, also prints
// the tenant and serve metrics only it moves: the high and low lanes,
// preemptions, cache hits, refusals, the backlog and the phase
// latency of ripsd's own pool.
var layerMetrics = []struct{ name, unit string }{
	{"apps.seq_ns_per_task", "ns"},
	{"apps.tasks_per_job", "count"},
	{"rips.api_us_per_job", "us"},
	{"par.rips.wall_ms_p50", "ms"},
	{"par.rips.busy_frac", "ratio"},
	{"par.rips.idle_frac", "ratio"},
	{"par.rips.nonlocal_frac", "ratio"},
	{"par.rips.overhead_frac", "ratio"},
	{"par.rips.phases_per_job", "count"},
	{"par.rips.useful_phase_frac", "ratio"},
	{"par.rips.phase_gap_ms_p50", "ms"},
	{"par.hybrid.wall_ms_p50", "ms"},
	{"par.hybrid.busy_frac", "ratio"},
	{"par.hybrid.idle_frac", "ratio"},
	{"par.hybrid.nonlocal_frac", "ratio"},
	{"par.hybrid.overhead_frac", "ratio"},
	{"par.hybrid.phases_per_job", "count"},
	{"par.hybrid.useful_phase_frac", "ratio"},
	{"par.hybrid.phase_gap_ms_p50", "ms"},
	{"par.hybrid.steals_per_job", "count"},
	{"par.steal.wall_ms_p50", "ms"},
	{"par.steal.busy_frac", "ratio"},
	{"par.steal.idle_frac", "ratio"},
	{"par.steal.nonlocal_frac", "ratio"},
	{"par.steal.steals_per_job", "count"},
	{"tenant.admit_wait_ms_p50", "ms"},
	{"tenant.admit_wait_ms_p99", "ms"},
	{"tenant.lane_ms_p50.normal", "ms"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.submit_ms_p99", "ms"},
	{"serve.run_overhead_ms_p50", "ms"},
	{"serve.notify_ms_p50", "ms"},
	{"cluster.wall_ms_p50", "ms"},
	{"cluster.forward_ms_p50", "ms"},
	{"cluster.phases_per_job", "count"},
	{"cluster.nonbusy_us_per_phase", "us"},
	{"cluster.busy_frac", "ratio"},
	{"cluster.nonlocal_frac", "ratio"},
	{"cluster.members_min", "count"},
	{"trace.overhead_frac", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *options, *procs) (*report, error){
	"inproc-ida":    runInprocIDA,
	"inproc-nq14":   runInprocNQ14,
	"ripsd-mixed":   runRipsdMixed,
	"cluster-2node": runCluster,
}

// report is what a workload measured.
type report struct {
	e2e            map[string]metric // gated metrics plus the workload's own
	layer          map[string]metric
	notes          []string
	attempted      int
	failed         int
	failures       []string
	tracer         *tracer
	tracedJobs     int
	oversubscribed bool
	workers        int
	domains        int
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// fail records one failed job with what it was.
func (r *report) fail(what string, err error) {
	r.failed++
	if len(r.failures) < 50 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run executes one invocation, writing the report to stdout, and
// returns the exit code.
func run(args []string, stdout io.Writer) int {
	o, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A run must end well inside three minutes; a wedged server must
	// not hold it longer.
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ps := &procs{logDir: o.outDir}
	defer ps.killAll()

	total0, steal0, hostErr := hostTicks()
	rep, err := workloads[o.workload](ctx, o, ps)
	ps.killAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	// Steal slows every time metric on a shared host; noting it lets a
	// reader tell a slow host from a slow program.
	if total1, steal1, err := hostTicks(); hostErr == nil && err == nil && total1 > total0 {
		rep.note("host steal %.1f%% of this machine's CPU time over the run", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	out, err := render(stdout, o, rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "workload to run: inproc-ida, inproc-nq14, ripsd-mixed or cluster-2node")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1 runs the window twice, untraced then traced, and reports the per-layer metrics")
	fs.StringVar(&o.ripsd, "ripsd", ".bench_build/bin/ripsd", "ripsd binary for the HTTP workloads")
	fs.StringVar(&o.outDir, "out", ".bench_build/perfbench", "directory for server logs and span dumps")
	fs.IntVar(&o.setupReps, "setup-reps", 3, "set-ups per run; setup_s is their median")
	ladder := fs.String("ladder", "10,13,16,19", "ripsd-mixed: comma-separated ladder of fixed rates in jobs/s")
	fs.StringVar(&o.corrupt, "corrupt-expect", "", "self-test hook: expect a wrong answer for this app key (e.g. nq/13), proving the answer check is live")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloads[o.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	switch *traceFlag {
	case 0, 1:
		o.trace = *traceFlag == 1
	default:
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	if o.seconds <= 0 || o.setupReps < 1 {
		return nil, errors.New("--seconds and --setup-reps must be positive")
	}
	for _, f := range strings.Split(*ladder, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad --ladder rate %q", f)
		}
		o.ladder = append(o.ladder, r)
	}
	return o, nil
}

// labels describe the host and run, so a number is never read without
// the machine it came from.
func labels(o *options, rep *report) map[string]string {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]string{
		"workload":       o.workload,
		"seed":           strconv.FormatInt(o.seed, 10),
		"trace":          strconv.FormatBool(o.trace),
		"nproc":          strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":     strconv.Itoa(runtime.GOMAXPROCS(0)),
		"workers":        strconv.Itoa(rep.workers),
		"domains":        strconv.Itoa(rep.domains),
		"go":             runtime.Version(),
		"commit":         commit,
		"oversubscribed": strconv.FormatBool(rep.oversubscribed),
	}
}

// render prints the human-readable report and returns the result line.
func render(w io.Writer, o *options, rep *report) (result, error) {
	lab := labels(o, rep)
	keys := make([]string, 0, len(lab))
	for k := range lab {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# perfbench")
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, lab[k])
	}
	fmt.Fprintln(w, b.String())
	for _, n := range rep.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(w, "# FAILED", f)
	}
	printMetrics(w, "end_to_end", rep.e2e)
	out := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	if !o.trace {
		for _, m := range e2eMetrics {
			v, ok := rep.e2e[m.name]
			if !ok {
				if m.name == "speedup" && rep.oversubscribed {
					continue // no parallel speedup is claimed from an oversubscribed host
				}
				return result{}, fmt.Errorf("workload %s did not measure %s", o.workload, m.name)
			}
			out.Metrics[m.name] = v
		}
		return out, nil
	}
	for _, m := range layerMetrics {
		if _, ok := rep.layer[m.name]; !ok {
			rep.layer[m.name] = metric{Value: 0, Unit: m.unit}
		}
		out.Metrics[m.name] = rep.layer[m.name]
	}
	printMetrics(w, "per_layer", rep.layer)
	if rep.tracer != nil {
		rep.tracer.writeSelfTimes(w, rep.tracedJobs)
		path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := rep.tracer.dump(path, lab); err != nil {
			return result{}, fmt.Errorf("span dump: %w", err)
		}
		fmt.Fprintf(w, "# spans written to %s\n", path)
	}
	return out, nil
}

func printMetrics(w io.Writer, title string, set map[string]metric) {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s:\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "#   %-30s %14.6g %s\n", n, set[n].Value, set[n].Unit)
	}
}

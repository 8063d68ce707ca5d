// Command perfbench is the repository benchmark. It runs one named
// workload in-process for a fixed time, checks the program's outputs, and
// prints two JSON lines, a detail line and then the result:
//
//	bash perfbench/run.sh --workload paper-replay --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced runs; with
// --trace 1 it reports per-layer metrics from a traced run (CPU profile
// charged to repository modules, telemetry work counters, store spans).
// See README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// maxProcs bounds the scheduler threads: the workloads are sized for a
// 2-CPU host, and the kvstore workload opens one connection per node.
const maxProcs = 2

// setupRuns is how many set-ups a run times for setup_s, back to back
// before the first step.
const setupRuns = 31

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is printed on the line before the result: the host fingerprint,
// sample counts behind each reported statistic, and the output digest.
type detail struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Host     hostInfo       `json:"host"`
	Samples  map[string]int `json:"samples"`
	Digest   string         `json:"digest,omitempty"`
	Ledger   any            `json:"ledger,omitempty"`
	Problems []string       `json:"problems,omitempty"`
}

// endToEnd lists the untraced metrics every workload reports, with units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"step_p50_ms", "ms"},
	{"cpu_s", "s"},
	{"alloc_bytes", "B"},
	{"alloc_objects", "count"},
	{"max_rss_bytes", "B"},
}

// cpuLayers are the repository modules whose CPU the traced run reports.
var cpuLayers = []string{
	"dynim", "knn", "parallel", "vclock", "sched", "maestro", "cluster", "core",
	"campaign", "profile", "datastore", "faults", "retry", "wmfleet", "telemetry",
	"feedback", "kvstore", "sim", "continuum", "patch", "stats", "units",
}

// perLayer lists every traced metric with its unit. A workload that does
// not exercise a layer reports 0 for it.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	for _, l := range cpuLayers {
		add("s", l+".cpu_s")
	}
	add("s", "runtime.gc_cpu_s", "runtime.other_cpu_s", "dynim.refresh_cpu_s", "checkpoint.cpu_s")
	add("count", "dynim.candidates", "dynim.selected", "dynim.select_calls", "dynim.rank_refreshes")
	add("ratio", "dynim.select_yield")
	add("count", "sched.submitted", "sched.started", "sched.completed", "sched.failed",
		"sched.canceled", "sched.matches", "sched.match_blocked", "sched.match_visits", "sched.match_success")
	add("count", "core.polls", "core.sims_launched", "core.sims_failed", "core.setups_launched",
		"core.feedback_runs", "core.feedback_skipped", "core.feedback_failed")
	add("count", "datastore.ops")
	add("B", "datastore.read_bytes", "datastore.write_bytes")
	add("count", "datastore.errors", "datastore.retries", "datastore.gaveup")
	add("ratio", "datastore.useful_frac")
	add("count", "faults.injected", "wmfleet.crashes", "wmfleet.adoptions", "wmfleet.lease_acquired",
		"wmfleet.lease_renewals", "wmfleet.lease_expirations", "runtime.gc_cycles")
	add("ratio", "trace.overhead_frac")
	add("count", "kvstore.put_ops")
	add("s", "kvstore.put_s")
	add("count", "kvstore.keys_ops")
	add("s", "kvstore.keys_s")
	add("ratio", "kvstore.keys_growth")
	add("s", "kvstore.get_batch_s", "kvstore.move_batch_s")
	add("B", "kvstore.read_bytes", "kvstore.write_bytes")
	add("count", "kvstore.errors")
	add("us", "kvstore.put_p50_us", "kvstore.put_p99_us")
	add("s", "feedback.self_s")
	add("count", "feedback.frames")
	add("ratio", "feedback.useful_frac")
	add("ms", "feedback.iter_p50_ms", "feedback.iter_p90_ms")
	return out
}()

// run is what a workload's measurement produced: metric values by name,
// the sample counts behind them, and the outcome of the output checks.
type run struct {
	values    map[string]float64
	samples   map[string]int
	attempted int
	failed    int
	digest    string
	ledger    any // the first replay's ledger, whose digest is reported
	problems  []string
}

func newRun() *run {
	return &run{values: map[string]float64{}, samples: map[string]int{}}
}

// fail records a failed check; the run stays incorrect.
func (r *run) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workload runs for the given time and fills a run. traced selects the
// per-layer measurement.
type workload func(seed int64, limit time.Duration, traced bool) (*run, error)

var workloads = map[string]workload{
	"paper-replay": replayWorkload(paperReplay),
	"fleet-chaos":  replayWorkload(fleetChaos),
	"feedback-kv":  feedbackKV,
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-replay, fleet-chaos or feedback-kv")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {paper-replay|fleet-chaos|feedback-kv}, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))

	r, err := w(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	catalog := endToEnd
	if *trace == 1 {
		catalog = perLayer
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range catalog {
		res.Metrics[m.name] = metric{Value: r.values[m.name], Unit: m.unit}
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *name, p)
	}
	d := detail{Workload: *name, Seed: *seed, Trace: *trace == 1, Host: fingerprint(),
		Samples: r.samples, Digest: r.digest, Ledger: r.ledger, Problems: r.problems}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(d); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// timeSetups times setup setupRuns times and returns the median in
// seconds. The teardown that setup returns, if any, runs untimed.
func timeSetups(setup func() (teardown func(), err error)) (float64, error) {
	xs := make([]float64, setupRuns)
	for i := range xs {
		t := time.Now()
		teardown, err := setup()
		xs[i] = time.Since(t).Seconds()
		if err != nil {
			return 0, err
		}
		if teardown != nil {
			teardown()
		}
	}
	return median(xs), nil
}

// budget ends a closed loop before a further step would overrun the
// measuring time, judging by the mean step so far. The first step always
// runs.
type budget struct {
	start time.Time
	limit time.Duration
	steps int
}

func newBudget(limit time.Duration) *budget { return &budget{start: time.Now(), limit: limit} }

// more reports whether to start another step.
func (b *budget) more() bool {
	if b.steps > 0 {
		el := time.Since(b.start)
		if el+el/time.Duration(b.steps) > b.limit {
			return false
		}
	}
	b.steps++
	return true
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

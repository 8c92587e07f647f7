// Command perfbench is the repository benchmark. It generates one named
// workload from a seed, drives it in-process through the public entry
// points of the internal packages, checks the outputs, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	perfbench -workload paper-suite|fleet-durable|http-routed -seed N -seconds S -trace 0|1
//
// A workload is a fixed operation sequence derived from the seed; the
// benchmark replays it in identical rounds until the time is up, so
// admission outcomes are deterministic and double as output checks.
// README.md explains why each workload exists and which end-to-end
// metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in report order. Every
// workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"accept_rate", "ratio"},
	{"energy_per_job_j", "J"},
	{"energy_rel_exmem", "ratio"},
	{"recovery_s", "s"},
	{"allocs_per_op", "allocs"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run, in report order. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"loadgen.open_p50_us", "us"},
	{"loadgen.open_p99_us", "us"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.trace_overhead_pct", "%"},
	{"loadgen.selfsum_err_pct", "%"},
	{"httpapi.edge_self_p50_us", "us"},
	{"httpapi.node_self_p50_us", "us"},
	{"httpapi.bytes_per_op", "bytes"},
	{"router.hop_p50_us", "us"},
	{"router.hop_p99_us", "us"},
	{"fleet.service_p50_us", "us"},
	{"fleet.service_p99_us", "us"},
	{"fleet.self_us_per_op", "us"},
	{"fleet.max_queue_depth", "count"},
	{"fleet.batch_share", "ratio"},
	{"fleet.watch_dropped", "count"},
	{"rm.activations_per_submit", "ratio"},
	{"rm.accepted", "count"},
	{"rm.rejected", "count"},
	{"rm.completed", "count"},
	{"rm.cancelled", "count"},
	{"rm.deadline_misses", "count"},
	{"schedcache.hit_rate", "ratio"},
	{"schedcache.repacks", "count"},
	{"core.solve_p50_us", "us"},
	{"core.solve_p99_us", "us"},
	{"core.solve_share", "ratio"},
	{"lagrange.solve_p50_us", "us"},
	{"exmem.solve_p50_us", "us"},
	{"exmem.solve_p99_us", "us"},
	{"exmem.share_of_suite_s", "ratio"},
	{"exmem.budget_share", "ratio"},
	{"durable.appends_per_s", "1/s"},
	{"durable.catchup_s", "s"},
	{"durable.wal_lag_max_events", "count"},
	{"durable.fsync_p99_us", "us"},
	{"durable.bytes_per_event", "bytes"},
	{"durable.snapshot_bytes", "bytes"},
	{"durable.recovery_events_per_s", "1/s"},
	{"durable.rescues", "count"},
	{"dse.library_s", "s"},
	{"process.gc_cycles", "count"},
	{"process.heap_peak_mb", "MiB"},
}

// extraSetups is how many more times each round sets the workload's
// system up and tears it down again, only to time the set-up: set-up
// takes milliseconds, and its median over few samples is unsteady.
const extraSetups = 4

// config is one benchmark invocation.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// scratch is the directory the durable workload writes its data
	// directories under.
	scratch string
	// scale multiplies the per-round operation counts; 1 is the
	// benchmark, tests use less.
	scale float64
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	// failures lists every output check that did not hold.
	failures []string
	// values holds the end-to-end metrics of the untraced rounds and, on
	// a traced run, the per-layer metrics.
	values map[string]float64
	// outcome fingerprints round 0's per-operation outcomes (verdicts,
	// job ids, cancellations) and energy its total energy; every later
	// round must repeat both.
	outcome uint64
	energy  float64
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*result, error){
	"paper-suite":   runPaperSuite,
	"fleet-durable": runFleetDurable,
	"http-routed":   runHTTPRouted,
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-suite, fleet-durable or http-routed")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	scratch := flag.String("scratch", ".bench_build", "directory for the benchmark's temporary data")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	scr, err := filepath.Abs(*scratch)
	if err == nil {
		err = os.MkdirAll(scr, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	info, _ := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Seconds  int    `json:"seconds"`
		Trace    int    `json:"trace"`
		Host     host   `json:"host"`
	}{*name, *seed, *seconds, *trace, fingerprint()})
	fmt.Println(string(info))

	res, err := run(config{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		scratch: scr, scale: 1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	out, err := report(res, defs, *trace == 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	fmt.Println(string(out))
	if len(res.failures) > 0 {
		os.Exit(1)
	}
}

// report renders the result line. With requireAll, every metric must
// have been measured; otherwise a metric not measured (a layer the
// workload does not exercise) reports 0.
func report(res *result, defs []metricDef, requireAll bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok && requireAll {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.failures) == 0, res.attempted, res.failed, metrics})
}

// minRounds is the least number of rounds a run makes, however long
// they take: round 0 is a warm-up whose timings are discarded, and a
// traced run needs an untraced and a traced round after it.
const minRounds = 3

// measure runs round until at least minRounds rounds have run and the
// measuring time is spent, passing each result through settle. Round 0
// is the warm-up; the other rounds come back sorted into untraced and
// traced ones. With tracing on, rounds alternate untraced and traced
// (starting untraced), so one run measures the tracing overhead too; a
// traced round gets a recorder, an untraced one nil.
func measure[R any](cfg config, round func(i int, rec *recorder) (R, error), settle func(i int, r R) error) (plain, traced []R, err error) {
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start) < cfg.seconds; i++ {
		var rec *recorder
		if cfg.trace && i%2 == 1 {
			rec = newRecorder()
		}
		r, err := round(i, rec)
		if err != nil {
			return nil, nil, err
		}
		if err := settle(i, r); err != nil {
			return nil, nil, err
		}
		switch {
		case i == 0:
		case rec != nil:
			traced = append(traced, r)
		default:
			plain = append(plain, r)
		}
	}
	return plain, traced, nil
}

// timed returns how long f takes, in seconds. It collects garbage
// first, so that a collection owed by earlier work does not land inside
// a phase that lasts milliseconds.
func timed(f func() error) (float64, error) {
	runtime.GC()
	t := time.Now()
	err := f()
	return time.Since(t).Seconds(), err
}

// memSample brackets a measured phase with runtime statistics.
type memSample struct {
	mallocs uint64
	numGC   uint32
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{ms.Mallocs, ms.NumGC}
}

// heapPeakMiB returns the heap memory obtained from the OS so far, in
// MiB; the runtime never shrinks it, so it is the heap's peak footprint.
func heapPeakMiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapSys) / (1 << 20)
}

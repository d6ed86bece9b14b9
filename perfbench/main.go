// Command perfbench is the repository's benchmark. It builds the
// program's worlds through their public packages, drives one of three
// seeded closed-loop workloads, checks every output, and prints the
// end-to-end metrics; with --trace 1 it instead makes a traced run and
// prints the per-layer metrics. The last line of standard output is one
// JSON object; everything above it is a readable table.
//
//	bash perfbench/run.sh --workload dom --seed 1 --seconds 10 --trace 0
//
// See RATIONALE.md for why each workload and metric exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workers  int // closed-loop tenants clients
}

// spanDir is where a traced run writes its spans: the build directory
// run.sh uses, which version control ignores.
const spanDir = ".bench_build"

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // shown beside the value in the table
}

// failures counts failed ops by reason. The benchmark never retries.
type failures struct {
	scriptError uint64 // a script raised an error
	stepLimit   uint64 // jsengine.ErrStepLimit
	drop        uint64 // the supervisor gave the request up (PKUERR drop)
	refused     uint64 // the gate refused the call before running it
	shed        uint64 // an open breaker shed the request at admission
}

func (f failures) total() uint64 {
	return f.scriptError + f.stepLimit + f.drop + f.refused + f.shed
}

func (f failures) String() string {
	return fmt.Sprintf("script_error=%d step_limit=%d pkuerr_drop=%d refused=%d shed=%d",
		f.scriptError, f.stepLimit, f.drop, f.refused, f.shed)
}

// outcome is what a workload run reports.
type outcome struct {
	attempted uint64
	fails     failures
	problems  []string // correctness failures; any makes the run incorrect
	notes     []string // extra table lines
	metrics   []metric
}

// problem records a correctness failure (the first few verbatim).
func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// endToEnd lists the metrics a --trace 0 run prints, in order.
var endToEnd = []string{"setup_s", "ops_per_s", "op_p50_us", "op_p99_us", "ok_ratio", "peak_rss_mb"}

// perLayer lists the per-layer metrics the JSON of a --trace 1 run
// carries: those with a measured value on every workload, where no time
// reads a constant zero. The table above it shows every layer metric,
// including runtime.mutex_wait_us_per_op (exactly 0 with one client on
// one P) and the workload-specific layer timings.
var perLayer = []string{
	"browser.dom_ops_per_op", "jsengine.steps_per_op", "ffi.crossings_per_op", "ffi.gate_ns",
	"vm.loads_per_op", "vm.stores_per_op", "vm.resident_pages",
	"heap.allocs_per_op_mt", "heap.allocs_per_op_mu",
	"vkey.miss_ratio", "vkey.evictions_per_op",
	"runtime.allocs_per_op", "runtime.gc_cpu_share",
	"runtime.sched_wait_p99_us", "trace.overhead_ratio",
}

// minP99Samples is the fewest successful ops a run measures, so that
// op_p99_us always has at least ten samples beyond it.
const minP99Samples = 1000

func main() {
	var cfg config
	var seconds int
	flag.StringVar(&cfg.workload, "workload", "", "dom | compute | tenants")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated op sequence")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.IntVar(&cfg.workers, "workers", 1, "tenants only: closed-loop clients, 1 or 2 (see RATIONALE.md)")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = *trace == 1
	if seconds < 1 || (*trace != 0 && *trace != 1) || cfg.workers < 1 || cfg.workers > maxTenantWorkers || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	var out *outcome
	var err error
	switch cfg.workload {
	case "dom":
		out, err = runBrowser(cfg, domSuite())
	case "compute":
		out, err = runBrowser(cfg, computeSuite())
	case "tenants":
		out, err = runTenants(cfg)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want dom, compute or tenants)\n", cfg.workload)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := report(cfg, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if len(out.problems) > 0 {
		os.Exit(1)
	}
}

// report prints the table and, last, the JSON result line.
func report(cfg config, out *outcome) error {
	kind := "end-to-end"
	names := endToEnd
	if cfg.trace {
		kind, names = "per-layer", perLayer
	}
	fmt.Printf("perfbench %s workload=%s seed=%d seconds=%d\n", kind, cfg.workload, cfg.seed, int(cfg.seconds/time.Second))
	fmt.Printf("  attempted=%d failed=%d (%v)\n", out.attempted, out.fails.total(), out.fails)
	for _, n := range out.notes {
		fmt.Printf("  %s\n", n)
	}
	for _, p := range out.problems {
		fmt.Printf("  INCORRECT: %s\n", p)
	}
	byName := make(map[string]metric, len(out.metrics))
	for _, m := range out.metrics {
		byName[m.name] = m
		note := ""
		if m.note != "" {
			note = "  (" + m.note + ")"
		}
		fmt.Printf("  %-32s %14.6g %-6s%s\n", m.name, m.value, m.unit, note)
	}

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.fails.total(),
		Metrics:   make(map[string]jsonMetric, len(names)),
	}
	for _, n := range names {
		m, ok := byName[n]
		if !ok {
			return fmt.Errorf("%s run measured no %s", cfg.workload, n)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("%s is %v", n, m.value)
		}
		res.Metrics[n] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEndMetrics derives the user-visible metrics of one measured
// phase. Times are rescaled to the nominal host (hostClock); the table
// shows them as measured too.
func endToEndMetrics(setups, rawSetups []time.Duration, log *opLog, attempted uint64, fails failures) []metric {
	ok := float64(attempted - fails.total())
	return []metric{
		{name: "setup_s", value: medianDuration(setups).Seconds(), unit: "s",
			note: fmt.Sprintf("median of %d set-ups; as measured %.6g", len(setups), medianDuration(rawSetups).Seconds())},
		{name: "ops_per_s", value: ratio(ok, log.busy.Seconds()), unit: "1/s",
			note: fmt.Sprintf("%.0f ok ops in %.3fs of op time; as measured %.6g in %.3fs",
				ok, log.busy.Seconds(), ratio(ok, log.rawBusy.Seconds()), log.rawBusy.Seconds())},
		{name: "op_p50_us", value: log.lat.quantile(0.5) / 1e3, unit: "us",
			note: fmt.Sprintf("as measured %.6g", log.rawLat.quantile(0.5)/1e3)},
		{name: "op_p99_us", value: log.lat.quantile(0.99) / 1e3, unit: "us",
			note: fmt.Sprintf("from %d samples; as measured %.6g", log.lat.n, log.rawLat.quantile(0.99)/1e3)},
		{name: "ok_ratio", value: ratio(ok, float64(attempted)), unit: "ratio"},
	}
}

// spanPath names the span file of a traced run.
func spanPath(cfg config) string {
	return filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.tsv", cfg.workload, cfg.seed))
}

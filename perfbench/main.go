// Command perfbench is the repository's same-host benchmark. It runs
// one named workload for a fixed span of host time and prints, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (tracing off); with
// --trace 1 they are the per-layer set, taken from a run that alternates
// untraced and traced iterations so the tracing overhead is measured
// against its own base. Lines before the last one are a human-readable
// report ("# ..."), including every workload-specific figure with its
// sample count.
//
// Usage (from the checkout root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: bcast-oltp64, dir-trace64, sweep-fig4, sweepd-mixed. See
// README.md in this directory for why each exists, its load shape and
// the layers it stresses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is printed with --trace 0 on every workload; see README.md
// for what each means on each workload.
var endToEnd = []metricDef{
	{"sim_ops_per_s", "1/s"},
	{"replicas_per_s", "1/s"},
	{"replica_s_p50", "s"},
	{"jobs_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is printed with --trace 1 on every workload. A layer the
// workload does not reach reads 0. Sim counters are means per traced
// simulation run.
var perLayer = []metricDef{
	{"event.events", "count"},
	{"event.max_queue", "count"},
	{"event.loop_self_s", "s"},
	{"event.ns_per_event", "ns"},
	{"event.probe_ns_push_pop", "ns"},
	{"interconnect.sends", "count"},
	{"interconnect.delivered", "count"},
	{"interconnect.dropped_frac", "ratio"},
	{"interconnect.queue_cycles", "cycles"},
	{"interconnect.link_bytes", "bytes"},
	{"interconnect.probe_ns_per_copy", "ns"},
	{"cache.l1_hits", "count"},
	{"cache.l2_hits", "count"},
	{"cache.l2_evictions", "count"},
	{"cache.probe_ns_lookup", "ns"},
	{"directory.entries", "count"},
	{"directory.probe_ns_entry", "ns"},
	{"protocol.handle_calls", "count"},
	{"protocol.handle_s", "s"},
	{"protocol.ns_per_handle", "ns"},
	{"protocol.misses", "count"},
	{"protocol.sharing_misses", "count"},
	{"protocol.avg_miss_latency_cycles", "cycles"},
	{"protocol.direct_responded", "count"},
	{"protocol.direct_ignored", "count"},
	{"protocol.direct_useful_ratio", "ratio"},
	{"protocol.tenure_timeouts", "count"},
	{"protocol.reissues", "count"},
	{"protocol.persistent_reqs", "count"},
	{"workload.next_calls", "count"},
	{"workload.next_s", "s"},
	{"workload.ns_per_next", "ns"},
	{"sim.sim_cycles", "cycles"},
	{"sim.bytes_per_miss", "bytes"},
	{"sim.reset_s", "s"},
	{"sim.alloc_bytes_per_op", "bytes"},
	{"msg.probe_ns_pool", "ns"},
	{"patch.replica_busy_frac", "ratio"},
	{"patch.idle_s", "s"},
	{"patch.emit_s", "s"},
	{"service.submit_ms_p50", "ms"},
	{"service.progress_ms_p50", "ms"},
	{"service.result_ms_p50", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.cache_disk_bytes", "bytes"},
	{"service.journal_records", "count"},
	{"service.write_errors", "count"},
	{"trace.overhead_frac", "ratio"},
	{"trace.base_per_s", "1/s"},
}

var workloads = map[string]func(*bench) error{
	"bcast-oltp64": runBcast,
	"dir-trace64":  runDirTrace,
	"sweep-fig4":   runSweepFig4,
	"sweepd-mixed": runSweepd,
}

// bench is the state of one benchmark run.
type bench struct {
	opt options
	// workers bounds the load: goroutines and connections never exceed
	// the host's CPU count.
	workers int

	attempted, failed int
	e2e, layer        map[string]float64
	tr                *tracer // nil unless --trace 1
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; every input is derived from it")
	flag.IntVar(&o.seconds, "seconds", 25, "host seconds of measurement")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "perfbench", "run"), "scratch directory for traces, data dirs and spans")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q; known: %s)\n", o.workload, strings.Join(names(), ", "))
		os.Exit(2)
	}
	b := &bench{opt: o, workers: runtime.NumCPU(), e2e: map[string]float64{}, layer: map[string]float64{}}
	if o.trace {
		b.tr = newTracer()
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fatal(err)
	}
	b.note("workload %s seed %d seconds %d trace %v workers %d %s", o.workload, o.seed, o.seconds, o.trace, b.workers, runtime.Version())
	b.note("model scope: caches start empty, warm up over WarmupOps, statistics reset at the end of warm-up; the model is unvalidated (no reference hardware results), so no accuracy figure is given")
	if err := run(b); err != nil {
		fatal(err)
	}
	b.e2e["peak_rss_mb"] = peakRSSMB()
	if err := b.finish(); err != nil {
		fatal(err)
	}
}

func names() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// note prints one report line.
func (b *bench) note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// miss records one failed operation (a run error or an output that
// disagrees with its reference).
func (b *bench) miss(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// measure calls iter until opt.seconds of host time have passed. A
// traced run alternates untraced and traced iterations, starting
// untraced, and runs at least one of each.
func (b *bench) measure(iter func(i int, traced bool) error) error {
	end := time.Now().Add(time.Duration(b.opt.seconds) * time.Second)
	for i := 0; time.Now().Before(end) || (b.opt.trace && i < 2); i++ {
		if err := iter(i, b.opt.trace && i%2 == 1); err != nil {
			return err
		}
	}
	return nil
}

// finish writes the spans and prints the result line.
func (b *bench) finish() error {
	defs, values := endToEnd, b.e2e
	if b.opt.trace {
		defs, values = perLayer, b.layer
		path := filepath.Join(b.opt.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.opt.workload, b.opt.seed))
		if err := b.tr.write(path); err != nil {
			return err
		}
		b.note("spans: %d written to %s", len(b.tr.spans), path)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, map[string]metric{}}
	if b.attempted == 0 {
		return fmt.Errorf("no operation attempted")
	}
	b.note("fail_ratio %.6g (%d of %d)", float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !b.opt.trace {
			return fmt.Errorf("end-to-end metric %s not measured", d.name)
		}
		out.Metrics[d.name] = metric{v, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// Command bench is the capacity service's steady-state benchmark. It
// boots the real serving stack in process on loopback listeners
// (capserver, cluster node and casstore, wired as cmd/capserverd wires
// them), drives it over HTTP from nproc client goroutines, checks every
// output it can against a single-node oracle, and prints its metrics.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh -workload hot-point -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload ring-spill -seed 1 -seconds 20 -trace 1
//	bash bench/run.sh -repeat 10
//
// The last line of a run's standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// Untraced runs report the end-to-end metrics, traced runs the
// per-layer split (see README.md). A failed correctness check exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"norm_throughput_rps", "1/s"},
	{"norm_latency_p50_us", "us"},
	{"norm_latency_p95_us", "us"},
	{"setup_s", "s"},
	{"heap_inuse_mb", "MiB"},
}

// perLayer are the metrics a traced run reports, by module.
var perLayer = []metricDef{
	{"bench.speed_index", "ratio"},
	{"http.floor_us", "us"},
	{"http.transport_share", "ratio"},
	{"capserver.handler_us_p50", "us"},
	{"capserver.handler_us_p99", "us"},
	{"capserver.canonicalize_us", "us"},
	{"capserver.lru_hit_ratio", "ratio"},
	{"capserver.store_hit_ratio", "ratio"},
	{"capserver.shared_ratio", "ratio"},
	{"capserver.miss_ratio", "ratio"},
	{"capserver.queue_us_p50", "us"},
	{"capserver.queue_us_p99", "us"},
	{"capserver.compute_us_p50", "us"},
	{"capserver.pool_busy_ratio", "ratio"},
	{"capserver.kernel_share", "ratio"},
	{"capserver.rejected_total", "count"},
	{"capserver.abandoned_total", "count"},
	{"core.bounds_us", "us"},
	{"infotheory.ba_us", "us"},
	{"infotheory.ba_iters", "count"},
	{"delcap.mc_us", "us"},
	{"delcap.mc_floor_ratio", "ratio"},
	{"casstore.get_us_p50", "us"},
	{"casstore.get_us_p99", "us"},
	{"casstore.put_us_p50", "us"},
	{"casstore.put_us_p99", "us"},
	{"casstore.corrupt_total", "count"},
	{"casstore.put_errors_total", "count"},
	{"cluster.forward_ratio", "ratio"},
	{"cluster.hedge_ratio", "ratio"},
	{"cluster.retry_total", "count"},
	{"cluster.degraded_total", "count"},
	{"cluster.hop_us_p50", "us"},
	{"cluster.hop_us_p99", "us"},
	{"cluster.route_us_p50", "us"},
	{"cluster.owned_rtt_us_p50", "us"},
	{"cluster.forwarded_rtt_us_p50", "us"},
	{"session.decode_us_per_batch", "us"},
	{"session.apply_us_per_batch", "us"},
	{"session.ingest_rtt_us_p50", "us"},
	{"session.get_rtt_us_p50", "us"},
	{"session.http_share", "ratio"},
	{"session.bounds_hit_ratio", "ratio"},
	{"health.tick_us", "us"},
	{"runtime.alloc_bytes_per_req", "B"},
	{"runtime.gc_per_kreq", "count"},
	{"runtime.gc_pause_us_total", "us"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_share", "ratio"},
	{"bench.open_p50_us", "us"},
	{"bench.open_p99_us", "us"},
	{"bench.open_late_ratio", "ratio"},
	{"bench.error_ratio", "ratio"},
}

// metricValue is one metric in the output object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line of a run's standard output.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// machineContext describes where the numbers were measured.
func machineContext() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+dirty"
				}
			}
		}
	}
	return fmt.Sprintf("machine: gomaxprocs=%d numcpu=%d go=%s goos=%s goarch=%s commit=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

func main() {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload: "+workloadNames())
		seed     = fs.Uint64("seed", 1, "workload seed")
		seconds  = fs.Float64("seconds", 0, "measured seconds per run (0 = run_seconds from BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
		repeat   = fs.Int("repeat", 0, "run every workload this many times, alternating order, and report spreads")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || (*repeat == 0) == (*workload == "") {
		fmt.Fprintln(os.Stderr, "bench: want -workload <name> [-seed n] [-seconds s] [-trace 0|1], or -repeat n")
		os.Exit(2)
	}
	if err := mainErr(*workload, *seed, *seconds, *trace == 1, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed uint64, seconds float64, trace bool, repeat int) error {
	fmt.Println(machineContext())
	if seconds <= 0 || repeat > 0 {
		def, err := readDefinition("BENCHMARK.json")
		if err != nil {
			return err
		}
		if seconds <= 0 {
			seconds = float64(def.RunSeconds)
		}
		if repeat > 0 {
			return repeatRuns(def, repeat, seconds)
		}
	}
	opt := options{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		trace:    trace,
		workDir:  defaultWorkDir(),
		scale:    fullScale,
		log:      os.Stderr,
	}
	if trace {
		opt.traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	}
	res, err := run(opt)
	if err != nil {
		return err
	}
	out, err := report(res, trace)
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.checkErr != nil {
		return fmt.Errorf("correctness check failed: %w", res.checkErr)
	}
	if res.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", res.failed, res.attempted)
	}
	return nil
}

// report renders a run's result object: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one. It also lists
// them on standard error for people.
func report(res result, trace bool) (output, error) {
	out := output{Correct: res.checkErr == nil && res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return out, fmt.Errorf("metric %s was not computed", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: finite(v), Unit: d.unit}
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", d.name, v, d.unit)
	}
	return out, nil
}

func workloadNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload per invocation (eval-full, train-mid or serve-mid), checks the
// program's outputs, and prints a header line, one line per metric, and —
// as the last line of standard output — a JSON result object.
//
//	bash e2ebench/run.sh --workload eval-full --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --workload all --seed 1   # every workload, both modes
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// nothing but timestamps at window boundaries. With --trace 1 the same
// workload runs plain and then traced in one process, and the result
// carries the per-layer metrics plus the tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, operation counts and check failures.
type report struct {
	metrics   map[string]metric
	named     []string // per-workload metric lines printed for readers, in order
	attempted int
	failed    int
	problems  []string
	// peakHeapMB is the largest live heap markHeap saw.
	peakHeapMB float64
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// set records a metric that goes into the result object.
func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// note prints a workload-specific metric by name and unit without adding
// it to the result object.
func (r *report) note(name string, v float64, unit string) {
	r.named = append(r.named, fmt.Sprintf("%s %.6g %s", name, v, unit))
}

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

var workloads = map[string]func(options, *report) error{
	"eval-full": runEvalFull,
	"train-mid": runTrainMid,
	"serve-mid": runServeMid,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"eval-full", "train-mid", "serve-mid"}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: eval-full, train-mid, serve-mid, or all (every workload plain and traced)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed builds the same inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "measurement budget in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	if o.workload == "all" && o.seconds >= 1 {
		os.Exit(runAll(o))
	}
	run, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, trace %d, seconds %d)\n", o.workload, trace, o.seconds)
		os.Exit(2)
	}
	printJSON(map[string]any{"header": header(o)})

	rep := newReport()
	steal0, total0, stealOK := cpuSteal()
	err := run(o, rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if steal1, total1, ok := cpuSteal(); stealOK && ok && total1 > total0 {
		rep.note("host_steal_share", float64(steal1-steal0)/float64(total1-total0), "ratio (of all CPU time during the run; see README)")
	}
	if o.trace {
		rep.complete(perLayer)
	} else {
		rep.set("peak_heap_mb", rep.peakHeapMB, "MB")
		rep.complete(endToEnd)
	}
	for _, line := range rep.named {
		fmt.Println(line)
	}
	names := make([]string, 0, len(rep.metrics))
	for name := range rep.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s %.6g %s\n", name, rep.metrics[name].Value, rep.metrics[name].Unit)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "e2ebench: check failed: %s\n", p)
	}
	printJSON(map[string]any{
		"correct":   len(rep.problems) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	})
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}

// runAll runs every workload plain and traced, each in a process of its
// own so no workload inherits another's heap, and returns 1 if any run
// failed.
func runAll(o options) int {
	code := 0
	for _, w := range workloadOrder {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(os.Args[0], "--workload", w, "--seed", strconv.FormatInt(o.seed, 10),
				"--seconds", strconv.Itoa(o.seconds), "--trace", trace)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench: %s --trace %s: %v\n", w, trace, err)
				code = 1
			}
		}
	}
	return code
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: encoding output: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// header identifies the machine, toolchain and code a result came from.
func header(o options) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"revision":   revision(),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSteal returns the machine's CPU time stolen by the hypervisor and its
// total CPU time so far, in clock ticks, from the first line of /proc/stat.
func cpuSteal() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// revision returns the VCS revision the binary was built from, when the
// build could stamp one.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

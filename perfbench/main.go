// Command perfbench is the benchmark of this repository. One run drives
// one workload through the program's public entry points (fpspy.Run,
// the study's cell configurations, and POST /v1/jobs on a cluster
// ring), checks every op's output against the committed expectations,
// and prints its metrics by name and unit; the last line of standard
// output is one JSON object with the result.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload spy-corpus --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --smoke
//
// With --trace 0 the run measures the end-to-end metrics with all
// instrumentation off. With --trace 1 it spends half its time on
// untraced rounds and half on traced ones, with the program's obs
// registries attached and a harness span around every layer call, and
// reports the per-layer metrics, the tracing overhead and the part of
// each round no layer span covers; the spans are written as a Chrome
// trace_event file into --out. The exit code is non-zero when any op
// fails or its output differs from the expectation.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// A run sets its workload up at least setupReps times and, while the
// set-ups have taken less than setupSeconds in all, again up to
// setupMaxReps times; setup_s is the median. A set-up of a fraction of a
// millisecond is so repeated often enough for a steady median.
const (
	setupReps    = 5
	setupSeconds = 1.0
	setupMaxReps = 500
)

var workloadNames = []string{"spy-corpus", "shadow-rootcause", "service-mix"}

func newWorkload(name string, seed int64, record bool) (bench, error) {
	switch name {
	case "spy-corpus":
		return newSpyCorpus(seed, record)
	case "shadow-rootcause":
		return newShadowRootCause(seed, record)
	case "service-mix":
		return newServiceMix(seed, record)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed: sets op order and the environment values of cold clones")
	seconds := fs.Float64("seconds", 20, "how long the timed rounds run")
	traced := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run; 0 the end-to-end metrics")
	smoke := fs.Bool("smoke", false, "run one untraced and one traced round of every workload with all output checks, and report only pass or fail")
	out := fs.String("out", ".bench_build", "directory the Chrome trace of a traced run is written to")
	writeExpect := fs.String("write-expect", "", "record one round of every workload as the new expectations in this directory, instead of checking")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	printEnv(w)
	switch {
	case *writeExpect != "":
		return once(w, *seed, *writeExpect)
	case *smoke:
		return once(w, *seed, "")
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(w, "# --trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	wl, err := newWorkload(*name, *seed, false)
	if err != nil {
		fmt.Fprintf(w, "# %v\n", err)
		return 2
	}
	fmt.Fprintf(w, "# workload %s, seed %d, %g s, trace %d, %d client(s)\n", *name, *seed, *seconds, *traced, wl.clients())
	var rep *report
	if *traced == 1 {
		rep, err = tracedRun(w, wl, *name, *seconds, *out)
	} else {
		rep, err = untracedRun(w, wl, *seconds)
	}
	if err != nil {
		fmt.Fprintf(w, "# %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(w, "# %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// untracedRun measures the end-to-end metrics.
func untracedRun(w io.Writer, wl bench, seconds float64) (*report, error) {
	setupS, err := timedSetup(wl, false)
	defer wl.close()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	log := newOpLog()
	p := wl.tailPct()
	// Run on until each op class has ten samples beyond its tail
	// percentile.
	enough := func() bool {
		log.mu.Lock()
		defer log.mu.Unlock()
		return beyond(len(log.lat[classCold]), p) >= 10 && beyond(len(log.lat[classCached]), p) >= 10
	}
	r := measure(wl, nil, log, seconds, enough)
	values := map[string]float64{
		"setup_s":    setupS,
		"round_s":    median(r.secs),
		"alloc_mib":  median(r.allocs) / mib,
		"jobs_per_s": float64(wl.jobsPerRound()*len(r.secs)) / r.total(),
	}
	for _, class := range []string{classCold, classCached} {
		lat := log.lat[class]
		values[class+"_p50_ms"] = median(lat)
		values[class+"_tail_ms"] = percentile(lat, p)
		fmt.Fprintf(w, "# %s ops: %d, tail = p%g with %d beyond it\n", class, len(lat), p, beyond(len(lat), p))
	}
	fmt.Fprintf(w, "# rounds: %d of %d jobs; round_s quartile spread %s\n", len(r.secs), wl.jobsPerRound(), spreadText(r.secs))
	return finish(w, log, endToEnd, values)
}

// tracedRun measures untraced rounds, then traced ones, and reports the
// per-layer metrics.
func tracedRun(w io.Writer, wl bench, name string, seconds float64, outDir string) (*report, error) {
	if _, err := timedSetup(wl, false); err != nil {
		wl.close()
		return nil, fmt.Errorf("setup: %w", err)
	}
	log := newOpLog()
	plain := measure(wl, nil, log, seconds/2, nil)
	wl.close()
	if err := wl.setup(true); err != nil {
		wl.close()
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	l := newLayers()
	tr := measure(wl, l, log, seconds/2, nil)
	values := zeroLayerValues()
	for k, v := range wl.layerMetrics(l, len(tr.secs)) {
		values[k] = v
	}
	wl.close()
	base, with := median(plain.secs), median(tr.secs)
	values["harness.trace_overhead_ms"] = (with - base) * 1e3
	busy := tr.total() * float64(wl.clients())
	values["harness.unattributed_share"] = 1 - l.covered()/busy
	fmt.Fprintf(w, "# traced round %.4g s vs untraced %s\n", with, ratio(with, base, "s"))
	fmt.Fprintf(w, "# traced rounds: %d; layer spans cover %.4g of %.4g client-seconds\n", len(tr.secs), l.covered(), busy)
	for _, n := range l.names() {
		fmt.Fprintf(w, "#   span %-24s %10.3f ms/round\n", n, l.ms(n)/float64(len(tr.secs)))
	}
	for _, line := range wl.shape(log) {
		fmt.Fprintf(w, "# shape: %s\n", line)
	}
	if outDir != "" {
		path := filepath.Join(outDir, "perfbench-"+name+"-trace.json")
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if err := l.writeChrome(path); err != nil {
			return nil, fmt.Errorf("chrome trace: %w", err)
		}
		fmt.Fprintf(w, "# chrome trace: %s\n", path)
	}
	return finish(w, log, perLayer, values)
}

// finish prints the metrics and the failures, and builds the report.
func finish(w io.Writer, log *opLog, defs []metricDef, values map[string]float64) (*report, error) {
	ms, err := fill(defs, values)
	if err != nil {
		return nil, err
	}
	for _, d := range defs {
		fmt.Fprintf(w, "# %-28s %14.6g %s\n", d.name, ms[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "# failed_frac %.6g (%d of %d ops)\n", float64(log.failed)/float64(max(log.attempted, 1)), log.failed, log.attempted)
	for _, e := range log.errs {
		fmt.Fprintf(w, "# FAILED: %s\n", e)
	}
	return &report{Correct: log.failed == 0 && log.attempted > 0, Attempted: log.attempted, Failed: log.failed, Metrics: ms}, nil
}

// once runs one untraced and one traced round of every workload with
// the output checks on. With dir set it records the outputs as the new
// expectations there instead of checking them.
func once(w io.Writer, seed int64, dir string) int {
	code := 0
	for _, name := range workloadNames {
		wl, err := newWorkload(name, seed, dir != "")
		if err != nil {
			fmt.Fprintf(w, "# %s: %v\n", name, err)
			return 1
		}
		log := newOpLog()
		err = wl.setup(false)
		if err == nil {
			err = wl.warm()
		}
		if err == nil {
			wl.round(nil, log)
			wl.close()
			err = wl.setup(true)
		}
		if err == nil {
			l := newLayers()
			wl.round(l, log)
			wl.shape(log)
			values := zeroLayerValues()
			for k, v := range wl.layerMetrics(l, 1) {
				values[k] = v
			}
			_, err = fill(perLayer, values)
		}
		wl.close()
		if err == nil && dir != "" {
			err = wl.writeExpectations(dir)
		}
		switch {
		case err != nil:
			fmt.Fprintf(w, "# %s: FAILED: %v\n", name, err)
			code = 1
		case log.failed > 0:
			fmt.Fprintf(w, "# %s: FAILED %d of %d ops\n", name, log.failed, log.attempted)
			for _, e := range log.errs {
				fmt.Fprintf(w, "#   %s\n", e)
			}
			code = 1
		default:
			fmt.Fprintf(w, "# %s: ok, %d ops\n", name, log.attempted)
		}
	}
	return code
}

func zeroLayerValues() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.name] = 0
	}
	return v
}

func spreadText(xs []float64) string {
	s, err := quartileSpread(xs)
	if err != nil {
		return "n/a"
	}
	return fmt.Sprintf("%.3g of median %.4g", s, median(xs))
}

func nproc() int { return runtime.NumCPU() }

// printEnv records the environment every result was measured in.
func printEnv(w io.Writer) {
	fmt.Fprintf(w, "# nproc %d, GOMAXPROCS %d, GOGC %q, GOMEMLIMIT %q, %s %s/%s, cpu %q\n",
		nproc(), runtime.GOMAXPROCS(0), os.Getenv("GOGC"), os.Getenv("GOMEMLIMIT"), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
}

// cpuModel is the processor model name the kernel reports, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	models := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			models[strings.TrimSpace(v)] = true
		}
	}
	if len(models) == 0 {
		return "unknown"
	}
	var out []string
	for m := range models {
		out = append(out, m)
	}
	sort.Strings(out)
	return strings.Join(out, "; ")
}

package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// A bench is a workload: a fixed list of ops that the benchmark repeats in
// rounds. Each client runs its share of a round in a closed loop: an op
// starts only when the client's previous op has finished.
type bench interface {
	// setup builds the inputs and boots what the workload needs; it is
	// what setup_s times. traced selects the instrumented variant (the
	// program's obs.Metrics attached).
	setup(traced bool) error
	// warm runs once, untimed, after the timed set-ups and before any
	// round: it fills the program's process-wide caches, so the first
	// round is not slower than the rest, and checks its outputs.
	warm() error
	// round runs the fixed op list once, recording every op in log and,
	// when l is non-nil, a span around each layer call.
	round(l *layers, log *opLog)
	// jobsPerRound is the number of jobs (passes, cells or
	// submissions) in one round.
	jobsPerRound() int
	// clients is how many closed-loop clients run ops concurrently.
	clients() int
	// tailPct is the percentile the *_tail_ms metrics report: the
	// highest of p50, p90 and p99 that a run of the workload's length
	// leaves ten samples beyond.
	tailPct() float64
	// layerMetrics reports the per-layer metrics of the traced rounds
	// since the last setup(true), per round.
	layerMetrics(l *layers, rounds int) map[string]float64
	// shape checks, for the traced rounds, the layer shape the workload
	// is predicted to show. It returns lines describing it and counts a
	// failed deterministic prediction as a failed op in log.
	shape(log *opLog) []string
	// close stops everything setup started and waits for it.
	close()
	// writeExpectations stores what the rounds observed as the new
	// committed expectations (only when recording).
	writeExpectations(dir string) error
}

// opLog records the latency and outcome of every op of a run.
type opLog struct {
	mu        sync.Mutex
	lat       map[string][]float64 // ms, by op class
	attempted int
	failed    int
	errs      []string
}

func newOpLog() *opLog { return &opLog{lat: map[string][]float64{}} }

// Op classes. A cold op makes the program compute a result by running a
// guest; a cached op answers from a result the program already holds
// (the result cache of the service, or the trace store and shadow site
// table a finished pass left behind).
const (
	classCold   = "cold"
	classCached = "cached"
)

// op runs fn as one op of class, timing it and counting a returned error
// (a failed call or an output mismatch) as a failed op.
func (o *opLog) op(class string, fn func() error) {
	t0 := time.Now()
	err := fn()
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	o.lat[class] = append(o.lat[class], ms)
	if err != nil {
		o.failed++
		if len(o.errs) < 10 {
			o.errs = append(o.errs, err.Error())
		}
	}
}

// fail counts an op that could not be attempted to completion.
func (o *opLog) fail(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	o.failed++
	if len(o.errs) < 10 {
		o.errs = append(o.errs, err.Error())
	}
}

// rounds is the outcome of a timed series of rounds.
type rounds struct {
	secs   []float64 // wall time of each round
	allocs []float64 // heap bytes allocated in each round
}

func (r rounds) total() float64 {
	var s float64
	for _, x := range r.secs {
		s += x
	}
	return s
}

// minRounds is the fewest rounds a median is taken over.
const minRounds = 3

// measure repeats rounds until seconds have passed, at least minRounds
// have run and enough reports true (nil means no further condition).
func measure(w bench, l *layers, log *opLog, seconds float64, enough func() bool) rounds {
	var r rounds
	start := time.Now()
	for len(r.secs) < minRounds || time.Since(start).Seconds() < seconds || (enough != nil && !enough()) {
		a0 := totalAlloc()
		t0 := time.Now()
		w.round(l, log)
		r.secs = append(r.secs, time.Since(t0).Seconds())
		r.allocs = append(r.allocs, float64(totalAlloc()-a0))
	}
	return r
}

// timedSetup runs setup as often as setupReps, setupSeconds and
// setupMaxReps say, keeping the last one running, then warms the
// workload, and returns the median setup time in seconds.
func timedSetup(w bench, traced bool) (float64, error) {
	var secs []float64
	var total float64
	for len(secs) < setupReps || (total < setupSeconds && len(secs) < setupMaxReps) {
		if len(secs) > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(traced); err != nil {
			return 0, err
		}
		d := time.Since(t0).Seconds()
		secs = append(secs, d)
		total += d
	}
	if err := w.warm(); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	return median(secs), nil
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, in report order. Every
// workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"round_s", "s"},
	{"alloc_mib", "MiB"},
	{"jobs_per_s", "1/s"},
	{"cold_p50_ms", "ms"},
	{"cold_tail_ms", "ms"},
	{"cached_p50_ms", "ms"},
	{"cached_tail_ms", "ms"},
}

// perLayer are the metrics of a traced run, in report order. Every
// workload reports all of them; a layer a workload does not reach reads
// 0. Times named *_ms without a percentile are totals per round.
var perLayer = []metricDef{
	{"workload.build_ms", "ms"},
	{"kernel.spawn_ms", "ms"},
	{"kernel.spawn_alloc_mib", "MiB"},
	{"kernel.run_ms.nospy", "ms"},
	{"kernel.run_ms.aggregate", "ms"},
	{"kernel.run_ms.individual", "ms"},
	{"kernel.run_ms.filtered", "ms"},
	{"kernel.run_ms.sampled", "ms"},
	{"machine.ns_per_inst.nospy", "ns"},
	{"machine.ns_per_inst.aggregate", "ns"},
	{"kernel.fast_steps", "count"},
	{"kernel.precise_steps", "count"},
	{"machine.fast_share", "share"},
	{"softfloat.flops.f64", "count"},
	{"softfloat.flops.f32", "count"},
	{"kernel.signals.sigfpe", "count"},
	{"kernel.signals.sigtrap", "count"},
	{"core.faults", "count"},
	{"core.records", "count"},
	{"core.protocol_ns.p50", "ns"},
	{"core.protocol_ns.sum", "ns"},
	{"core.host_us_per_event", "us"},
	{"trace.decode_ms", "ms"},
	{"analysis.rank_ms", "ms"},
	{"shadow.run_ms", "ms"},
	{"shadow.ops", "count"},
	{"shadow.sites", "count"},
	{"shadow.ns_per_op", "ns"},
	{"shadow.allocs_per_op", "count"},
	{"analysis.rootcause_ms", "ms"},
	{"jobs.encode_ms", "ms"},
	{"client.submit_ms.cold", "ms"},
	{"client.submit_ms.cached", "ms"},
	{"client.stream_ms.cold", "ms"},
	{"client.stream_ms.cached", "ms"},
	{"server.submit_ns.p50", "ns"},
	{"server.result_ns.p50", "ns"},
	{"server.cache_hit_ratio", "share"},
	{"server.shed", "count"},
	{"server.rate_limited", "count"},
	{"study.pass_host_ms.p50", "ms"},
	{"cluster.forwards", "count"},
	{"cluster.forwards.cached", "count"},
	{"cluster.rpcs_per_submit", "count"},
	{"cluster.forward_ns.p50", "ns"},
	{"cluster.retries", "count"},
	{"cluster.hedges", "count"},
	{"cluster.rpc_errors", "count"},
	{"kernel.retired", "count"},
	{"kernel.sim_cycles.user", "cycles"},
	{"kernel.sim_cycles.sys", "cycles"},
	{"sim.overhead_x.individual", "x"},
	{"harness.trace_overhead_ms", "ms"},
	{"harness.unattributed_share", "share"},
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill builds the metrics map for defs from values, failing on a value
// that is missing, not finite, or not listed in defs.
func fill(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	var extra []string
	for name := range values {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics %v are not declared", extra)
	}
	return out, nil
}

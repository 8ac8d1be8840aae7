// Command fpstudy runs the paper's full Section 4 methodology over the
// reproduced application and benchmark suites and prints every table and
// figure of the evaluation (Figures 6 through 19 and the Section 6
// feasibility analysis).
//
// Usage:
//
//	fpstudy            # everything, passes parallelized across CPUs
//	fpstudy -only 9    # a single figure
//	fpstudy -workers 1 # force fully serial execution
//	fpstudy -metrics -traceout study.trace.json   # observability on
//
// With -probe it instead runs the accumulation-order reproducibility
// conformance matrix (ROADMAP item 3): every FPRev-style probe kernel
// under every engine configuration and inject schedule, asserting the
// reconstructed accumulation-tree fingerprint never changes (and that
// the deliberately-broken kernel is detected). -probeout writes the
// fingerprint corpus as JSON (the CI artifact); -probetraces dumps one
// representative .fpemon trace per kernel for fpanalyze -accumtree.
//
// With -shadow it runs the shadow-precision root-cause study: each
// selected workload (all corpus apps by default; -shadowonly filters)
// executes with the shadow channel attached at -shadowprec mantissa
// bits, its FP sites are ranked by introduced rounding error, and
// -mitprec adds an adaptive-precision mitigated leg for the
// unmitigated-vs-mitigated comparison. -shadowout writes the full
// report as JSON.
//
// With -metrics (or -traceout/-metricsout/-pprof), every pass shares one
// observability registry: the final summary reconciles exactly with the
// emitted trace events, and the figures remain byte-identical to an
// uninstrumented run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/study"
	"repro/internal/workload"
)

func main() {
	only := flag.String("only", "", "emit a single artifact (6-19 or s6)")
	workers := flag.Int("workers", 0, "concurrent simulation passes (0 = one per CPU)")
	probe := flag.Bool("probe", false, "run the accumulation-order reproducibility matrix instead of the figures")
	probeSeeds := flag.Int("probeseeds", 4, "inject seeds swept per perturbed schedule (with -probe)")
	probeOut := flag.String("probeout", "", "write the probe fingerprint corpus as JSON (with -probe)")
	probeTraces := flag.String("probetraces", "", "directory for one representative .fpemon trace per probe kernel (with -probe)")
	shadow := flag.Bool("shadow", false, "run the shadow-precision root-cause study instead of the figures")
	shadowPrec := flag.Uint64("shadowprec", core.DefaultShadowPrec, "shadow precision in mantissa bits (with -shadow)")
	shadowOnly := flag.String("shadowonly", "", "comma-separated workloads to shadow (with -shadow; empty = all corpus apps)")
	shadowOut := flag.String("shadowout", "", "write the shadow report as JSON (with -shadow)")
	mitPrec := flag.Uint("mitprec", 0, "add an adaptive-precision mitigated leg at this precision (with -shadow)")
	metrics := flag.Bool("metrics", false, "collect observability metrics and print a summary")
	metricsOut := flag.String("metricsout", "", "write the final metrics snapshot as JSON (implies -metrics)")
	traceOut := flag.String("traceout", "", "write a Chrome trace_event file (implies -metrics)")
	pprofAddr := flag.String("pprof", "", "serve pprof and /metrics on this address")
	flag.Parse()

	s := study.NewWithWorkers(*workers)
	var om *obs.Metrics
	if *metrics || *metricsOut != "" || *traceOut != "" || *pprofAddr != "" {
		om = obs.New(obs.Options{TraceCapacity: 1 << 20})
		s.Obs = om
		defer emitObs(om, *metricsOut, *traceOut)
		sampler := obs.StartSelfSampler(om, 10*time.Millisecond)
		defer sampler.Stop()
	}
	if *pprofAddr != "" {
		srv, err := obs.Serve(*pprofAddr, om)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpstudy:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "fpstudy: pprof and /metrics on http://%s\n", srv.Addr)
	}
	if *probe {
		if err := runProbe(s, *probeSeeds, *probeOut, *probeTraces); err != nil {
			fmt.Fprintln(os.Stderr, "fpstudy:", err)
			os.Exit(1)
		}
		return
	}
	if *shadow {
		if err := runShadow(s, *shadowPrec, *shadowOnly, *shadowOut, *mitPrec); err != nil {
			fmt.Fprintln(os.Stderr, "fpstudy:", err)
			os.Exit(1)
		}
		return
	}
	gens := map[string]func() (*study.Table, error){
		"6": s.Figure6, "7": s.Figure7, "8": s.Figure8, "9": s.Figure9,
		"10": s.Figure10, "11": s.Figure11, "12": s.Figure12, "13": s.Figure13,
		"14": s.Figure14, "15": s.Figure15, "16": s.Figure16, "17": s.Figure17,
		"18": s.Figure18, "19": s.Figure19, "s6": s.Section6,
	}
	if *only != "" {
		g, ok := gens[strings.ToLower(*only)]
		if !ok {
			fmt.Fprintf(os.Stderr, "fpstudy: unknown artifact %q\n", *only)
			os.Exit(2)
		}
		t, err := g()
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpstudy:", err)
			os.Exit(1)
		}
		fmt.Println(t.Render())
		return
	}
	tables, err := s.All()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpstudy:", err)
		os.Exit(1)
	}
	for _, t := range tables {
		fmt.Println(t.Render())
	}
}

// runProbe executes the reproducibility conformance matrix and emits
// its artifacts. A nonzero failure count (including cross-cell
// fingerprint disagreement) is a hard error so CI fails the build.
func runProbe(s *study.Study, nseeds int, outFile, traceDir string) error {
	if nseeds < 1 {
		return fmt.Errorf("-probeseeds must be at least 1, got %d", nseeds)
	}
	seeds := make([]int64, nseeds)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	cells := study.DefaultProbeCells(workload.SizeSmall, seeds)
	r := s.ProbeMatrix(cells)
	fmt.Println(r.Table().Render())
	if outFile != "" {
		f, err := os.Create(outFile)
		if err != nil {
			return err
		}
		if err := r.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fpstudy: wrote %s (%d cells)\n", outFile, len(r.Cells))
	}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		for _, kind := range workload.ProbeKinds() {
			spec := workload.DefaultProbeSpec(kind, workload.SizeSmall)
			path := filepath.Join(traceDir, fmt.Sprintf("probe-%s.fpemon", kind))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			fp, err := study.WriteProbeTrace(spec, f)
			if err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "fpstudy: wrote %s (%s)\n", path, fp)
		}
	}
	if r.Failures > 0 {
		return fmt.Errorf("probe matrix: %d of %d cells failed (inconsistent: %v)",
			r.Failures, len(r.Cells), r.Inconsistent)
	}
	return nil
}

// runShadow executes the shadow-precision root-cause study and emits
// its artifacts. Cell errors are hard failures so CI fails the build.
func runShadow(s *study.Study, prec uint64, only, outFile string, mitPrec uint) error {
	var names []string
	if only != "" {
		for _, n := range strings.Split(only, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	cells := study.DefaultShadowCells(names, prec, mitPrec, workload.SizeSmall)
	r := s.ShadowMatrix(cells)
	fmt.Println(r.Table().Render())
	if outFile != "" {
		f, err := os.Create(outFile)
		if err != nil {
			return err
		}
		if err := r.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fpstudy: wrote %s (%d cells)\n", outFile, len(r.Cells))
	}
	if r.Failures > 0 {
		return fmt.Errorf("shadow study: %d of %d cells failed", r.Failures, len(r.Cells))
	}
	return nil
}

// emitObs prints the metrics summary and writes the snapshot/trace
// files after the study completes.
func emitObs(om *obs.Metrics, metricsOut, traceOut string) {
	fmt.Print(obs.RenderSummary(om.Snapshot()))
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpstudy:", err)
			os.Exit(1)
		}
		if err := om.Snapshot().WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "fpstudy:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "fpstudy:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "fpstudy: wrote %s\n", metricsOut)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpstudy:", err)
			os.Exit(1)
		}
		if err := om.Tracer.ExportChromeTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, "fpstudy:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "fpstudy:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "fpstudy: wrote %s (%d trace events)\n",
			traceOut, om.Tracer.Emitted()-om.Tracer.Dropped())
	}
}

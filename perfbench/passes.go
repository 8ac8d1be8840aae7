package main

import (
	"errors"
	"fmt"

	fpspy "repro"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// This file is the only place the benchmark calls kernel.Spawn and
// kernel.Run directly. The untraced run goes through fpspy.Run; the
// traced run needs guest setup and execution as two separate spans, so
// it repeats fpspy.Run's body here, with its defaults. The output checks
// compare both runs against the same expectations, so a drift between
// this copy and fpspy.Run fails the traced run.

const (
	passMemBytes = 16 << 20    // fpspy.Run's default guest memory
	passMaxSteps = 500_000_000 // fpspy.Run's default step budget
)

// pass runs prog under cfg (without the spy when noSpy). With l nil it
// is exactly fpspy.Run. Otherwise guest setup is a kernel.spawn span
// (with its heap allocation), execution is a span named runLayer, and m
// receives the program's own metrics. superblock reports whether every
// machine of the pass could dispatch superblocks, which RunStraight
// does unless a shadow sink is attached or superblocks are disabled;
// no program counter separates the two engines, so the traced run
// infers the superblock share of fast-path steps from this.
func pass(l *layers, prog *isa.Program, cfg fpspy.Config, noSpy bool, m *obs.Metrics, runLayer string) (res *fpspy.Result, superblock bool, err error) {
	if l == nil {
		res, err = fpspy.Run(prog, fpspy.Options{Config: cfg, NoSpy: noSpy})
		return res, false, err
	}
	k := kernel.New()
	k.Obs = m
	store := core.NewStore()
	env := map[string]string{}
	if !noSpy {
		k.RegisterPreload(core.PreloadName, core.FactoryObs(store, m))
		for key, v := range cfg.EnvVars() {
			env[key] = v
		}
	}
	var p *kernel.Process
	l.doAlloc("kernel.spawn", func() { p, err = k.Spawn(prog, passMemBytes, env) })
	if err != nil {
		return nil, false, err
	}
	var steps uint64
	l.doAlloc(runLayer, func() { steps = k.Run(passMaxSteps) })
	if !p.Exited {
		return nil, false, fmt.Errorf("%s did not finish within %d steps", prog.Name, uint64(passMaxSteps))
	}
	superblock = !k.NoFastPath
	for _, proc := range k.Procs {
		for _, t := range proc.Tasks {
			if t.M.Shadow != nil || t.M.NoSuperblock {
				superblock = false
			}
		}
	}
	user, sys := p.ProcessTimes()
	return &fpspy.Result{
		Store:      store,
		Steps:      steps,
		UserCycles: user,
		SysCycles:  sys,
		WallCycles: k.Cycles,
		ExitCode:   p.ExitCode,
		Kern:       k,
		Proc:       p,
		TraceErr:   errors.Join(store.FlushErrs()...),
	}, superblock, nil
}

package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	fpspy "repro"
	"repro/internal/analysis"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/study"
	"repro/internal/workload"
)

// spyCorpus is the paper's own traffic: one serial client runs every
// corpus guest (the seven apps, PARSEC and NAS at the study's size)
// through fpspy.Run under the five study configurations. Each pass is a
// cold op; reading its trace back (decode, then rank by form and by
// address, as the study's figures do) is the cached op that follows.
type spyCorpus struct {
	rng    *rand.Rand
	expRun *expectations[spyRunOut]
	expRd  *expectations[spyReadOut]

	guests []guest
	order  []spyOp
	builds []float64 // ms per setup spent building the guests

	// Traced run state: one obs registry per configuration.
	obs     map[string]*obs.Metrics
	sbSteps uint64 // fast-path steps of passes that could use superblocks
	retired map[string]uint64
	wall    map[string]uint64
	userCyc uint64
	sysCyc  uint64
	// nasNoSpy holds guest setup and run time of the NAS no-spy passes,
	// by kernel.
	nasNoSpy map[string]*[2]float64
}

// guest is one corpus program, built once at setup.
type guest struct {
	name  string
	suite workload.Suite
	prog  *isa.Program
}

// spyConfig is one of the study's five configurations.
type spyConfig struct {
	name  string
	cfg   fpspy.Config
	noSpy bool
}

var spyConfigs = []spyConfig{
	{"nospy", fpspy.Config{}, true},
	{"aggregate", study.AggregateConfig(), false},
	{"individual", fpspy.Config{Mode: fpspy.ModeIndividual, ExceptList: fpspy.AllEvents}, false},
	{"filtered", study.FilteredConfig(), false},
	{"sampled", study.SampledConfig(), false},
}

type spyOp struct {
	guest int
	cfg   int
}

// spyRunOut is what a pass must reproduce exactly.
type spyRunOut struct {
	Steps, User, Sys, Wall uint64
	Exit                   int
}

// spyReadOut is what reading a pass's trace back must reproduce.
type spyReadOut struct {
	Records, Aggregates int
	Flags               uint64
	Forms, Addrs        int
}

func newSpyCorpus(seed int64, record bool) (*spyCorpus, error) {
	er, err := loadExpectations[spyRunOut]("spy-corpus-pass", record)
	if err != nil {
		return nil, err
	}
	ed, err := loadExpectations[spyReadOut]("spy-corpus-read", record)
	if err != nil {
		return nil, err
	}
	return &spyCorpus{rng: rand.New(rand.NewSource(seed)), expRun: er, expRd: ed}, nil
}

func (s *spyCorpus) setup(traced bool) error {
	var ws []*workload.Workload
	ws = append(ws, workload.Apps()...)
	ws = append(ws, workload.Parsec()...)
	ws = append(ws, workload.NAS()...)
	s.guests = s.guests[:0]
	t0 := time.Now()
	for _, w := range ws {
		s.guests = append(s.guests, guest{name: w.Meta.Name, suite: w.Meta.Suite, prog: w.Build(workload.SizeLarge)})
	}
	s.builds = append(s.builds, float64(time.Since(t0).Nanoseconds())/1e6)
	s.order = s.order[:0]
	for g := range s.guests {
		for c := range spyConfigs {
			s.order = append(s.order, spyOp{guest: g, cfg: c})
		}
	}
	s.obs = map[string]*obs.Metrics{}
	s.retired = map[string]uint64{}
	s.wall = map[string]uint64{}
	s.sbSteps, s.userCyc, s.sysCyc = 0, 0, 0
	s.nasNoSpy = map[string]*[2]float64{}
	if traced {
		for _, c := range spyConfigs {
			// The program's own spans are not exported; a small ring
			// keeps the registry cheap.
			s.obs[c.name] = obs.New(obs.Options{TraceCapacity: 1024})
		}
	}
	return nil
}

// warm runs one individual-mode pass per guest, which fills the
// program's content-keyed static-analysis cache.
func (s *spyCorpus) warm() error {
	c := spyConfigs[2] // individual
	for _, g := range s.guests {
		res, _, err := pass(nil, g.prog, c.cfg, c.noSpy, nil, "")
		if err != nil {
			return fmt.Errorf("%s: %w", g.name, err)
		}
		key := g.name + "/" + c.name
		if err := s.expRun.check(key, spyRunOut{res.Steps, res.UserCycles, res.SysCycles, res.WallCycles, res.ExitCode}); err != nil {
			return err
		}
	}
	return nil
}

func (s *spyCorpus) jobsPerRound() int { return len(s.order) }
func (s *spyCorpus) clients() int      { return 1 }

// A 30 s run makes seven rounds, 1,400 passes and 1,120 read-backs, so
// p99 keeps ten samples beyond it; a shorter run goes on until it does.
func (s *spyCorpus) tailPct() float64 { return 99 }

func (s *spyCorpus) round(l *layers, log *opLog) {
	s.rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
	for _, op := range s.order {
		g, c := s.guests[op.guest], spyConfigs[op.cfg]
		key := g.name + "/" + c.name
		var res *fpspy.Result
		log.op(classCold, func() error {
			r, err := s.runPass(l, g, c)
			if err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			res = r
			return s.expRun.check(key, spyRunOut{r.Steps, r.UserCycles, r.SysCycles, r.WallCycles, r.ExitCode})
		})
		if res == nil || c.noSpy {
			continue
		}
		log.op(classCached, func() error { return s.readBack(l, key, res) })
	}
}

// runPass runs one pass, feeding the traced run's per-configuration
// registry and counts.
func (s *spyCorpus) runPass(l *layers, g guest, c spyConfig) (*fpspy.Result, error) {
	m := s.obs[c.name]
	var fast0 uint64
	if m != nil {
		fast0 = m.Kernel.FastSteps.Load()
	}
	runLayer := "kernel.run." + c.name
	var spawn0, run0 float64
	if l != nil {
		spawn0, run0 = l.ms("kernel.spawn"), l.ms(runLayer)
	}
	res, superblock, err := pass(l, g.prog, c.cfg, c.noSpy, m, runLayer)
	if err != nil {
		return nil, err
	}
	if l != nil && c.noSpy && g.suite == workload.SuiteNAS {
		t := s.nasNoSpy[g.name]
		if t == nil {
			t = new([2]float64)
			s.nasNoSpy[g.name] = t
		}
		t[0] += l.ms("kernel.spawn") - spawn0
		t[1] += l.ms(runLayer) - run0
	}
	if res.TraceErr != nil {
		return nil, fmt.Errorf("trace flush: %w", res.TraceErr)
	}
	if l != nil {
		if superblock {
			s.sbSteps += m.Kernel.FastSteps.Load() - fast0
		}
		s.retired[c.name] += res.Steps
		s.wall[c.name] += res.WallCycles
		s.userCyc += res.UserCycles
		s.sysCyc += res.SysCycles
	}
	return res, nil
}

// readBack decodes a pass's trace and ranks its records, as fptrace and
// the study's Figures 17-19 do.
func (s *spyCorpus) readBack(l *layers, key string, res *fpspy.Result) error {
	var recs []fpspy.Record
	var aggs []fpspy.Aggregate
	var err error
	l.do("trace.decode", 0, func() {
		recs, err = res.Records()
		aggs = res.Aggregates()
	})
	if err != nil {
		return fmt.Errorf("%s: decode: %w", key, err)
	}
	var forms, addrs []analysis.RankEntry
	l.do("analysis.rank", 0, func() {
		forms = analysis.RankByForm(recs)
		addrs = analysis.RankByAddress(recs)
	})
	var flags fpspy.Flags
	for _, a := range aggs {
		flags |= a.Flags
	}
	for i := range recs {
		flags |= recs[i].Raised
	}
	return s.expRd.check(key, spyReadOut{len(recs), len(aggs), uint64(flags), len(forms), len(addrs)})
}

func (s *spyCorpus) layerMetrics(l *layers, rounds int) map[string]float64 {
	n := float64(rounds)
	out := map[string]float64{
		"workload.build_ms":      median(s.builds),
		"kernel.spawn_ms":        l.ms("kernel.spawn") / n,
		"kernel.spawn_alloc_mib": l.allocBytes("kernel.spawn") / mib / n,
		"trace.decode_ms":        l.ms("trace.decode") / n,
		"analysis.rank_ms":       l.ms("analysis.rank") / n,
		"kernel.sim_cycles.user": float64(s.userCyc) / n,
		"kernel.sim_cycles.sys":  float64(s.sysCyc) / n,
	}
	var total programCounts
	var retired uint64
	for _, c := range spyConfigs {
		out["kernel.run_ms."+c.name] = l.ms("kernel.run."+c.name) / n
		total.add(countsOf(s.obs[c.name]))
		retired += s.retired[c.name]
	}
	for _, c := range []string{"nospy", "aggregate"} {
		out["machine.ns_per_inst."+c] = l.ms("kernel.run."+c) * 1e6 / float64(s.retired[c])
	}
	total.perRound(out, n)
	out["kernel.retired"] = float64(retired) / n
	out["machine.fast_share"] = float64(s.sbSteps) / float64(retired)
	ind := countsOf(s.obs["individual"])
	out["core.host_us_per_event"] = (l.ms("kernel.run.individual") - l.ms("kernel.run.aggregate")) * 1e3 / float64(ind.faults)
	out["sim.overhead_x.individual"] = float64(s.wall["individual"]) / float64(s.wall["nospy"])
	return out
}

// shape only describes: whether guest setup outlasts the run of a short
// NAS pass is a timing, not a deterministic prediction.
func (s *spyCorpus) shape(*opLog) []string {
	var names []string
	for n := range s.nasNoSpy {
		names = append(names, n)
	}
	sort.Strings(names)
	above := 0
	var out []string
	for _, n := range names {
		t := s.nasNoSpy[n]
		if t[0] > t[1] {
			above++
		}
		out = append(out, fmt.Sprintf("%s no-spy: kernel.spawn %.3f ms vs kernel.run %.3f ms", n, t[0], t[1]))
	}
	return append(out, fmt.Sprintf("NAS no-spy passes whose guest setup outlasts their run: %d of %d", above, len(names)))
}

func (s *spyCorpus) close() {}

func (s *spyCorpus) writeExpectations(dir string) error {
	if err := s.expRun.write(dir); err != nil {
		return err
	}
	return s.expRd.write(dir)
}

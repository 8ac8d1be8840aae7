package main

import (
	"fmt"
	"math/rand"
	"time"

	fpspy "repro"
	"repro/internal/obs"
	"repro/internal/study"
	"repro/internal/workload"
)

// shadowPrec is the precision the shadow study runs its cells at.
const shadowPrec = 113

// shadowRootCause runs the cells of the shadow-precision root-cause
// study (fpstudy -shadow at precision 113) over the seven apps plus
// nas-cg and nas-mg at SizeSmall. A cell is fpspy.Run with the shadow
// channel attached (the cold op), then Result.RootCause ranking the
// sites the pass left in its store (the cached op).
type shadowRootCause struct {
	rng    *rand.Rand
	expRun *expectations[shadowRunOut]
	expRC  *expectations[shadowReadOut]

	guests []guest
	builds []float64

	// Traced run state.
	obs     *obs.Metrics
	retired uint64
	sites   uint64
	userCyc uint64
	sysCyc  uint64
	sbSteps uint64
}

type shadowRunOut struct {
	Steps, User, Sys, Wall uint64
}

type shadowReadOut struct {
	Ops            uint64
	Sites, Sites99 int
	TopAddr        uint64
	TopOp          string
}

func newShadowRootCause(seed int64, record bool) (*shadowRootCause, error) {
	er, err := loadExpectations[shadowRunOut]("shadow-rootcause-pass", record)
	if err != nil {
		return nil, err
	}
	ec, err := loadExpectations[shadowReadOut]("shadow-rootcause-read", record)
	if err != nil {
		return nil, err
	}
	return &shadowRootCause{rng: rand.New(rand.NewSource(seed)), expRun: er, expRC: ec}, nil
}

func (s *shadowRootCause) setup(traced bool) error {
	var names []string
	for _, w := range workload.Apps() {
		names = append(names, w.Meta.Name)
	}
	names = append(names, "nas-cg", "nas-mg")
	s.guests = s.guests[:0]
	t0 := time.Now()
	for _, n := range names {
		w, err := workload.ByName(n)
		if err != nil {
			return err
		}
		s.guests = append(s.guests, guest{name: n, prog: w.Build(workload.SizeSmall)})
	}
	s.builds = append(s.builds, float64(time.Since(t0).Nanoseconds())/1e6)
	s.obs = nil
	s.retired, s.sites, s.userCyc, s.sysCyc, s.sbSteps = 0, 0, 0, 0, 0
	if traced {
		s.obs = obs.New(obs.Options{TraceCapacity: 1024})
	}
	return nil
}

// warm runs one shadow pass per guest.
func (s *shadowRootCause) warm() error {
	for _, g := range s.guests {
		res, _, err := pass(nil, g.prog, study.ShadowConfig(shadowPrec), false, nil, "")
		if err != nil {
			return fmt.Errorf("%s: %w", g.name, err)
		}
		if err := s.expRun.check(g.name, shadowRunOut{res.Steps, res.UserCycles, res.SysCycles, res.WallCycles}); err != nil {
			return err
		}
	}
	return nil
}

func (s *shadowRootCause) jobsPerRound() int { return len(s.guests) }
func (s *shadowRootCause) clients() int      { return 1 }

// A 30 s run makes about 800 cells: p90 keeps ten samples beyond it,
// p99 would not.
func (s *shadowRootCause) tailPct() float64 { return 90 }

func (s *shadowRootCause) round(l *layers, log *opLog) {
	s.rng.Shuffle(len(s.guests), func(i, j int) { s.guests[i], s.guests[j] = s.guests[j], s.guests[i] })
	cfg := study.ShadowConfig(shadowPrec)
	for _, g := range s.guests {
		key := g.name
		var res *fpspy.Result
		log.op(classCold, func() error {
			var fast0 uint64
			if s.obs != nil {
				fast0 = s.obs.Kernel.FastSteps.Load()
			}
			r, superblock, err := pass(l, g.prog, cfg, false, s.obs, "shadow.run")
			if err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			if r.TraceErr != nil {
				return fmt.Errorf("%s: trace flush: %w", key, r.TraceErr)
			}
			if l != nil {
				if superblock {
					s.sbSteps += s.obs.Kernel.FastSteps.Load() - fast0
				}
				s.retired += r.Steps
				s.userCyc += r.UserCycles
				s.sysCyc += r.SysCycles
			}
			res = r
			return s.expRun.check(key, shadowRunOut{r.Steps, r.UserCycles, r.SysCycles, r.WallCycles})
		})
		if res == nil {
			continue
		}
		log.op(classCached, func() error {
			var rep *fpspy.RootCauseReport
			l.do("analysis.rootcause", 0, func() { rep = res.RootCause(shadowPrec) })
			if rep == nil {
				return fmt.Errorf("%s: no shadow sites", key)
			}
			top, _ := rep.TopSite()
			s.sites += uint64(len(rep.Sites))
			return s.expRC.check(key, shadowReadOut{rep.TotalOps, len(rep.Sites), rep.Sites99, top.Addr, top.Op})
		})
	}
}

func (s *shadowRootCause) layerMetrics(l *layers, rounds int) map[string]float64 {
	n := float64(rounds)
	c := countsOf(s.obs)
	out := map[string]float64{
		"workload.build_ms":      median(s.builds),
		"kernel.spawn_ms":        l.ms("kernel.spawn") / n,
		"kernel.spawn_alloc_mib": l.allocBytes("kernel.spawn") / mib / n,
		"shadow.run_ms":          l.ms("shadow.run") / n,
		"shadow.sites":           float64(s.sites) / n,
		"shadow.ns_per_op":       l.ms("shadow.run") * 1e6 / float64(c.shadowOps),
		"shadow.allocs_per_op":   l.allocObjects("shadow.run") / float64(c.shadowOps),
		"analysis.rootcause_ms":  l.ms("analysis.rootcause") / n,
		"kernel.retired":         float64(s.retired) / n,
		"kernel.sim_cycles.user": float64(s.userCyc) / n,
		"kernel.sim_cycles.sys":  float64(s.sysCyc) / n,
		"machine.fast_share":     float64(s.sbSteps) / float64(s.retired),
	}
	c.perRound(out, n)
	return out
}

func (s *shadowRootCause) shape(log *opLog) []string {
	if s.sbSteps != 0 {
		log.fail(fmt.Errorf("shape: %d superblock-eligible fast-path steps under a shadow sink, predicted 0", s.sbSteps))
	}
	return []string{fmt.Sprintf("superblock-eligible fast-path steps: %d of %d retired (predicted 0: a shadow sink forces the Step engine)", s.sbSteps, s.retired)}
}

func (s *shadowRootCause) close() {}

func (s *shadowRootCause) writeExpectations(dir string) error {
	if err := s.expRun.write(dir); err != nil {
		return err
	}
	return s.expRC.write(dir)
}

// Package adaptive implements the system the FPSpy paper's Section 6
// sketches and its conclusion says is under construction: "a
// trap-and-emulate approach to integrating higher precision" underneath
// existing, unmodified binaries. Like FPSpy, it is an LD_PRELOAD object
// that unmasks floating point exceptions; unlike FPSpy, when a rounding
// (Inexact) trap arrives it does not merely log and single-step — it
// *emulates* the faulting instruction against an arbitrary-precision
// software FPU (the shadow evaluator of internal/shadow, math/big.Float
// standing in for MPFR), writes the result back through the signal
// context, and advances the instruction pointer past the instruction.
// The hardware never executes the rounding operation at all.
//
// Shadow state is tracked per register and validated by value: a shadow
// is used only while its binary64 rounding still equals the live
// register contents, so values that travel through memory or are
// overwritten by unobserved instructions safely fall back to their
// hardware precision. Instructions the evaluator does not model, and
// every instruction retired under a non-default FP environment
// (directed rounding, FTZ or DAZ — the shadow channel's gate), fall back
// to FPSpy's mask-and-single-step protocol, so the application always
// makes progress with exactly the hardware's result.
package adaptive

import (
	"math/big"

	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/shadow"
	"repro/internal/softfloat"
)

// PreloadName is the object name for LD_PRELOAD.
const PreloadName = "fpmitigate.so"

// Stats aggregates what the mitigator did across a run.
type Stats struct {
	// Emulated counts instructions executed by the software FPU.
	Emulated uint64
	// Improved counts emulated instructions whose written-back result
	// differed from what the hardware would have produced — rounding
	// error the mitigation removed.
	Improved uint64
	// Fallbacks counts instructions handled by single-stepping instead.
	Fallbacks uint64
}

// shadowVal pairs a high-precision value with the binary64 pattern it
// rounds to; the shadow is valid only while the live register still
// holds that pattern.
type shadowVal struct {
	v    *big.Float
	bits uint64
}

type threadState struct {
	regs     [isa.NumVecRegs]shadowVal
	stepping bool // single-step fallback in flight
}

// shadowOf returns the validated shadow of register r's lane 0, or nil
// when there is none (the evaluator then uses the hardware value). A
// stale shadow is dropped for good: once the register has been
// overwritten unobserved, the value it later holds is the hardware's,
// even if its bits happen to match again.
func (ts *threadState) shadowOf(cpu *machine.CPU, r uint8) *big.Float {
	s := &ts.regs[r]
	if s.v != nil && s.bits != cpu.X[r][0] {
		*s = shadowVal{}
	}
	return s.v
}

// Mitigator is one process's adaptive-precision instance.
type Mitigator struct {
	proc    *kernel.Process
	prec    uint
	stats   *Stats
	threads map[int]*threadState
}

// Factory returns the preload factory; register it under PreloadName.
// prec is the software FPU's mantissa precision in bits.
func Factory(prec uint, stats *Stats) kernel.ObjectFactory {
	return func(p *kernel.Process) *kernel.Object {
		m := &Mitigator{proc: p, prec: prec, stats: stats, threads: make(map[int]*threadState)}
		obj := &kernel.Object{Name: PreloadName, Syms: map[string]kernel.Symbol{}}
		obj.Constructor = m.construct
		obj.Syms["pthread_create"] = m.wrapThreadCreate
		obj.Syms["clone"] = m.wrapThreadCreate
		return obj
	}
}

func (m *Mitigator) construct(k *kernel.Kernel, t *kernel.Task) {
	k.SetSigAction(m.proc, kernel.SIGFPE, &kernel.SigAction{Host: m.onSIGFPE})
	k.SetSigAction(m.proc, kernel.SIGTRAP, &kernel.SigAction{Host: m.onSIGTRAP})
	m.threadInit(t)
}

func (m *Mitigator) threadInit(t *kernel.Task) {
	m.threads[t.TID] = &threadState{}
	t.M.CPU.MXCSR.Unmask(softfloat.FlagInexact)
}

func (m *Mitigator) wrapThreadCreate(k *kernel.Kernel, t *kernel.Task) {
	real := m.proc.Linker.ResolveAfter(PreloadName, "pthread_create")
	if real == nil {
		return
	}
	real(k, t)
	newTID := int(t.M.CPU.R[isa.R1])
	for _, nt := range m.proc.Tasks {
		if nt.TID == newTID {
			m.threadInit(nt)
		}
	}
}

// emulate attempts software execution of the faulting instruction. It
// returns false when shadow.Emulate64 declines it (a form outside the
// evaluator's repertoire, a non-default FP environment, or a non-finite
// result).
func (m *Mitigator) emulate(ts *threadState, t *kernel.Task, inst *isa.Inst) bool {
	info := inst.Op.Info()
	cpu := &t.M.CPU
	var nat [3]uint64
	var sh [3]*big.Float
	switch info.Class {
	case isa.ClassFPConvert:
		nat[0] = cpu.R[inst.Rs1] // int-to-float: an integer operand
	case isa.ClassFPArith, isa.ClassFMA:
		for i, r := range [...]uint8{inst.Rs1, inst.Rs2, inst.Rs3} {
			if i < 2 || info.Class == isa.ClassFMA {
				nat[i], sh[i] = cpu.X[r][0], ts.shadowOf(cpu, r)
			}
		}
	}
	v, bits, hw, ok := shadow.Emulate64(info, cpu.MXCSR.Env(), nat, sh, m.prec)
	if !ok {
		return false
	}
	// The shadow keeps full precision, the architectural register gets
	// its binary64 rounding.
	cpu.X[inst.Rd][0] = bits
	ts.regs[inst.Rd] = shadowVal{v: v, bits: bits}
	m.stats.Emulated++
	if bits != hw {
		m.stats.Improved++
	}
	// The instruction is fully emulated: skip it.
	cpu.RIP += isa.InstBytes
	return true
}

// onSIGFPE handles a rounding trap: emulate if possible, otherwise fall
// back to the FPSpy-style mask-and-single-step so the instruction runs
// once on the hardware.
func (m *Mitigator) onSIGFPE(k *kernel.Kernel, t *kernel.Task, info *kernel.SigInfo, mc *kernel.MContext) {
	ts := m.threads[t.TID]
	if ts == nil {
		ts = &threadState{}
		m.threads[t.TID] = ts
	}
	mc.CPU.MXCSR.ClearFlags()
	idx := t.M.Prog.IndexOf(info.Addr)
	if idx >= 0 && m.emulate(ts, t, &t.M.Prog.Insts[idx]) {
		return
	}
	// Fallback: let the hardware run it once.
	m.stats.Fallbacks++
	mc.CPU.MXCSR.Mask(softfloat.FlagInexact)
	mc.CPU.TF = true
	ts.stepping = true
}

func (m *Mitigator) onSIGTRAP(k *kernel.Kernel, t *kernel.Task, info *kernel.SigInfo, mc *kernel.MContext) {
	ts := m.threads[t.TID]
	if ts == nil || !ts.stepping {
		return
	}
	ts.stepping = false
	mc.CPU.MXCSR.ClearFlags()
	mc.CPU.MXCSR.Unmask(softfloat.FlagInexact)
	mc.CPU.TF = false
}

// PatchedMitigator is the *binary patching* flavor of Section 6's
// mitigation system — the alternative whose economics the
// rank-popularity feasibility analysis evaluates. Instead of unmasking
// floating point exceptions (two kernel crossings per event: the fault
// and the single-step trap), the rounding sites discovered by an FPSpy
// profile are patched with permanent breakpoints; each visit takes a
// single SIGILL crossing, the instruction is emulated at high precision,
// and control continues past it. The hardware FPU never executes the
// patched instructions at all, so no exception unmasking is needed.
type PatchedMitigator struct {
	proc    *kernel.Process
	prec    uint
	sites   []uint64
	stats   *Stats
	threads map[int]*threadState
}

// PatchedFactory returns a preload object that patches the given
// instruction addresses at load time. Register under PatchedPreloadName.
func PatchedFactory(prec uint, sites []uint64, stats *Stats) kernel.ObjectFactory {
	return func(p *kernel.Process) *kernel.Object {
		m := &PatchedMitigator{proc: p, prec: prec, sites: sites, stats: stats,
			threads: make(map[int]*threadState)}
		obj := &kernel.Object{Name: PatchedPreloadName, Syms: map[string]kernel.Symbol{}}
		obj.Constructor = m.construct
		obj.Syms["pthread_create"] = m.wrapThreadCreate
		obj.Syms["clone"] = m.wrapThreadCreate
		return obj
	}
}

// PatchedPreloadName is the LD_PRELOAD name of the patching mitigator.
const PatchedPreloadName = "fppatch.so"

func (m *PatchedMitigator) construct(k *kernel.Kernel, t *kernel.Task) {
	k.SetSigAction(m.proc, kernel.SIGILL, &kernel.SigAction{Host: m.onSIGILL})
	m.threadInit(t)
}

func (m *PatchedMitigator) threadInit(t *kernel.Task) {
	m.threads[t.TID] = &threadState{}
	// Patch the profiled sites in this hardware thread's view.
	for _, addr := range m.sites {
		t.M.SetBreakpoint(addr)
	}
}

func (m *PatchedMitigator) wrapThreadCreate(k *kernel.Kernel, t *kernel.Task) {
	real := m.proc.Linker.ResolveAfter(PatchedPreloadName, "pthread_create")
	if real == nil {
		return
	}
	real(k, t)
	newTID := int(t.M.CPU.R[isa.R1])
	for _, nt := range m.proc.Tasks {
		if nt.TID == newTID {
			m.threadInit(nt)
		}
	}
}

// onSIGILL emulates the patched instruction and steps past it — one
// kernel crossing per event.
func (m *PatchedMitigator) onSIGILL(k *kernel.Kernel, t *kernel.Task, info *kernel.SigInfo, mc *kernel.MContext) {
	ts := m.threads[t.TID]
	if ts == nil {
		ts = &threadState{}
		m.threads[t.TID] = ts
	}
	idx := t.M.Prog.IndexOf(info.Addr)
	if idx >= 0 {
		// emulate advances RIP itself on success; reuse the shared
		// emulator via a Mitigator shim bound to this thread state.
		shim := &Mitigator{proc: m.proc, prec: m.prec, stats: m.stats,
			threads: m.threads}
		if shim.emulate(ts, t, &t.M.Prog.Insts[idx]) {
			return
		}
	}
	// Unsupported instruction at a patched site: unpatch it and let the
	// hardware run it (self-healing, like a patch-point blacklist).
	m.stats.Fallbacks++
	t.M.ClearBreakpoint(info.Addr)
}

// ProfileRoundingSites runs prog briefly under full individual-mode
// capture and returns the distinct scalar-double rounding sites — the
// profile a production patcher would take from FPSpy traces.
func ProfileRoundingSites(prog *isa.Program, memBytes int, maxSteps uint64) ([]uint64, error) {
	k := kernel.New()
	seen := make(map[uint64]bool)
	var sites []uint64
	p, err := k.Spawn(prog, memBytes, nil)
	if err != nil {
		return nil, err
	}
	k.SetSigAction(p, kernel.SIGFPE, &kernel.SigAction{Host: func(k *kernel.Kernel, t *kernel.Task, info *kernel.SigInfo, mc *kernel.MContext) {
		if !seen[info.Addr] {
			seen[info.Addr] = true
			sites = append(sites, info.Addr)
		}
		mc.CPU.MXCSR.ClearFlags()
		mc.CPU.MXCSR.Mask(softfloat.Flags(0x3F))
		mc.CPU.TF = true
	}})
	k.SetSigAction(p, kernel.SIGTRAP, &kernel.SigAction{Host: func(k *kernel.Kernel, t *kernel.Task, info *kernel.SigInfo, mc *kernel.MContext) {
		mc.CPU.MXCSR.ClearFlags()
		mc.CPU.MXCSR.Unmask(softfloat.FlagInexact)
		mc.CPU.TF = false
	}})
	p.Tasks[0].M.CPU.MXCSR.Unmask(softfloat.FlagInexact)
	k.Run(maxSteps)
	return sites, nil
}

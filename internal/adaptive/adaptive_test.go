package adaptive_test

import (
	"math"
	"testing"

	fpspy "repro"
	"repro/internal/adaptive"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// buildNaiveSum sums `inc` n times into x0 and stores the result at 128.
func buildNaiveSum(n int64, inc float64) *fpspy.Program {
	b := fpspy.NewProgram("naive-sum")
	b.Movi(isa.R6, int64(math.Float64bits(inc)))
	b.Movqx(isa.X1, isa.R6)
	b.Movqx(isa.X0, isa.R0)
	b.Movi(isa.R8, 0)
	b.Movi(isa.R9, n)
	top := b.Label("top")
	b.Bind(top)
	b.FP2(isa.OpADDSD, isa.X0, isa.X0, isa.X1)
	b.Addi(isa.R8, isa.R8, 1)
	b.Blt(isa.R8, isa.R9, top)
	b.Movi(isa.R10, 128)
	b.Fst(isa.R10, 0, isa.X0)
	b.Hlt()
	return b.Build()
}

func sumAt128(res *fpspy.Result) float64 {
	v, _ := res.Proc.Mem.Load64(128)
	return math.Float64frombits(v)
}

func TestMitigatedSummationIsMoreAccurate(t *testing.T) {
	const n = 50000
	exact := float64(n) * 0.1

	plain, err := fpspy.Run(buildNaiveSum(n, 0.1), fpspy.Options{NoSpy: true})
	if err != nil {
		t.Fatal(err)
	}
	mitigated, stats, err := fpspy.RunMitigated(buildNaiveSum(n, 0.1), 256, fpspy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plainErr := math.Abs(sumAt128(plain) - exact)
	mitErr := math.Abs(sumAt128(mitigated) - exact)
	// The first two additions (0+0.1 and 0.1+0.1) are exact and never
	// trap.
	if stats.Emulated < n-2 {
		t.Errorf("emulated = %d, want ~%d", stats.Emulated, n)
	}
	if stats.Improved == 0 {
		t.Error("no instruction's result improved")
	}
	if mitErr >= plainErr {
		t.Errorf("mitigated error %.3e not better than plain %.3e", mitErr, plainErr)
	}
	// The mitigated sum is correctly rounded from a 256-bit running sum:
	// within one ulp of exact.
	if mitErr > exact*1e-15 {
		t.Errorf("mitigated error %.3e too large", mitErr)
	}
	t.Logf("plain err %.3e, mitigated err %.3e, emulated %d improved %d fallbacks %d",
		plainErr, mitErr, stats.Emulated, stats.Improved, stats.Fallbacks)
}

func TestMitigationValueThroughMemoryStaysCorrect(t *testing.T) {
	// A value that round-trips through memory loses its shadow but must
	// keep its (rounded) value: compute 1/3, store, reload, multiply by
	// 3, store. The final value must equal the hardware-consistent
	// chain's within an ulp — and critically must not be garbage from a
	// stale shadow.
	b := fpspy.NewProgram("memtrip")
	b.Movi(isa.R6, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R6)
	b.Movi(isa.R6, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R6)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1) // 1/3 (emulated)
	b.Movi(isa.R10, 128)
	b.Fst(isa.R10, 0, isa.X2)
	// Clobber x2 with an unobserved move, then reload from memory.
	b.Movqx(isa.X2, isa.R0)
	b.Fld(isa.X2, isa.R10, 0)
	b.FP2(isa.OpMULSD, isa.X3, isa.X2, isa.X1) // (1/3)*3 (emulated)
	b.Movi(isa.R10, 136)
	b.Fst(isa.R10, 0, isa.X3)
	b.Hlt()
	res, stats, err := fpspy.RunMitigated(b.Build(), 256, fpspy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem := res.Proc.Mem
	read := func(off uint64) float64 {
		v, _ := mem.Load64(off)
		return math.Float64frombits(v)
	}
	third := read(128)
	product := read(136)
	if third != 1.0/3.0 {
		t.Errorf("stored third = %v", third)
	}
	// (1/3 rounded) * 3 at high precision rounds to exactly 1.0.
	if product != 1.0 && math.Abs(product-1.0) > 1e-15 {
		t.Errorf("product = %v", product)
	}
	if stats.Emulated < 2 {
		t.Errorf("emulated = %d", stats.Emulated)
	}
}

func TestMitigationFallbackKeepsProgress(t *testing.T) {
	// A packed (unsupported) rounding instruction must fall back to
	// single-stepping and still complete with the hardware result.
	b := fpspy.NewProgram("fallback")
	third := 1.0 / 3.0
	addr := b.Float64s(third, third, third, third)
	b.Movi(isa.R9, int64(addr))
	b.Fldv(isa.X0, isa.R9, 0)
	b.Fldv(isa.X1, isa.R9, 0)
	b.FP2(isa.OpMULPD, isa.X2, isa.X0, isa.X1) // packed: falls back
	b.FP2(isa.OpMULSD, isa.X3, isa.X0, isa.X1) // scalar: emulated
	b.Hlt()
	res, stats, err := fpspy.RunMitigated(b.Build(), 128, fpspy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit %d", res.ExitCode)
	}
	if stats.Fallbacks == 0 {
		t.Error("packed op did not fall back")
	}
	if stats.Emulated == 0 {
		t.Error("scalar op not emulated")
	}
	cpu := &res.Proc.Tasks[0].M.CPU
	wantAdd := math.Float64bits(third * third)
	wantMul := math.Float64bits(third * third)
	if cpu.X[isa.X2][0] != wantAdd || cpu.X[isa.X3][0] != wantMul {
		t.Errorf("results: packed %#x scalar %#x want %#x %#x",
			cpu.X[isa.X2][0], cpu.X[isa.X3][0], wantAdd, wantMul)
	}
}

func TestMitigatedThreads(t *testing.T) {
	// Both threads' rounding is mitigated independently.
	b := fpspy.NewProgram("threads")
	worker := b.Label("worker")
	b.Lea(isa.R1, worker)
	b.Movi(isa.R2, 0)
	b.CallC("pthread_create")
	b.Movi(isa.R6, int64(math.Float64bits(0.1)))
	b.Movqx(isa.X1, isa.R6)
	b.Movqx(isa.X0, isa.R0)
	for i := 0; i < 10; i++ {
		b.FP2(isa.OpADDSD, isa.X0, isa.X0, isa.X1)
	}
	// Wait for worker flag.
	b.Movi(isa.R7, 1024)
	wait := b.Label("wait")
	b.Bind(wait)
	b.Ld(isa.R6, isa.R7, 0)
	b.Beq(isa.R6, isa.R0, wait)
	b.Hlt()
	b.Bind(worker)
	b.Movi(isa.R6, int64(math.Float64bits(0.2)))
	b.Movqx(isa.X1, isa.R6)
	b.Movqx(isa.X0, isa.R0)
	for i := 0; i < 10; i++ {
		b.FP2(isa.OpADDSD, isa.X0, isa.X0, isa.X1)
	}
	b.Movi(isa.R3, 1024)
	b.Movi(isa.R4, 1)
	b.St(isa.R3, 0, isa.R4)
	b.CallC("pthread_exit")
	_, stats, err := fpspy.RunMitigated(b.Build(), 256, fpspy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A few early additions in each thread are exact and never trap.
	if stats.Emulated < 12 {
		t.Errorf("emulated = %d, want most of ~20 across both threads", stats.Emulated)
	}
}

func TestMitigationOnNASKernel(t *testing.T) {
	// The mitigator runs underneath a real study workload: the NAS CG
	// kernel completes, with the bulk of its scalar double rounding
	// emulated at 128-bit precision and no crashes from the mixed
	// scalar/convert instruction stream.
	w, err := workload.ByName("nas-cg")
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := fpspy.RunMitigated(w.Build(workload.SizeSmall), 128, fpspy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit %d", res.ExitCode)
	}
	if stats.Emulated == 0 {
		t.Error("nothing emulated")
	}
	t.Logf("nas-cg mitigated: %d emulated, %d improved, %d fallbacks",
		stats.Emulated, stats.Improved, stats.Fallbacks)
}

func TestMitigationOnMiniaeroCalibrated(t *testing.T) {
	// Miniaero's calibrated build mixes sqrt, divide, min/max and
	// conversions; min/max raise no rounding traps, everything else is
	// either emulated or single-stepped, and the run completes.
	res, stats, err := fpspy.RunMitigated(workload.BuildMiniaeroCalibrated(workload.SizeSmall), 256, fpspy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit %d", res.ExitCode)
	}
	if stats.Emulated == 0 {
		t.Error("nothing emulated")
	}
}

func TestPatchedMitigatorEmulatesAtSites(t *testing.T) {
	// Profile the summation kernel, patch its rounding site, and run
	// with the binary-patching mitigator: same accuracy as
	// trap-and-emulate, but with permanent stubs and no FP unmasking.
	const n = 20000
	prog := buildNaiveSum(n, 0.1)
	sites, err := adaptive.ProfileRoundingSites(prog, 1<<21, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 1 {
		t.Fatalf("profiled sites = %d, want the single addsd", len(sites))
	}

	k := kernel.New()
	stats := &adaptive.Stats{}
	k.RegisterPreload(adaptive.PatchedPreloadName, adaptive.PatchedFactory(256, sites, stats))
	p, err := k.Spawn(buildNaiveSum(n, 0.1), 1<<21,
		map[string]string{"LD_PRELOAD": adaptive.PatchedPreloadName})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(50_000_000)
	if !p.Exited || p.ExitCode != 0 {
		t.Fatalf("exited=%v code=%d", p.Exited, p.ExitCode)
	}
	if stats.Emulated < n-1 {
		t.Errorf("emulated = %d, want ~%d", stats.Emulated, n)
	}
	// The patched run's result is the correctly rounded 256-bit sum.
	v, _ := p.Mem.Load64(128)
	got := math.Float64frombits(v)
	exact := float64(n) * 0.1
	if math.Abs(got-exact) > exact*1e-15 {
		t.Errorf("patched result %v, exact %v", got, exact)
	}
	// Unlike the trap flavor, the FPU stays masked: no SIGFPE handler
	// exists, and a rounding op at an *unpatched* site runs natively.
	if p.Handlers[kernel.SIGFPE] != nil {
		t.Error("patched mitigator should not hook SIGFPE")
	}
}

func TestPatchedMitigatorSelfHealsUnsupportedSites(t *testing.T) {
	// A packed instruction at a patched site cannot be emulated; the
	// mitigator must unpatch it and let the hardware proceed.
	b := fpspy.NewProgram("packed-site")
	third := 1.0 / 3.0
	addr := b.Float64s(third, third, third, third)
	b.Movi(isa.R9, int64(addr))
	b.Fldv(isa.X0, isa.R9, 0)
	b.Fldv(isa.X1, isa.R9, 0)
	b.FP2(isa.OpMULPD, isa.X2, isa.X0, isa.X1)
	b.Hlt()
	prog := b.Build()
	site := prog.AddrOf(3) // the mulpd

	k := kernel.New()
	stats := &adaptive.Stats{}
	k.RegisterPreload(adaptive.PatchedPreloadName, adaptive.PatchedFactory(128, []uint64{site}, stats))
	p, err := k.Spawn(prog, 1<<21, map[string]string{"LD_PRELOAD": adaptive.PatchedPreloadName})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(1_000_000)
	if !p.Exited || p.ExitCode != 0 {
		t.Fatalf("exited=%v code=%d", p.Exited, p.ExitCode)
	}
	if stats.Fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", stats.Fallbacks)
	}
	want := math.Float64bits(third * third)
	if p.Tasks[0].M.CPU.X[isa.X2][0] != want {
		t.Errorf("mulpd result %#x, want %#x", p.Tasks[0].M.CPU.X[isa.X2][0], want)
	}
}

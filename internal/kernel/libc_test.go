package kernel

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/mxcsr"
	"repro/internal/softfloat"
)

// TestFenvPointerBounds calls every fe* function that takes a guest
// pointer with pointers that wrap past 2^64 or straddle the end of
// memory. Each must return normally, write nothing, and leave the same
// state as a plainly out-of-range pointer (the end of memory).
func TestFenvPointerBounds(t *testing.T) {
	const memSize = 1 << 20
	start := mxcsr.Default
	start.SetFlags(softfloat.FlagInexact | softfloat.FlagOverflow)

	run := func(sym string, ptr uint64) (mxcsr.Reg, uint64, uint64) {
		t.Helper()
		b := isa.NewBuilder("fenv-" + sym)
		b.Movi(isa.R1, int64(ptr))
		b.Movi(isa.R2, 0x3F)
		b.CallC(sym)
		b.Hlt()
		k := New()
		p, err := k.Spawn(b.Build(), memSize, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Tasks[0].M.CPU.MXCSR = start
		k.Run(1000)
		if !p.Exited {
			t.Fatalf("%s(%#x): process did not exit", sym, ptr)
		}
		cpu := &p.Tasks[0].M.CPU
		return cpu.MXCSR, cpu.R[isa.R1], memU64(p, memSize-8)
	}

	for _, sym := range []string{"fegetenv", "fesetenv", "fegetexceptflag", "fesetexceptflag", "feholdexcept", "feupdateenv"} {
		wantMX, wantRet, _ := run(sym, memSize)
		for _, ptr := range []uint64{^uint64(0) - 3, memSize - 4} {
			t.Run(fmt.Sprintf("%s/%#x", sym, ptr), func(t *testing.T) {
				mx, ret, tail := run(sym, ptr)
				if mx != wantMX || ret != wantRet {
					t.Errorf("MXCSR %#x, R1 %d; want %#x, %d as for an out-of-range pointer", mx, ret, wantMX, wantRet)
				}
				if tail != 0 {
					t.Errorf("memory end = %#x after a failed access, want 0", tail)
				}
			})
		}
	}
}

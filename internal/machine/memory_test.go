package machine

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// memImage returns the full byte image of m's memory.
func memImage(m *Machine) []byte {
	var buf bytes.Buffer
	m.Mem.WriteTo(&buf)
	return buf.Bytes()
}

// byteAt reads one byte of mem, failing the test when it is out of
// bounds.
func byteAt(t *testing.T, mem *Memory, addr uint64) byte {
	t.Helper()
	var b [1]byte
	if _, err := mem.ReadAt(b[:], int64(addr)); err != nil {
		t.Fatalf("ReadAt(%#x): %v", addr, err)
	}
	return b[0]
}

// resident counts the pages materialised by writes (private or shared
// with a clone); untouched pages are not resident.
func (m *Memory) resident() int {
	n := 0
	for _, p := range m.pages {
		if p != &zeroPage {
			n++
		}
	}
	return n
}

// stepToEvent steps m until it reports an event.
func stepToEvent(t *testing.T, m *Machine) Event {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if ev := m.Step(); ev != nil {
			return ev
		}
	}
	t.Fatal("no event within 1000 steps")
	return nil
}

func TestStraddlingAccesses(t *testing.T) {
	mem := newMemory(4 * pageSize)
	const v64 = 0x0807060504030201
	for _, addr := range []uint64{pageSize - 4, 2*pageSize - 1, pageSize - 8} {
		if !mem.Store64(addr, v64) {
			t.Fatalf("Store64(%#x) failed", addr)
		}
		if got, ok := mem.Load64(addr); !ok || got != v64 {
			t.Errorf("Load64(%#x) = %#x, %v", addr, got, ok)
		}
		for i := uint64(0); i < 8; i++ {
			if got := byteAt(t, mem, addr+i); got != byte(i+1) {
				t.Errorf("byte %#x = %d, want %d", addr+i, got, i+1)
			}
		}
	}
	const v32 = 0x0d0c0b0a
	for _, addr := range []uint64{3*pageSize - 4, 3*pageSize - 2} {
		if !mem.Store32(addr, v32) {
			t.Fatalf("Store32(%#x) failed", addr)
		}
		if got, ok := mem.Load32(addr); !ok || got != v32 {
			t.Errorf("Load32(%#x) = %#x, %v", addr, got, ok)
		}
		for i := uint64(0); i < 4; i++ {
			if got := byteAt(t, mem, addr+i); got != byte(0x0a+i) {
				t.Errorf("byte %#x = %#x, want %#x", addr+i, got, 0x0a+i)
			}
		}
	}
	if got := mem.resident(); got != 4 {
		t.Errorf("resident pages = %d, want 4", got)
	}
}

func TestVectorAccessCrossesPage(t *testing.T) {
	// A 64-byte FSTVZ at 4096-24 writes three lanes on page 0 and five on
	// page 1; FLDVZ must read them back across the boundary.
	const ea = pageSize - 24
	b := isa.NewBuilder("vec-cross")
	b.Movi(isa.R1, ea)
	b.Fstvz(isa.R1, 0, isa.X0)
	b.Fldvz(isa.X1, isa.R1, 0)
	b.Hlt()
	m := New(b.Build(), 1<<16)
	for l := range m.CPU.X[isa.X0] {
		m.CPU.X[isa.X0][l] = 0x1111_0000_0000_0000*uint64(l+1) | uint64(l)
	}
	if _, ok := stepToEvent(t, m).(*HaltEvent); !ok {
		t.Fatal("program did not halt")
	}
	if m.CPU.X[isa.X1] != m.CPU.X[isa.X0] {
		t.Errorf("FLDVZ read %#x, FSTVZ wrote %#x", m.CPU.X[isa.X1], m.CPU.X[isa.X0])
	}
	for l, want := range m.CPU.X[isa.X0] {
		if got, _ := m.Mem.Load64(ea + uint64(8*l)); got != want {
			t.Errorf("lane %d in memory = %#x, want %#x", l, got, want)
		}
	}
}

func TestOddSizeBounds(t *testing.T) {
	const size = 2*pageSize + 100
	mem := newMemory(size)
	last := uint64(size - 1)
	if !mem.Store64(last-7, 1<<56) || !mem.Store32(last-3, 0xAB<<24) {
		t.Fatal("accesses ending at the last byte failed")
	}
	if got := byteAt(t, mem, last); got != 0xAB {
		t.Errorf("last byte = %#x", got)
	}
	if _, ok := mem.Load64(last - 6); ok {
		t.Error("Load64 one past the end succeeded")
	}
	if mem.Store32(last-2, 1) {
		t.Error("Store32 one past the end succeeded")
	}
	var b [2]byte
	if n, err := mem.ReadAt(b[:], int64(last)); n != 1 || err != io.EOF {
		t.Errorf("ReadAt across the end = %d, %v; want 1, EOF", n, err)
	}
	if n, err := mem.ReadAt(b[:1], size); n != 0 || err != io.EOF {
		t.Errorf("ReadAt one past the end = %d, %v; want 0, EOF", n, err)
	}
	if n, _ := mem.WriteTo(io.Discard); n != size {
		t.Errorf("WriteTo wrote %d bytes, want %d", n, size)
	}

	// The same bounds through the instruction set: the last full word
	// loads, the one ending a byte past memory faults.
	for _, tc := range []struct {
		addr  uint64
		fault bool
	}{{last - 7, false}, {last - 6, true}, {size, true}} {
		b := isa.NewBuilder("odd")
		b.Movi(isa.R1, int64(tc.addr))
		b.Ld(isa.R2, isa.R1, 0)
		b.Hlt()
		m := New(b.Build(), size)
		fe, isFault := stepToEvent(t, m).(*FaultEvent)
		if isFault != tc.fault {
			t.Errorf("LD %#x: fault = %v, want %v", tc.addr, isFault, tc.fault)
		}
		if isFault && fe.Reason != fmt.Sprintf("bad memory access %#x", tc.addr) {
			t.Errorf("LD %#x: reason %q", tc.addr, fe.Reason)
		}
	}
}

func TestWrappingAddressFaults(t *testing.T) {
	ea := ^uint64(0) - 3 // 2^64-4
	emitters := map[string]func(b *isa.Builder){
		"ld":    func(b *isa.Builder) { b.Ld(isa.R2, isa.R1, 0) },
		"st":    func(b *isa.Builder) { b.St(isa.R1, 0, isa.R2) },
		"flds":  func(b *isa.Builder) { b.Flds(isa.X0, isa.R1, 0) },
		"fsts":  func(b *isa.Builder) { b.Fsts(isa.R1, 0, isa.X0) },
		"fstvz": func(b *isa.Builder) { b.Fstvz(isa.R1, 0, isa.X0) },
		"fldvz": func(b *isa.Builder) { b.Fldvz(isa.X0, isa.R1, 0) },
	}
	for name, emit := range emitters {
		b := isa.NewBuilder("wrap-" + name)
		b.Movi(isa.R1, int64(ea))
		emit(b)
		b.Hlt()
		m := New(b.Build(), 1<<16)
		fe, ok := stepToEvent(t, m).(*FaultEvent)
		if !ok {
			t.Fatalf("%s at %#x did not fault", name, ea)
		}
		if want := fmt.Sprintf("bad memory access %#x", ea); fe.Reason != want || fe.Addr != m.Prog.AddrOf(1) {
			t.Errorf("%s: fault %q at %#x, want %q at %#x", name, fe.Reason, fe.Addr, want, m.Prog.AddrOf(1))
		}
		if m.Mem.resident() != 0 {
			t.Errorf("%s: faulting access materialised %d pages", name, m.Mem.resident())
		}
	}
}

func TestForkCopyOnWrite(t *testing.T) {
	parent := newMemory(4 * pageSize)
	parent.Store64(8, 1)
	parent.Store64(pageSize+8, 2)
	child := parent.Clone()
	if parent.pages[0] != child.pages[0] || parent.pages[1] != child.pages[1] {
		t.Fatal("clone copied pages eagerly")
	}

	// Child writes first: the parent keeps its value.
	child.Store64(8, 10)
	// Parent writes first: the child keeps its value.
	parent.Store64(pageSize+8, 20)
	// A straddling write from each side.
	child.Store64(2*pageSize-4, 0xC0C0C0C0C0C0C0C0)
	parent.Store64(2*pageSize-4, 0xA0A0A0A0A0A0A0A0)

	for _, tc := range []struct {
		name string
		mem  *Memory
		addr uint64
		want uint64
	}{
		{"parent page 0", parent, 8, 1},
		{"child page 0", child, 8, 10},
		{"parent page 1", parent, pageSize + 8, 20},
		{"child page 1", child, pageSize + 8, 2},
		{"parent straddle", parent, 2*pageSize - 4, 0xA0A0A0A0A0A0A0A0},
		{"child straddle", child, 2*pageSize - 4, 0xC0C0C0C0C0C0C0C0},
		{"parent untouched", parent, 3 * pageSize, 0},
		{"child untouched", child, 3 * pageSize, 0},
	} {
		if got, _ := tc.mem.Load64(tc.addr); got != tc.want {
			t.Errorf("%s: %#x = %#x, want %#x", tc.name, tc.addr, got, tc.want)
		}
	}

	// A second write to a page already copied stays private.
	child.Store64(16, 11)
	if got, _ := parent.Load64(16); got != 0 {
		t.Errorf("parent sees child's second write: %#x", got)
	}
}

func TestForkThroughMachineIsCopyOnWrite(t *testing.T) {
	b := isa.NewBuilder("fork")
	b.Movi(isa.R3, 64)
	b.Movi(isa.R4, 7)
	b.St(isa.R3, 0, isa.R4)
	b.Hlt()
	m := New(b.Build(), 1<<16)
	m.Mem.Store64(64, 1)
	child := &Machine{Prog: m.Prog, Mem: m.Mem.Clone()}
	child.CPU = m.CPU
	if _, ok := stepToEvent(t, child).(*HaltEvent); !ok {
		t.Fatal("child did not halt")
	}
	if got, _ := m.Mem.Load64(64); got != 1 {
		t.Errorf("parent sees the child's store: %d", got)
	}
	if got, _ := child.Mem.Load64(64); got != 7 {
		t.Errorf("child's store lost: %d", got)
	}
}

func TestThreadsShareMemory(t *testing.T) {
	// Two tasks of one process share a *Memory: each sees the other's
	// stores, including after the process forks (ownership is per
	// Memory, not per task).
	b := isa.NewBuilder("threads")
	b.Hlt()
	leader := New(b.Build(), 1<<16)
	sibling := &Machine{Prog: leader.Prog, Mem: leader.Mem}
	leader.Mem.Store64(128, 5)
	if got, _ := sibling.Mem.Load64(128); got != 5 {
		t.Errorf("sibling reads %d, want 5", got)
	}
	forked := leader.Mem.Clone()
	sibling.Mem.Store64(128, 6)
	if got, _ := leader.Mem.Load64(128); got != 6 {
		t.Errorf("leader reads %d after sibling's post-fork store, want 6", got)
	}
	if got, _ := forked.Load64(128); got != 5 {
		t.Errorf("forked child reads %d, want 5", got)
	}
}

func TestUntouchedReadsStayNonResident(t *testing.T) {
	mem := newMemory(1 << 20)
	for addr := uint64(0); addr+8 <= mem.size; addr += pageSize / 2 {
		if v, _ := mem.Load64(addr); v != 0 {
			t.Fatalf("untouched %#x = %#x", addr, v)
		}
		mem.Load32(addr + 2)
	}
	mem.Load64(pageSize - 4)
	var b [3 * pageSize]byte
	mem.ReadAt(b[:], pageSize/2)
	mem.WriteTo(io.Discard)
	mem.Clone()
	mem.Store64(^uint64(0), 1)
	if got := mem.resident(); got != 0 {
		t.Errorf("resident pages after reads = %d, want 0", got)
	}

	// A fresh machine holds only the data segment's pages.
	pb := isa.NewBuilder("data")
	pb.Zeros(pageSize + 8)
	pb.Hlt()
	if got := New(pb.Build(), 1<<24).Mem.resident(); got != 2 {
		t.Errorf("resident pages after loading a 2-page data segment = %d, want 2", got)
	}
}

// TestMemoryMatchesFlatModel drives random stores, loads and clones
// against a flat byte slice per Memory and requires identical reads,
// bounds verdicts and full images.
func TestMemoryMatchesFlatModel(t *testing.T) {
	const size = 5*pageSize + 123
	rng := rand.New(rand.NewSource(1))
	type pair struct {
		mem  *Memory
		flat []byte
	}
	pairs := []pair{{newMemory(size), make([]byte, size)}}
	addr := func() uint64 {
		switch rng.Intn(4) {
		case 0: // near a page boundary
			return uint64(rng.Intn(6))*pageSize + uint64(rng.Intn(16)) - 8
		case 1: // near the end
			return size - uint64(rng.Intn(12))
		default:
			return uint64(rng.Intn(size))
		}
	}
	for i := 0; i < 20000; i++ {
		p := &pairs[rng.Intn(len(pairs))]
		a := addr()
		n := uint64(4 << rng.Intn(2))
		inside := a <= size && size-a >= n
		switch rng.Intn(5) {
		case 0, 1:
			v := rng.Uint64()
			var ok bool
			if n == 8 {
				ok = p.mem.Store64(a, v)
			} else {
				ok = p.mem.Store32(a, uint32(v))
			}
			if ok != inside {
				t.Fatalf("store%d(%#x) ok = %v", 8*n, a, ok)
			}
			if ok {
				for j := uint64(0); j < n; j++ {
					p.flat[a+j] = byte(v >> (8 * j))
				}
			}
		case 2, 3:
			var got uint64
			var ok bool
			if n == 8 {
				got, ok = p.mem.Load64(a)
			} else {
				var g uint32
				g, ok = p.mem.Load32(a)
				got = uint64(g)
			}
			if ok != inside {
				t.Fatalf("load%d(%#x) ok = %v", 8*n, a, ok)
			}
			var want uint64
			for j := uint64(0); ok && j < n; j++ {
				want |= uint64(p.flat[a+j]) << (8 * j)
			}
			if got != want {
				t.Fatalf("load%d(%#x) = %#x, want %#x", 8*n, a, got, want)
			}
		case 4:
			if len(pairs) < 6 && rng.Intn(20) == 0 {
				pairs = append(pairs, pair{p.mem.Clone(), bytes.Clone(p.flat)})
			}
		}
	}
	for i, p := range pairs {
		var buf bytes.Buffer
		p.mem.WriteTo(&buf)
		if !bytes.Equal(buf.Bytes(), p.flat) {
			t.Errorf("memory %d: image differs from the flat model", i)
		}
	}
}

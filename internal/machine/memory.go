package machine

import (
	"encoding/binary"
	"errors"
	"io"
)

// Guest memory is materialised in pages of pageSize bytes: a page is
// allocated on its first write, and fork shares pages until one side
// writes.
const (
	pageSize  = 4096
	pageShift = 12
	pageMask  = pageSize - 1
)

type page = [pageSize]byte

// zeroPage backs every untouched page. It is never written: stores go
// through writable, which only writes pages this Memory owns, and
// zeroPage is never owned.
var zeroPage page

// Memory is sparse little-endian guest memory: a table of 4 KiB pages
// in which untouched pages read as one shared zero page and a page is
// allocated on its first write. Clone shares every page copy-on-write.
// Threads of one process share a single *Memory (CLONE_VM).
//
// Bounds are those of a flat byte array of its size: an access of n
// bytes at addr succeeds iff [addr, addr+n) lies inside it. The zero
// value is an empty memory on which every access fails.
type Memory struct {
	size  uint64
	pages []*page
	// owned has one bit per page, set iff pages[i] is private to this
	// Memory and so may be written in place. Clear bits mark the zero
	// page and pages shared with a clone.
	owned []uint64
}

// newMemory returns size bytes of zeroed memory with no page resident.
func newMemory(size int) *Memory {
	if size < 0 {
		panic("machine: negative memory size")
	}
	n := (size + pageSize - 1) / pageSize
	m := &Memory{size: uint64(size), pages: make([]*page, n), owned: make([]uint64, (n+63)/64)}
	for i := range m.pages {
		m.pages[i] = &zeroPage
	}
	return m
}

// Clone returns a copy-on-write copy of m: both sides share every page,
// and whichever side next writes a shared page copies it first.
func (m *Memory) Clone() *Memory {
	clear(m.owned)
	dup := &Memory{size: m.size, pages: make([]*page, len(m.pages)), owned: make([]uint64, len(m.owned))}
	copy(dup.pages, m.pages)
	return dup
}

// inBounds reports whether [addr, addr+n) lies inside memory. The
// comparison is overflow-safe: addr+n can wrap for addresses near 2^64,
// so the check subtracts from the memory size instead of adding to the
// address.
func (m *Memory) inBounds(addr, n uint64) bool {
	return addr <= m.size && m.size-addr >= n
}

// writable returns page pn for writing, first materialising a private
// copy if the page is the zero page or shared with a clone.
func (m *Memory) writable(pn uint64) *page {
	if m.owned[pn>>6]&(1<<(pn&63)) != 0 {
		return m.pages[pn]
	}
	p := new(page)
	if src := m.pages[pn]; src != &zeroPage {
		*p = *src
	}
	m.pages[pn] = p
	m.owned[pn>>6] |= 1 << (pn & 63)
	return p
}

// read copies len(dst) bytes at addr, which the caller has bounds
// checked, page by page.
func (m *Memory) read(dst []byte, addr uint64) {
	for len(dst) > 0 {
		n := copy(dst, m.pages[addr>>pageShift][addr&pageMask:])
		dst = dst[n:]
		addr += uint64(n)
	}
}

// write copies src to addr, which the caller has bounds checked, page by
// page.
func (m *Memory) write(addr uint64, src []byte) {
	for len(src) > 0 {
		n := copy(m.writable(addr >> pageShift)[addr&pageMask:], src)
		src = src[n:]
		addr += uint64(n)
	}
}

// Load64 reads the little-endian word at addr; ok is false when the
// access is out of bounds.
func (m *Memory) Load64(addr uint64) (v uint64, ok bool) {
	if !m.inBounds(addr, 8) {
		return 0, false
	}
	if off := addr & pageMask; off <= pageSize-8 {
		return binary.LittleEndian.Uint64(m.pages[addr>>pageShift][off:]), true
	}
	var b [8]byte
	m.read(b[:], addr)
	return binary.LittleEndian.Uint64(b[:]), true
}

// Store64 writes v little-endian at addr, reporting false (and writing
// nothing) when the access is out of bounds.
func (m *Memory) Store64(addr, v uint64) bool {
	if !m.inBounds(addr, 8) {
		return false
	}
	if off := addr & pageMask; off <= pageSize-8 {
		binary.LittleEndian.PutUint64(m.writable(addr >> pageShift)[off:], v)
		return true
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.write(addr, b[:])
	return true
}

// Load32 reads the little-endian 32-bit word at addr.
func (m *Memory) Load32(addr uint64) (v uint32, ok bool) {
	if !m.inBounds(addr, 4) {
		return 0, false
	}
	if off := addr & pageMask; off <= pageSize-4 {
		return binary.LittleEndian.Uint32(m.pages[addr>>pageShift][off:]), true
	}
	var b [4]byte
	m.read(b[:], addr)
	return binary.LittleEndian.Uint32(b[:]), true
}

// Store32 writes v little-endian at addr.
func (m *Memory) Store32(addr uint64, v uint32) bool {
	if !m.inBounds(addr, 4) {
		return false
	}
	if off := addr & pageMask; off <= pageSize-4 {
		binary.LittleEndian.PutUint32(m.writable(addr >> pageShift)[off:], v)
		return true
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.write(addr, b[:])
	return true
}

// ReadAt implements io.ReaderAt over the memory image.
func (m *Memory) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("machine: negative memory offset")
	}
	n := len(p)
	if uint64(off) >= m.size {
		n = 0
	} else if rem := m.size - uint64(off); uint64(n) > rem {
		n = int(rem)
	}
	m.read(p[:n], uint64(off))
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteTo implements io.WriterTo: it writes every byte of the image,
// untouched pages as zeros, so equal images produce equal streams.
func (m *Memory) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for i, p := range m.pages {
		b := p[:]
		if rem := m.size - uint64(i)*pageSize; rem < pageSize {
			b = b[:rem]
		}
		n, err := w.Write(b)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

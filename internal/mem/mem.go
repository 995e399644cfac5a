// Package mem implements the sparse, paged, byte-addressable memory of the
// simulated machine. Pages materialize on first touch and are accounted,
// so the benchmark harness can report a program's native memory footprint
// and compare it against tool-added bloat (Table 1/2 of the Witch paper).
package mem

import "encoding/binary"

// PageBits is log2 of the page size.
const PageBits = 12

// PageSize is the size of a memory page in bytes.
const PageSize = 1 << PageBits

type page [PageSize]byte

// Memory is a sparse 64-bit address space. The zero value is not usable;
// call New.
type Memory struct {
	pages map[uint64]*page

	// lastKey/lastPage cache the most recently used page in front of the
	// map. Pages are never freed, so the cache cannot go stale. lastKey
	// starts at a value no address shifts to.
	lastKey  uint64
	lastPage *page
}

// New returns an empty address space.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*page), lastKey: ^uint64(0)}
}

// pageFor returns the page containing addr, materializing it if needed.
func (m *Memory) pageFor(addr uint64) *page {
	key := addr >> PageBits
	if key == m.lastKey {
		return m.lastPage
	}
	p := m.pages[key]
	if p == nil {
		p = new(page)
		m.pages[key] = p
	}
	m.lastKey, m.lastPage = key, p
	return p
}

// PageCount returns the number of materialized pages.
func (m *Memory) PageCount() int { return len(m.pages) }

// Footprint returns the resident size in bytes of all touched pages.
func (m *Memory) Footprint() uint64 { return uint64(len(m.pages)) * PageSize }

// LoadN reads width bytes (1, 2, 4 or 8) little-endian at addr, handling
// page-straddling accesses. An 8-byte access inside the cached page,
// nearly every access the suite programs make, is served first.
func (m *Memory) LoadN(addr uint64, width uint8) uint64 {
	off := addr & (PageSize - 1)
	if width == 8 && off <= PageSize-8 && addr>>PageBits == m.lastKey {
		return binary.LittleEndian.Uint64(m.lastPage[off:])
	}
	if off+uint64(width) <= PageSize {
		p := m.pageFor(addr)
		switch width {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		default:
			return binary.LittleEndian.Uint64(p[off:])
		}
	}
	var v uint64
	for i := uint8(0); i < width; i++ {
		v |= uint64(m.LoadByte(addr+uint64(i))) << (8 * i)
	}
	return v
}

// StoreN writes the low width bytes of val little-endian at addr, handling
// page-straddling accesses. An 8-byte access inside the cached page is
// served first.
func (m *Memory) StoreN(addr uint64, val uint64, width uint8) {
	off := addr & (PageSize - 1)
	if width == 8 && off <= PageSize-8 && addr>>PageBits == m.lastKey {
		binary.LittleEndian.PutUint64(m.lastPage[off:], val)
		return
	}
	if off+uint64(width) <= PageSize {
		p := m.pageFor(addr)
		switch width {
		case 1:
			p[off] = byte(val)
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(val))
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(val))
		default:
			binary.LittleEndian.PutUint64(p[off:], val)
		}
		return
	}
	for i := uint8(0); i < width; i++ {
		m.StoreByte(addr+uint64(i), byte(val>>(8*i)))
	}
}

// LoadByte reads one byte.
func (m *Memory) LoadByte(addr uint64) byte {
	return m.pageFor(addr)[addr&(PageSize-1)]
}

// StoreByte writes one byte.
func (m *Memory) StoreByte(addr uint64, b byte) {
	m.pageFor(addr)[addr&(PageSize-1)] = b
}

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = m.LoadByte(addr + uint64(i))
	}
	return out
}

// WriteBytes copies the slice into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	for i, v := range b {
		m.StoreByte(addr+uint64(i), v)
	}
}

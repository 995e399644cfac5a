package mem

import (
	"testing"
	"testing/quick"
)

func TestLoadStoreWidths(t *testing.T) {
	m := New()
	for _, w := range []uint8{1, 2, 4, 8} {
		addr := uint64(0x1000 + uint64(w)*32)
		val := uint64(0x1122334455667788)
		m.StoreN(addr, val, w)
		want := val
		if w < 8 {
			want &= (1 << (8 * uint64(w))) - 1
		}
		if got := m.LoadN(addr, w); got != want {
			t.Errorf("width %d: got %#x want %#x", w, got, want)
		}
	}
}

func TestZeroInitialized(t *testing.T) {
	m := New()
	if got := m.LoadN(0xdeadbeef, 8); got != 0 {
		t.Fatalf("fresh memory = %#x, want 0", got)
	}
}

func TestPageStraddle(t *testing.T) {
	m := New()
	addr := uint64(PageSize - 3) // 8-byte access crossing the page boundary
	m.StoreN(addr, 0x8877665544332211, 8)
	if got := m.LoadN(addr, 8); got != 0x8877665544332211 {
		t.Fatalf("straddle load = %#x", got)
	}
	// Byte view must agree (little endian).
	if b := m.LoadByte(addr); b != 0x11 {
		t.Fatalf("first byte = %#x", b)
	}
	if b := m.LoadByte(addr + 7); b != 0x88 {
		t.Fatalf("last byte = %#x", b)
	}
	if m.PageCount() != 2 {
		t.Fatalf("pages = %d, want 2", m.PageCount())
	}
}

func TestFootprintAccounting(t *testing.T) {
	m := New()
	m.StoreByte(0, 1)
	m.StoreByte(10*PageSize, 1)
	if got := m.Footprint(); got != 2*PageSize {
		t.Fatalf("footprint = %d", got)
	}
}

func TestReadWriteBytes(t *testing.T) {
	m := New()
	data := []byte{1, 2, 3, 4, 5}
	m.WriteBytes(PageSize-2, data) // straddles
	if got := m.ReadBytes(PageSize-2, 5); string(got) != string(data) {
		t.Fatalf("roundtrip = %v", got)
	}
}

// TestAgainstReferenceModel cross-checks paged memory against a plain map
// under random operations (property-based).
func TestAgainstReferenceModel(t *testing.T) {
	m := New()
	ref := map[uint64]byte{}
	widths := []uint8{1, 2, 4, 8}

	f := func(addrSeed uint32, val uint64, wIdx uint8, isStore bool) bool {
		addr := uint64(addrSeed) % (4 * PageSize)
		w := widths[wIdx%4]
		if isStore {
			m.StoreN(addr, val, w)
			for i := uint8(0); i < w; i++ {
				ref[addr+uint64(i)] = byte(val >> (8 * i))
			}
			return true
		}
		got := m.LoadN(addr, w)
		var want uint64
		for i := uint8(0); i < w; i++ {
			want |= uint64(ref[addr+uint64(i)]) << (8 * i)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// refMem is a byte map standing in for Memory in the split tests.
type refMem map[uint64]byte

func (r refMem) store(addr, val uint64, w uint8) {
	for i := uint8(0); i < w; i++ {
		r[addr+uint64(i)] = byte(val >> (8 * i))
	}
}

func (r refMem) load(addr uint64, w uint8) uint64 {
	var v uint64
	for i := uint8(0); i < w; i++ {
		v |= uint64(r[addr+uint64(i)]) << (8 * i)
	}
	return v
}

// TestFastCaseAtPageEdges drives LoadN and StoreN at the offsets where
// their 8-byte cached-page case hands over to the general path, for
// every width, with the page both cached and not cached, and checks each access and its
// neighbours against a byte map.
func TestFastCaseAtPageEdges(t *testing.T) {
	const page = 3 * PageSize
	offsets := []uint64{0, PageSize - 9, PageSize - 8, PageSize - 7, PageSize - 4, PageSize - 2, PageSize - 1}
	for _, w := range []uint8{1, 2, 4, 8} {
		for _, off := range offsets {
			for _, cached := range []bool{true, false} {
				m, ref := New(), refMem{}
				addr := page + off
				for a := addr - 8; a < addr+16; a++ { // nonzero neighbours
					m.StoreByte(a, byte(a)|0x80)
					ref[a] = byte(a) | 0x80
				}
				val := 0x8877665544332211 ^ uint64(w)<<56 ^ off
				prime := func() {
					if cached {
						m.LoadN(page, 1) // the access's first page is now lastKey
					} else {
						m.LoadN(10*PageSize, 1)
					}
				}
				prime()
				m.StoreN(addr, val, w)
				ref.store(addr, val, w)
				prime() // a straddling store moved the cached page
				if got, want := m.LoadN(addr, w), ref.load(addr, w); got != want {
					t.Fatalf("w=%d off=%d cached=%v: load %#x, want %#x", w, off, cached, got, want)
				}
				// Every byte around the access, read one at a time
				// through the general path.
				for a := addr - 8; a < addr+16; a++ {
					if got, want := m.LoadByte(a), ref[a]; got != want {
						t.Fatalf("w=%d off=%d cached=%v: byte %#x = %#x, want %#x", w, off, cached, a, got, want)
					}
				}
			}
		}
	}
}

// TestFastCaseMissThenHit moves the cached page: an 8-byte access to an
// uncached page goes through the general path and caches it, and the
// next 8-byte accesses to that page take the cached-page case, against
// the same page the map holds.
func TestFastCaseMissThenHit(t *testing.T) {
	m := New()
	a, b := uint64(5*PageSize+16), uint64(9*PageSize+16)
	m.StoreN(a, 1, 8) // miss: page 5 cached
	m.StoreN(b, 2, 8) // miss: page 9 cached
	m.StoreN(b+8, 3, 8)
	if got := m.LoadN(b, 8); got != 2 { // hit
		t.Fatalf("hit load = %d, want 2", got)
	}
	if got := m.LoadN(a, 8); got != 1 { // miss: page 5 cached again
		t.Fatalf("miss load = %d, want 1", got)
	}
	m.StoreN(a+8, 4, 8) // hit
	if got := m.LoadN(a+8, 8); got != 4 {
		t.Fatalf("hit load after miss = %d, want 4", got)
	}
	if got := m.LoadN(b+8, 8); got != 3 {
		t.Fatalf("store through the cached-page case was lost: %d, want 3", got)
	}
	if m.PageCount() != 2 {
		t.Fatalf("pages = %d, want 2", m.PageCount())
	}
}

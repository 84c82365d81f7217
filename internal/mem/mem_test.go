package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClassify(t *testing.T) {
	wram := 64 << 10
	cases := []struct {
		addr uint32
		want Space
	}{
		{0x0000_0000, SpaceWRAM},
		{0x0000_FFFF, SpaceWRAM},
		{0x0001_0000, SpaceInvalid},
		{0x0800_0000, SpaceMRAM},
		{0x0BFF_FFFF, SpaceMRAM},
		{0x0C00_0000, SpaceInvalid},
		{0x8000_0000, SpaceIRAM},
		{0xF000_0000, SpaceAtomic},
	}
	for _, c := range cases {
		if got := Classify(c.addr, wram); got != c.want {
			t.Errorf("Classify(0x%08x) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestWRAMLoadStore(t *testing.T) {
	w := NewWRAM(1024)
	if err := w.Store(100, 4, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := w.Load(100, 4)
	if err != nil || v != 0xDEADBEEF {
		t.Fatalf("Load = %x, %v", v, err)
	}
	// little-endian sub-word views
	if b, _ := w.Load(100, 1); b != 0xEF {
		t.Errorf("byte view = %x, want ef", b)
	}
	if h, _ := w.Load(102, 2); h != 0xDEAD {
		t.Errorf("half view = %x, want dead", h)
	}
}

func TestWRAMFaults(t *testing.T) {
	w := NewWRAM(64)
	if _, err := w.Load(62, 4); err == nil {
		t.Error("out-of-range load must fail")
	}
	if _, err := w.Load(2, 4); err == nil {
		t.Error("misaligned word load must fail")
	}
	if err := w.Store(63, 2, 0); err == nil {
		t.Error("misaligned half store must fail")
	}
	var ae *AccessError
	_, err := w.Load(999, 4)
	if !errorsAs(err, &ae) || ae.Space != SpaceWRAM {
		t.Errorf("expected WRAM AccessError, got %v", err)
	}
}

func errorsAs(err error, target **AccessError) bool {
	if e, ok := err.(*AccessError); ok {
		*target = e
		return true
	}
	return false
}

func TestMRAMSparseZeroFill(t *testing.T) {
	m := NewMRAM(64 << 20)
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = 0xAA
	}
	// Reads of untouched memory return zeros without materializing pages.
	if err := m.ReadBytes(32<<20, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("untouched MRAM must read as zero")
		}
	}
	if m.AllocatedBytes() != 0 {
		t.Fatalf("read allocated %d bytes", m.AllocatedBytes())
	}
	// A small write materializes only its page(s).
	if err := m.WriteBytes(10<<20, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := m.AllocatedBytes(); got != 64<<10 {
		t.Fatalf("AllocatedBytes = %d, want one 64KB page", got)
	}
}

func TestMRAMPageStraddle(t *testing.T) {
	m := NewMRAM(1 << 20)
	src := make([]byte, 100_000) // straddles pages
	r := rand.New(rand.NewSource(7))
	r.Read(src)
	off := uint32(60_000)
	if err := m.WriteBytes(off, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := m.ReadBytes(off, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("page-straddling round trip mismatch")
	}
}

func TestMRAMBounds(t *testing.T) {
	m := NewMRAM(1 << 20)
	if err := m.WriteBytes((1<<20)-2, []byte{1, 2, 3}); err == nil {
		t.Error("overflowing write must fail")
	}
	if _, err := m.Load((1<<20)-4, 8); err == nil {
		t.Error("overflowing load must fail")
	}
	if _, err := m.Load(2, 4); err == nil {
		t.Error("misaligned MRAM load must fail")
	}
}

func TestMRAMLoadStoreWidths(t *testing.T) {
	m := NewMRAM(1 << 16)
	if err := m.Store(8, 8, 0x0123456789ABCDEF); err != nil {
		t.Fatal(err)
	}
	v, err := m.Load(8, 8)
	if err != nil || v != 0x0123456789ABCDEF {
		t.Fatalf("64-bit round trip = %x, %v", v, err)
	}
	if v32, _ := m.Load(8, 4); uint32(v32) != 0x89ABCDEF {
		t.Errorf("low word = %x", v32)
	}
}

// Property: MRAM behaves exactly like a flat byte array under random
// write/read sequences.
func TestQuickMRAMMatchesFlatModel(t *testing.T) {
	const size = 1 << 18
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewMRAM(size)
		flat := make([]byte, size)
		for i := 0; i < 50; i++ {
			off := uint32(r.Intn(size - 256))
			n := 1 + r.Intn(256)
			if r.Intn(2) == 0 {
				buf := make([]byte, n)
				r.Read(buf)
				if err := m.WriteBytes(off, buf); err != nil {
					return false
				}
				copy(flat[off:], buf)
			} else {
				buf := make([]byte, n)
				if err := m.ReadBytes(off, buf); err != nil {
					return false
				}
				if !bytes.Equal(buf, flat[off:int(off)+n]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any seeded history of writes, stores and resets —
// resizes included, shrinking past written pages and growing back over
// them — an MRAM reads exactly like a fresh bank of its size, and between
// resets like a flat byte array. Reset clears only the pages written since
// the last one, so a page it missed would read back stale here.
func TestQuickMRAMResetReadsFresh(t *testing.T) {
	const page = mramPageBytes
	sizes := []int{page - 8, 3*page + 100, 8 * page}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := sizes[r.Intn(len(sizes))]
		m, flat := NewMRAM(size), make([]byte, size)
		// Offsets cluster at page edges and at the top of the bank, where
		// the MMU keeps its page table.
		offset := func(n int) uint32 {
			switch r.Intn(3) {
			case 0:
				return uint32(max(0, min(size-n, r.Intn(size/page+1)*page-r.Intn(16))))
			case 1:
				return uint32(size - n - r.Intn(min(size-n, 64)+1))
			default:
				return uint32(r.Intn(size - n + 1))
			}
		}
		for i := 0; i < 80; i++ {
			switch r.Intn(6) {
			case 0: // reset, often to another size
				size = sizes[r.Intn(len(sizes))]
				m.Reset(size)
				flat = make([]byte, size)
				got, want := make([]byte, size), make([]byte, size)
				fresh := NewMRAM(size)
				if m.ReadBytes(0, got) != nil || fresh.ReadBytes(0, want) != nil || !bytes.Equal(got, want) {
					return false
				}
				if (m.ReadBytes(uint32(size), got[:1]) == nil) != (fresh.ReadBytes(uint32(size), want[:1]) == nil) {
					return false
				}
			case 1, 2:
				buf := make([]byte, 1+r.Intn(min(size, 300)))
				r.Read(buf)
				off := offset(len(buf))
				if m.WriteBytes(off, buf) != nil {
					return false
				}
				copy(flat[off:], buf)
			case 3:
				off := offset(8) &^ 7
				v := r.Uint64()
				if m.Store(off, 8, v) != nil {
					return false
				}
				binary.LittleEndian.PutUint64(flat[off:], v)
			default:
				buf := make([]byte, 1+r.Intn(min(size, 300)))
				off := offset(len(buf))
				if m.ReadBytes(off, buf) != nil || !bytes.Equal(buf, flat[off:int(off)+len(buf)]) {
					return false
				}
			}
		}
		got := make([]byte, size)
		return m.ReadBytes(0, got) == nil && bytes.Equal(got, flat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicMutualExclusion(t *testing.T) {
	a := NewAtomic(256)
	ok, err := a.TryAcquire(5, 0)
	if err != nil || !ok {
		t.Fatalf("first acquire: %v %v", ok, err)
	}
	ok, err = a.TryAcquire(5, 1)
	if err != nil || ok {
		t.Fatalf("second acquire must fail: %v %v", ok, err)
	}
	if a.Holder(5) != 0 {
		t.Fatalf("holder = %d", a.Holder(5))
	}
	if err := a.Release(5, 1); err == nil {
		t.Fatal("release by non-owner must fault")
	}
	if err := a.Release(5, 0); err != nil {
		t.Fatal(err)
	}
	ok, _ = a.TryAcquire(5, 1)
	if !ok {
		t.Fatal("reacquire after release failed")
	}
}

func TestAtomicBounds(t *testing.T) {
	a := NewAtomic(8)
	if _, err := a.TryAcquire(8, 0); err == nil {
		t.Error("out-of-range lock must fault")
	}
	if err := a.Release(-1, 0); err == nil {
		t.Error("negative lock must fault")
	}
	if a.Holder(99) != -1 {
		t.Error("out-of-range holder must be -1")
	}
}

func TestQuickAtomicInvariant(t *testing.T) {
	// Random acquire/release traffic never yields two concurrent holders.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewAtomic(16)
		holders := map[int]int{} // lock -> tasklet
		for i := 0; i < 500; i++ {
			lock, tid := r.Intn(16), r.Intn(4)
			if r.Intn(2) == 0 {
				ok, err := a.TryAcquire(lock, tid)
				if err != nil {
					return false
				}
				_, heldModel := holders[lock]
				if ok == heldModel {
					return false // acquired a held lock or failed on a free one
				}
				if ok {
					holders[lock] = tid
				}
			} else if owner, held := holders[lock]; held && owner == tid {
				if a.Release(lock, tid) != nil {
					return false
				}
				delete(holders, lock)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"upim/internal/config"
	"upim/internal/stats"
)

// fakeBackend records fill/writeback traffic and serves fills after a fixed
// latency.
type fakeBackend struct {
	fillLatency Tick
	fills       []uint32
	writebacks  []uint32
}

func (f *fakeBackend) Fill(lineAddr uint32, lineBytes int, now Tick) Tick {
	f.fills = append(f.fills, lineAddr)
	return now + f.fillLatency
}

func (f *fakeBackend) Writeback(lineAddr uint32, lineBytes int, now Tick) Tick {
	f.writebacks = append(f.writebacks, lineAddr)
	return now
}

func newCache(t *testing.T, mutate func(*config.CacheConfig)) (*Cache, *fakeBackend, *stats.Cache) {
	t.Helper()
	cfg := config.Default().DCache
	if mutate != nil {
		mutate(&cfg)
	}
	be := &fakeBackend{fillLatency: 100}
	st := &stats.Cache{}
	c, err := New(cfg, be, st)
	if err != nil {
		t.Fatal(err)
	}
	return c, be, st
}

func TestMissThenHit(t *testing.T) {
	c, be, st := newCache(t, nil)
	if ready := c.Access(0x100, false, 10); ready != 110 {
		t.Fatalf("miss ready = %d, want 110", ready)
	}
	if ready := c.Access(0x104, false, 200); ready != 200 {
		t.Fatalf("hit ready = %d, want 200", ready)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(be.fills) != 1 || be.fills[0] != 0x100 {
		t.Fatalf("fills = %v", be.fills)
	}
}

func TestMSHRCoalescing(t *testing.T) {
	c, be, st := newCache(t, nil)
	first := c.Access(0x200, false, 0)
	second := c.Access(0x208, false, 5) // same 64B line, fill in flight
	if second != first {
		t.Fatalf("coalesced access ready=%d, want %d", second, first)
	}
	if st.MSHRMerges != 1 || len(be.fills) != 1 {
		t.Fatalf("merges=%d fills=%d", st.MSHRMerges, len(be.fills))
	}
	// After the fill lands the MSHR entry is reaped; a new access hits.
	if ready := c.Access(0x210, false, 500); ready != 500 {
		t.Fatalf("post-fill access = %d, want hit at 500", ready)
	}
}

func TestCoalescingDisabledRefetches(t *testing.T) {
	c, be, st := newCache(t, func(cc *config.CacheConfig) { cc.LoadCoalescing = false })
	c.Access(0x200, false, 0)
	ready := c.Access(0x208, false, 5)
	if st.MSHRMerges != 0 {
		t.Fatalf("merges = %d, want 0", st.MSHRMerges)
	}
	// Without MSHR merging the second access pays for its own refetch.
	if len(be.fills) != 2 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("fills=%d misses=%d hits=%d", len(be.fills), st.Misses, st.Hits)
	}
	if ready != 105 {
		t.Fatalf("refetch ready = %d, want 105", ready)
	}
	// After both fills land, accesses hit normally.
	if got := c.Access(0x210, false, 500); got != 500 {
		t.Fatalf("post-fill access = %d, want 500", got)
	}
}

func TestLRUEviction(t *testing.T) {
	// Tiny cache: 2 ways x 1 set x 64B lines = 128B.
	c, be, st := newCache(t, func(cc *config.CacheConfig) {
		cc.SizeBytes, cc.Ways, cc.LineBytes = 128, 2, 64
	})
	c.Access(0x000, false, 0) // way 0
	c.Access(0x040, false, 1) // way 1
	c.Access(0x000, false, 2) // touch way 0 -> LRU is 0x040
	c.Access(0x080, false, 3) // evicts 0x040
	if !c.Contains(0x000) || c.Contains(0x040) || !c.Contains(0x080) {
		t.Fatal("LRU victim selection wrong")
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d", st.Evictions)
	}
	if len(be.writebacks) != 0 {
		t.Fatal("clean eviction must not write back")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c, be, st := newCache(t, func(cc *config.CacheConfig) {
		cc.SizeBytes, cc.Ways, cc.LineBytes = 128, 2, 64
	})
	c.Access(0x000, true, 0) // dirty
	c.Access(0x040, false, 1)
	c.Access(0x080, false, 2) // evicts dirty 0x000
	if len(be.writebacks) != 1 || be.writebacks[0] != 0x000 {
		t.Fatalf("writebacks = %v", be.writebacks)
	}
	if st.Writebacks != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWriteNoAllocate(t *testing.T) {
	c, be, st := newCache(t, func(cc *config.CacheConfig) { cc.WriteAllocate = false })
	if ready := c.Access(0x300, true, 7); ready != 7 {
		t.Fatalf("posted write must not stall, ready = %d", ready)
	}
	if len(be.fills) != 0 || len(be.writebacks) != 1 {
		t.Fatalf("fills=%d writebacks=%d", len(be.fills), len(be.writebacks))
	}
	if c.Contains(0x300) {
		t.Fatal("no-allocate store must not install a line")
	}
	if st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFlushDirty(t *testing.T) {
	c, be, _ := newCache(t, nil)
	c.Access(0x000, true, 0)
	c.Access(0x040, false, 1)
	c.Access(0x080, true, 2)
	c.FlushDirty(100)
	if len(be.writebacks) != 2 {
		t.Fatalf("flush wrote back %d lines, want 2", len(be.writebacks))
	}
	// Second flush is a no-op.
	c.FlushDirty(200)
	if len(be.writebacks) != 2 {
		t.Fatal("flush must clear dirty bits")
	}
}

func TestGeometryValidation(t *testing.T) {
	be := &fakeBackend{}
	bad := []config.CacheConfig{
		{SizeBytes: 0, Ways: 8, LineBytes: 64},
		{SizeBytes: 100, Ways: 8, LineBytes: 64},
		// A line size that is not a power of two: line addresses are formed
		// by masking with LineBytes-1.
		{SizeBytes: 48 * 8 * 8, Ways: 8, LineBytes: 48},
		{SizeBytes: 24 * 8, Ways: 8, LineBytes: 24},
	}
	for _, cfg := range bad {
		if _, err := New(cfg, be, &stats.Cache{}); err == nil {
			t.Errorf("New(%+v) succeeded, want error", cfg)
		}
	}
	// Non-power-of-two set counts are legal (the 24KB I$ has 48 sets).
	if _, err := New(config.CacheConfig{SizeBytes: 24 << 10, Ways: 8, LineBytes: 64}, be, &stats.Cache{}); err != nil {
		t.Errorf("48-set geometry rejected: %v", err)
	}
}

// Property: hit/miss accounting is consistent with a reference model that
// tracks resident lines as a map with the same LRU policy.
func TestQuickMatchesReferenceLRU(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := config.CacheConfig{
			SizeBytes: 1024, Ways: 4, LineBytes: 64,
			LoadCoalescing: false, WriteAllocate: true,
		}
		be := &fakeBackend{fillLatency: 0}
		st := &stats.Cache{}
		c, err := New(cfg, be, st)
		if err != nil {
			return false
		}
		nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
		type refLine struct {
			tag uint32
			use int
		}
		ref := make([][]refLine, nsets)
		clock := 0
		for i := 0; i < 400; i++ {
			addr := uint32(r.Intn(1 << 13))
			lineAddr := addr &^ uint32(cfg.LineBytes-1)
			set := c.SetIndex(addr)
			clock++
			// Reference lookup.
			refHit := false
			for j := range ref[set] {
				if ref[set][j].tag == lineAddr {
					ref[set][j].use = clock
					refHit = true
					break
				}
			}
			if !refHit {
				if len(ref[set]) < cfg.Ways {
					ref[set] = append(ref[set], refLine{lineAddr, clock})
				} else {
					v := 0
					for j := range ref[set] {
						if ref[set][j].use < ref[set][v].use {
							v = j
						}
					}
					ref[set][v] = refLine{lineAddr, clock}
				}
			}
			hitsBefore := st.Hits
			c.Access(addr, r.Intn(3) == 0, Tick(i*1000))
			gotHit := st.Hits > hitsBefore
			if gotHit != refHit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refCache is the map-and-modulo cache model this package shipped before its
// MSHR became an array, its set selection lost its divisions and AccessFrom
// appeared, kept verbatim as the reference the differential test below holds
// the live model to.
type refCache struct {
	cfg      config.CacheConfig
	sets     [][]line
	nsets    uint32
	backend  Backend
	st       *stats.Cache
	useClock uint64
	inflight map[uint32]Tick
}

func newRefCache(cfg config.CacheConfig, backend Backend, st *stats.Cache) *refCache {
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	sets := make([][]line, nsets)
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
	}
	return &refCache{cfg: cfg, sets: sets, nsets: uint32(nsets), backend: backend, st: st, inflight: map[uint32]Tick{}}
}

func (c *refCache) index(addr uint32) (lineAddr, set uint32) {
	lineAddr = addr &^ uint32(c.cfg.LineBytes-1)
	idx := lineAddr / uint32(c.cfg.LineBytes)
	h := idx ^ (idx / c.nsets) ^ (idx / c.nsets / c.nsets)
	set = h % c.nsets
	return
}

func (c *refCache) Access(addr uint32, write bool, now Tick) Tick {
	c.st.Accesses++
	for la, done := range c.inflight {
		if done <= now {
			delete(c.inflight, la)
		}
	}
	lineAddr, set := c.index(addr)
	ways := c.sets[set]
	c.useClock++
	for i := range ways {
		if ways[i].valid && ways[i].tag == lineAddr {
			ways[i].lastUse = c.useClock
			if write {
				ways[i].dirty = true
			}
			if done, ok := c.inflight[lineAddr]; ok && done > now {
				if c.cfg.LoadCoalescing {
					c.st.MSHRMerges++
					return done
				}
				c.st.Misses++
				done = c.backend.Fill(lineAddr, c.cfg.LineBytes, now)
				c.inflight[lineAddr] = done
				return done
			}
			c.st.Hits++
			return now
		}
	}
	if done, ok := c.inflight[lineAddr]; ok && c.cfg.LoadCoalescing {
		c.st.MSHRMerges++
		if write {
			markDirty(ways, lineAddr)
		}
		return done
	}
	if write && !c.cfg.WriteAllocate {
		c.st.Misses++
		c.st.Writebacks++
		c.backend.Writeback(lineAddr, c.cfg.LineBytes, now)
		return now
	}
	c.st.Misses++
	victim := pickVictim(ways)
	if ways[victim].valid {
		c.st.Evictions++
		if ways[victim].dirty {
			c.st.Writebacks++
			c.backend.Writeback(ways[victim].tag, c.cfg.LineBytes, now)
		}
	}
	done := c.backend.Fill(lineAddr, c.cfg.LineBytes, now)
	ways[victim] = line{tag: lineAddr, valid: true, dirty: write, lastUse: c.useClock}
	c.inflight[lineAddr] = done
	return done
}

func (c *refCache) FlushDirty(now Tick) {
	for _, ways := range c.sets {
		for i := range ways {
			if ways[i].valid && ways[i].dirty {
				c.st.Writebacks++
				c.backend.Writeback(ways[i].tag, c.cfg.LineBytes, now)
				ways[i].dirty = false
			}
		}
	}
}

// callLog is a backend that records every call it receives, arguments
// included, and serves fills after a latency that varies by line — so fills
// land out of issue order, as they do behind a contended bank.
type callLog struct{ calls []string }

func (b *callLog) Fill(lineAddr uint32, lineBytes int, now Tick) Tick {
	b.calls = append(b.calls, fmt.Sprintf("fill %#x %d @%d", lineAddr, lineBytes, now))
	return now + 40 + Tick(lineAddr>>6%7)*25
}

func (b *callLog) Writeback(lineAddr uint32, lineBytes int, now Tick) Tick {
	b.calls = append(b.calls, fmt.Sprintf("wb %#x %d @%d", lineAddr, lineBytes, now))
	return now
}

// TestMatchesMapAndModuloReference drives the live cache and the reference
// with the same seeded access streams — a few interleaved "tasklets", each
// walking forward with occasional jumps, over a clock that mostly creeps and
// sometimes leaps past every fill — across {1, 3, 48, 128} sets × load
// coalescing × write-allocate, and requires the same ready tick on every
// access, the same counters and the same backend calls in the same order.
// Odd tasklets go through AccessFrom with their own line reference, even
// ones through Access.
func TestMatchesMapAndModuloReference(t *testing.T) {
	for _, nsets := range []int{1, 3, 48, 128} {
		for _, coalesce := range []bool{false, true} {
			for _, allocate := range []bool{false, true} {
				cfg := config.CacheConfig{
					SizeBytes: nsets * 4 * 64, Ways: 4, LineBytes: 64,
					LoadCoalescing: coalesce, WriteAllocate: allocate,
				}
				name := fmt.Sprintf("sets%d/coalesce=%v/allocate=%v", nsets, coalesce, allocate)
				t.Run(name, func(t *testing.T) {
					for seed := int64(1); seed <= 8; seed++ {
						var gotLog, wantLog callLog
						var gotSt, wantSt stats.Cache
						got, err := New(cfg, &gotLog, &gotSt)
						if err != nil {
							t.Fatal(err)
						}
						want := newRefCache(cfg, &wantLog, &wantSt)
						r := rand.New(rand.NewSource(seed))
						const streams = 6
						var pos [streams]uint32
						var refs [streams]LineRef
						for i := range pos {
							pos[i] = uint32(r.Intn(1 << 16))
						}
						now := Tick(0)
						for i := 0; i < 4000; i++ {
							k := r.Intn(streams)
							switch r.Intn(16) {
							case 0:
								pos[k] = uint32(r.Intn(1 << 16)) // jump
							case 1:
								pos[k] = pos[r.Intn(streams)] // land on another stream's line
							default:
								pos[k] += uint32(r.Intn(24))
							}
							switch r.Intn(12) {
							case 0:
								now += 500 // past every fill in flight
							case 1, 2, 3:
								// same tick as the previous access
							default:
								now += Tick(r.Intn(30))
							}
							write := r.Intn(4) == 0
							var ready Tick
							if k%2 == 1 {
								ready, refs[k] = got.AccessFrom(refs[k], pos[k], write, now)
							} else {
								ready = got.Access(pos[k], write, now)
							}
							if wantReady := want.Access(pos[k], write, now); ready != wantReady {
								t.Fatalf("seed %d access %d (%#x write=%v @%d): ready %d, reference %d",
									seed, i, pos[k], write, now, ready, wantReady)
							}
							if _, set := want.index(pos[k]); got.SetIndex(pos[k]) != set {
								t.Fatalf("seed %d: SetIndex(%#x) = %d, reference %d", seed, pos[k], got.SetIndex(pos[k]), set)
							}
						}
						got.FlushDirty(now)
						want.FlushDirty(now)
						if gotSt != wantSt {
							t.Fatalf("seed %d: counters %+v, reference %+v", seed, gotSt, wantSt)
						}
						if !slices.Equal(gotLog.calls, wantLog.calls) {
							t.Fatalf("seed %d: backend call sequences differ (%d vs %d calls)",
								seed, len(gotLog.calls), len(wantLog.calls))
						}
					}
				})
			}
		}
	}
}

// TestSetHashReciprocalIsExact checks the multiply-high quotient and the set
// selection built on it against / and % for every set count 1–512, at the
// values where a reciprocal that is off by one ulp shows: multiples of the
// set count and their neighbours, powers of two and their neighbours, and
// the top of the 32-bit range.
func TestSetHashReciprocalIsExact(t *testing.T) {
	for nsets := uint32(1); nsets <= 512; nsets++ {
		h := newSetHash(nsets)
		xs := []uint32{0, 1, 2, nsets - 1, nsets, nsets + 1, nsets*nsets - 1, nsets * nsets, nsets*nsets + 1,
			1<<31 - 1, 1 << 31, 1<<31 + 1, ^uint32(0) - 1, ^uint32(0)}
		for b := uint(1); b < 32; b++ {
			xs = append(xs, 1<<b-1, 1<<b, 1<<b+1)
		}
		for k := uint32(1); k <= 64; k++ {
			m := (^uint32(0) / nsets / k) * nsets // a large multiple of nsets
			xs = append(xs, m-1, m, m+1, k*nsets-1, k*nsets, k*nsets+1)
		}
		for _, x := range xs {
			if !h.pow2 {
				if got := h.div(x); got != x/nsets {
					t.Fatalf("nsets=%d: div(%d) = %d, want %d", nsets, x, got, x/nsets)
				}
			}
			want := (x ^ x/nsets ^ x/nsets/nsets) % nsets
			if got := h.of(x); got != want {
				t.Fatalf("nsets=%d: of(%d) = %d, want %d", nsets, x, got, want)
			}
		}
	}
}

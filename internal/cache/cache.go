// Package cache implements the set-associative, LRU, write-back caches used
// by the cache-centric UPMEM-PIM design of case study 4 (paper Fig 14(b),
// Fig 15/16): an instruction cache and a data cache with MSHR-based load
// coalescing. The cache is a timing/traffic model: functional data lives in
// the MRAM backing store, so only tags, recency, dirtiness and in-flight
// fills are tracked here.
//
// Access runs on every cache-mode instruction fetch and every MRAM-space
// load/store, so its common case — a hit with no fill landing — costs a few
// compares and no division:
//
//   - The MSHR is a short array of (line, completion) pairs with an
//     earliest-completion watermark; an access reaps finished fills only
//     when the clock has reached the watermark.
//   - Set selection (setHash) shifts and masks for power-of-two set counts
//     and multiplies by an exact 64-bit reciprocal otherwise (the 48-set I$).
//   - AccessFrom lets a stream that tends to stay on one line — a tasklet's
//     instruction fetches — name the slot its previous access used, skipping
//     hash and way search while that slot still holds the wanted line.
//
// None of the three changes a decision: the reference model in the package's
// tests (a map MSHR, / and % set selection, a way search on every access) is
// held to the same ready ticks, counters and backend calls.
package cache

import (
	"fmt"
	"math/bits"

	"upim/internal/config"
	"upim/internal/stats"
)

// Tick aliases the simulator time unit.
type Tick = config.Tick

// Backend is the memory system beneath the cache. Fill returns the tick the
// requested line's data is available; Writeback posts a dirty line to a write
// buffer and returns when it is accepted (the cache does not wait for it).
type Backend interface {
	Fill(lineAddr uint32, lineBytes int, now Tick) Tick
	Writeback(lineAddr uint32, lineBytes int, now Tick) Tick
}

type line struct {
	tag     uint32
	valid   bool
	dirty   bool
	lastUse uint64
}

// LineRef names the slot an access found or installed its line in; the zero
// value names none. It is only a hint: AccessFrom checks the slot's tag
// before trusting it, so a stale reference costs a normal lookup.
type LineRef uint32

// mshrEntry is one in-flight fill.
type mshrEntry struct {
	lineAddr uint32
	done     Tick
}

// Cache is one set-associative cache instance.
type Cache struct {
	cfg      config.CacheConfig
	lines    []line // set-major: set s occupies lines[s*ways : (s+1)*ways]
	ways     uint32
	lineMask uint32
	lineBits uint
	hash     setHash
	backend  Backend
	st       *stats.Cache
	useClock uint64
	// mshr holds at most one entry per line address; mshrMin is the earliest
	// completion among them (or earlier, after an entry was overwritten), and
	// the maximum tick when there are none.
	mshr    []mshrEntry
	mshrMin Tick
}

// New builds a cache. Size must be divisible by ways*line and the line size
// a power of two; any resulting set count (including non-powers-of-two) is
// legal.
func New(cfg config.CacheConfig, backend Backend, st *stats.Cache) (*Cache, error) {
	if cfg.LineBytes <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry %+v", cfg)
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d is not a power of two", cfg.LineBytes)
	}
	if cfg.SizeBytes%(cfg.LineBytes*cfg.Ways) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible by ways*line %d", cfg.SizeBytes, cfg.LineBytes*cfg.Ways)
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	return &Cache{
		cfg:      cfg,
		lines:    make([]line, nsets*cfg.Ways),
		ways:     uint32(cfg.Ways),
		lineMask: uint32(cfg.LineBytes - 1),
		lineBits: uint(bits.TrailingZeros32(uint32(cfg.LineBytes))),
		hash:     newSetHash(uint32(nsets)),
		backend:  backend, st: st,
		mshrMin: ^Tick(0),
	}, nil
}

// LineBytes returns the configured line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// setHash selects a line's set. It XOR-folds the upper line-index bits
// before the modulo (a standard anti-aliasing hash): a plain modulo makes
// every power-of-2-strided stream — e.g. 16 tasklets whose partitions sit
// exactly 32KB apart — collide into the same sets and thrash an 8-way cache.
// The modulo also keeps non-power-of-two geometries (the 24KB 8-way I$ = 48
// sets) correct:
//
//	set = (idx ^ idx/nsets ^ idx/nsets/nsets) % nsets
//
// computed with shifts and a mask when nsets is a power of two, and otherwise
// with recip = ceil(2^64/nsets), for which the high word of recip*x is
// exactly x/nsets for every 32-bit x (Lemire, Kaser & Kurz, "Faster remainder
// by direct computation", 2019).
type setHash struct {
	nsets uint32
	pow2  bool
	shift uint
	recip uint64
}

func newSetHash(nsets uint32) setHash {
	h := setHash{nsets: nsets, pow2: nsets&(nsets-1) == 0}
	if h.pow2 {
		h.shift = uint(bits.TrailingZeros32(nsets))
	} else {
		h.recip = ^uint64(0)/uint64(nsets) + 1
	}
	return h
}

// div returns x / nsets for a non-power-of-two nsets.
func (h *setHash) div(x uint32) uint32 {
	hi, _ := bits.Mul64(h.recip, uint64(x))
	return uint32(hi)
}

// of returns the set of line index idx.
func (h *setHash) of(idx uint32) uint32 {
	if h.pow2 {
		q := idx >> h.shift
		return (idx ^ q ^ q>>h.shift) & (h.nsets - 1)
	}
	q := h.div(idx)
	x := idx ^ q ^ h.div(q)
	return x - h.div(x)*h.nsets
}

// SetIndex exposes the set-selection hash (reference models in tests).
func (c *Cache) SetIndex(addr uint32) uint32 {
	return c.hash.of(addr >> c.lineBits)
}

// reapMSHR drops every fill that has landed by now and re-derives the
// watermark. Callers skip it while now < mshrMin.
func (c *Cache) reapMSHR(now Tick) {
	live, earliest := c.mshr[:0], ^Tick(0)
	for _, e := range c.mshr {
		if e.done > now {
			live = append(live, e)
			earliest = min(earliest, e.done)
		}
	}
	c.mshr, c.mshrMin = live, earliest
}

// inflight returns the completion tick of the fill in flight for lineAddr.
func (c *Cache) inflight(lineAddr uint32) (Tick, bool) {
	for _, e := range c.mshr {
		if e.lineAddr == lineAddr {
			return e.done, true
		}
	}
	return 0, false
}

// setInflight records (or re-times) the fill in flight for lineAddr.
func (c *Cache) setInflight(lineAddr uint32, done Tick) {
	c.mshrMin = min(c.mshrMin, done)
	for i := range c.mshr {
		if c.mshr[i].lineAddr == lineAddr {
			c.mshr[i].done = done
			return
		}
	}
	c.mshr = append(c.mshr, mshrEntry{lineAddr, done})
}

// Access performs one load or store and returns the tick the data is ready
// (== now on hits). Stores follow write-back/write-allocate by default; with
// WriteAllocate disabled, store misses post through a write buffer without
// stalling or allocating.
func (c *Cache) Access(addr uint32, write bool, now Tick) Tick {
	ready, _ := c.AccessFrom(0, addr, write, now)
	return ready
}

// AccessFrom is Access for one stream of accesses: prev is the reference the
// stream's previous AccessFrom returned (zero to start), and the result
// carries the reference to pass next. While prev's slot still holds the line
// this access wants, set selection and the way search are skipped; every
// decision, counter and backend call is the same as Access's.
func (c *Cache) AccessFrom(prev LineRef, addr uint32, write bool, now Tick) (Tick, LineRef) {
	c.st.Accesses++ // one tag/data array lookup per access, whatever the outcome
	if now >= c.mshrMin {
		c.reapMSHR(now)
	}
	lineAddr := addr &^ c.lineMask
	c.useClock++

	// A line address lives in at most one slot, so a slot holding it is the
	// slot the way search would find. (prev == 0 wraps to an index past the
	// end, like any reference this cache did not hand out.)
	const none = ^uint32(0)
	var base uint32
	var ways []line
	slot := uint32(prev) - 1
	if slot >= uint32(len(c.lines)) || !c.lines[slot].valid || c.lines[slot].tag != lineAddr {
		base = c.hash.of(lineAddr>>c.lineBits) * c.ways
		ways = c.lines[base : base+c.ways]
		slot = none
		for i := range ways {
			if ways[i].valid && ways[i].tag == lineAddr {
				slot = base + uint32(i)
				break
			}
		}
	}
	if slot != none {
		l := &c.lines[slot]
		l.lastUse = c.useClock
		if write {
			l.dirty = true
		}
		// The tag is installed at miss time, but the data may still be in
		// flight: later accesses either ride the fill (MSHR merge) or,
		// without load coalescing, pay for a refetch of their own. (Entries
		// that outlive the reap above are all still in flight.)
		if len(c.mshr) > 0 {
			if done, ok := c.inflight(lineAddr); ok {
				if c.cfg.LoadCoalescing {
					c.st.MSHRMerges++
					return done, LineRef(slot + 1)
				}
				c.st.Misses++
				done = c.backend.Fill(lineAddr, c.cfg.LineBytes, now)
				c.setInflight(lineAddr, done)
				return done, LineRef(slot + 1)
			}
		}
		c.st.Hits++
		return now, LineRef(slot + 1)
	}
	// Miss. MSHR coalescing: ride an in-flight fill of the same line.
	if done, ok := c.inflight(lineAddr); ok && c.cfg.LoadCoalescing {
		c.st.MSHRMerges++
		if write {
			markDirty(ways, lineAddr)
		}
		return done, 0
	}
	if write && !c.cfg.WriteAllocate {
		// Posted write: traffic only, no allocation, no stall.
		c.st.Misses++
		c.st.Writebacks++
		c.backend.Writeback(lineAddr, c.cfg.LineBytes, now)
		return now, 0
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
	c.setInflight(lineAddr, done)
	return done, LineRef(base + uint32(victim) + 1)
}

func markDirty(ways []line, lineAddr uint32) {
	for i := range ways {
		if ways[i].valid && ways[i].tag == lineAddr {
			ways[i].dirty = true
			return
		}
	}
}

func pickVictim(ways []line) int {
	victim, oldest := 0, ^uint64(0)
	for i := range ways {
		if !ways[i].valid {
			return i
		}
		if ways[i].lastUse < oldest {
			oldest = ways[i].lastUse
			victim = i
		}
	}
	return victim
}

// Contains reports whether the line holding addr is resident (testing hook).
func (c *Cache) Contains(addr uint32) bool {
	lineAddr := addr &^ c.lineMask
	base := c.hash.of(lineAddr>>c.lineBits) * c.ways
	for _, l := range c.lines[base : base+c.ways] {
		if l.valid && l.tag == lineAddr {
			return true
		}
	}
	return false
}

// FlushDirty writes back every dirty line (end-of-kernel accounting so the
// scratchpad-vs-cache byte counts compare like for like).
func (c *Cache) FlushDirty(now Tick) {
	for i := range c.lines {
		if l := &c.lines[i]; l.valid && l.dirty {
			c.st.Writebacks++
			c.backend.Writeback(l.tag, c.cfg.LineBytes, now)
			l.dirty = false
		}
	}
}

package prim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"upim/internal/config"
	"upim/internal/linker"
)

// BuildCache memoizes kernel compilation across simulation points: assembled
// objects are keyed by (benchmark, mode) and linked programs by (benchmark,
// link-relevant config fields), so a sweep over many (config, #DPUs) points
// builds each unique kernel exactly once. Linked programs are immutable, so
// one cached Program safely backs many concurrent Systems.
//
// All methods are safe for concurrent use; concurrent requests for the same
// key block on a single in-flight build (singleflight) rather than building
// twice.
type BuildCache struct {
	mu    sync.Mutex
	objs  map[objKey]*entry[*linker.Object]
	progs map[progKey]*entry[*linker.Program]

	builds atomic.Int64
	links  atomic.Int64
	hits   atomic.Int64
}

// NewBuildCache returns an empty cache.
func NewBuildCache() *BuildCache {
	return &BuildCache{
		objs:  make(map[objKey]*entry[*linker.Object]),
		progs: make(map[progKey]*entry[*linker.Program]),
	}
}

// CacheStats counts cache activity: Builds and Links are the number of
// actual kernel assemblies and program links performed; Hits counts requests
// served from (or coalesced onto) an existing entry.
type CacheStats struct {
	Builds, Links, Hits int64
}

// Stats returns a snapshot of the cache counters.
func (c *BuildCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Builds: c.builds.Load(),
		Links:  c.links.Load(),
		Hits:   c.hits.Load(),
	}
}

type objKey struct {
	bench string
	mode  config.Mode
}

// progKey captures exactly the config fields linker.Link's layout and
// capacity checks read; everything else (frequencies, ILP features, DRAM
// timings, ...) may vary between sweep points without invalidating a linked
// program.
type progKey struct {
	bench     string
	mode      config.Mode
	wramBytes int
	iramBytes int
	tasklets  int
	stack     int
}

// entry is one key's build: done closes once v and err are final.
type entry[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// once returns the value m holds for k, running build for it at most once
// and counting the build in built. A request that finds the key, built or in
// flight, counts a hit and waits for it.
func once[K comparable, V any](c *BuildCache, m map[K]*entry[V], k K, built *atomic.Int64, build func() (V, error)) (V, error) {
	c.mu.Lock()
	e, ok := m[k]
	if ok {
		c.mu.Unlock()
		c.hits.Add(1)
		<-e.done
		return e.v, e.err
	}
	e = &entry[V]{done: make(chan struct{})}
	m[k] = e
	c.mu.Unlock()

	e.v, e.err = build()
	built.Add(1)
	close(e.done)
	return e.v, e.err
}

// object returns the assembled object for (b, mode), building it at most
// once.
func (c *BuildCache) object(b *Benchmark, mode config.Mode) (*linker.Object, error) {
	return once(c, c.objs, objKey{b.Name, mode}, &c.builds, func() (*linker.Object, error) {
		obj, err := b.Build(mode)
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		return obj, nil
	})
}

// program returns the linked program for (b, cfg), assembling and linking at
// most once per unique key. A nil cache degenerates to an uncached
// build-and-link.
func (c *BuildCache) program(b *Benchmark, cfg config.Config) (*linker.Program, error) {
	if c == nil {
		obj, err := b.Build(cfg.Mode)
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		return linker.Link(obj, cfg)
	}
	obj, err := c.object(b, cfg.Mode)
	if err != nil {
		return nil, err
	}
	k := progKey{
		bench:     b.Name,
		mode:      cfg.Mode,
		wramBytes: cfg.WRAMBytes,
		iramBytes: cfg.IRAMBytes,
		tasklets:  cfg.NumTasklets,
		stack:     cfg.StackBytes,
	}
	return once(c, c.progs, k, &c.links, func() (*linker.Program, error) { return linker.Link(obj, cfg) })
}

package machine

import (
	"cmp"
	"context"
	"fmt"

	"upim/internal/config"
	"upim/internal/prim"
)

// Workload is one fully-specified execution request handed to a Backend —
// the architecture-neutral analogue of prim.Spec. Sites is the number of
// compute sites engaged (the engine's DPUs axis); Desc may be nil for the
// native UPMEM backend, which needs no description to run the existing
// core.
type Workload struct {
	Benchmark string
	Config    config.Config
	Desc      *Desc
	Sites     int
	Scale     prim.Scale
	// Watchdog bounds per-site execution cycles (0 = the host default).
	Watchdog uint64
	// Cache reuses assembled objects across runs sharing a kernel; only the
	// UPMEM backend compiles kernels, others ignore it.
	Cache *prim.BuildCache
}

// Backend executes workloads on one architecture. Implementations must be
// deterministic — byte-identical results for identical workloads, run
// after run, whatever the caller's parallelism — because the exploration
// store content-addresses results and the resume contract holds artifacts
// to byte identity. The machinetest conformance suite checks exactly this.
type Backend interface {
	// Check is the one rule for what the backend can run: nil, or why not.
	// Run applies it first, and the explorer enumerates only the points it
	// accepts.
	Check(w Workload) error
	// Run executes one workload and returns its result. The result must be
	// self-contained: Config, Stats, PerDPU and Report populated so the
	// energy model and the figure pipeline work unchanged.
	Run(ctx context.Context, w Workload) (*prim.Result, error)
}

// arches is the table of machines, sorted by name: each architecture's
// committed description and the backend that runs it. Named, Names and
// BackendFor all read it.
var arches = [...]struct {
	name    string
	desc    func() *Desc
	backend Backend
}{
	{ArchHBMPIM, HBMPIM, hbmpimBackend{}},
	{ArchUPMEM, UPMEM, upmemBackend{}},
}

// arch returns the table row of an architecture name.
func arch(name string) (int, error) {
	for i := range arches {
		if arches[i].name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("machine: unknown architecture %q (want one of %v)", name, Names())
}

// Named returns a fresh copy of the committed description for an
// architecture name.
func Named(name string) (*Desc, error) {
	i, err := arch(name)
	if err != nil {
		return nil, err
	}
	return arches[i].desc(), nil
}

// Names lists the architecture names, sorted.
func Names() []string {
	out := make([]string, len(arches))
	for i := range arches {
		out[i] = arches[i].name
	}
	return out
}

// BackendFor returns the backend for an architecture name ("" selects the
// native UPMEM backend).
func BackendFor(name string) (Backend, error) {
	i, err := arch(cmp.Or(name, ArchUPMEM))
	if err != nil {
		return nil, err
	}
	return arches[i].backend, nil
}

// upmemBackend adapts the existing cycle-exact UPMEM core to the Backend
// interface: it is a thin pass-through to prim.RunSpec, so every figure,
// store entry and artifact produced through it is bit-identical to the
// pre-backend engine path.
type upmemBackend struct{}

// Check accepts a known benchmark whose kernel can run the configuration on
// its dataset (prim.Benchmark.Check) under a configuration that validates. A
// scale outside the table has zero sizes, which pass the dataset rule: such a
// point fails when it runs, not here.
func (upmemBackend) Check(w Workload) error {
	b, err := prim.ByName(w.Benchmark)
	if err != nil {
		return err
	}
	ds, _ := b.Params(w.Scale)
	if err := b.Check(w.Config, ds); err != nil {
		return err
	}
	return w.Config.Validate()
}

func (u upmemBackend) Run(ctx context.Context, w Workload) (*prim.Result, error) {
	if err := u.Check(w); err != nil {
		return nil, err
	}
	return prim.RunSpec(ctx, prim.Spec{
		Benchmark: w.Benchmark,
		Config:    w.Config,
		DPUs:      w.Sites,
		Scale:     w.Scale,
		Watchdog:  w.Watchdog,
		Cache:     w.Cache,
	})
}

// Package energy is the event-level energy and power model — the subsystem
// that turns the simulator's statistics record into the paper's second
// pathfinding axis. Nothing here advances simulated time: every joule is a
// deterministic, linear function of the event counters stats.DPU already
// accumulates (instruction mix, register-file and scratchpad accesses, DMA
// and link bytes, DRAM activates/bursts/refreshes, cache array lookups,
// host-channel bytes) plus static leakage integrated over the kernel's
// cycles, so energy inherits the simulator's determinism and the store's
// resume guarantees for free: a result loaded back from a pathfinding store
// yields bit-identical energy to the run that produced it.
//
// The per-event costs live in a TechProfile: a versioned, JSON-loadable
// parameter set with a committed default (profiles/default.json). Profiles
// loaded from disk override the default field-by-field, so a user profile
// only needs to name the parameters it changes — plus its own "name" (so
// reports never attribute custom calibrations to the committed profile)
// and "format" (so stale files fail loudly after a schema bump).
//
// Compute one report with Kernel (per-DPU event energy), HostTransfer (the
// CPU<->DPU channel) or OfRun (a whole verified run); Report breaks the
// total down per Component and derives average power and energy-delay
// product. BreakdownColumns/AppendBreakdownRow render reports through the
// artifact pipeline, which is how the figures "energy" experiment, the
// explorer's energy tables and the CLIs all emit the same table shape.
package energy

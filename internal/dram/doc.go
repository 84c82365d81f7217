// Package dram models the per-DPU MRAM bank: a single DDR4-2400 DRAM bank
// with a 1KB row buffer, FR-FCFS request scheduling, optional refresh, and
// the bandwidth-capped MRAM<->WRAM link the DMA engine drains data through.
//
// Timing follows the paper's Table I (tRCD/tRAS/tRP/tCL/tBL expressed in
// DRAM command-clock cycles at 1200 MHz); the simulator converts everything
// into exact integer ticks (see internal/config). Requests are scheduled at
// burst granularity (8 bytes by default); scheduling decisions are made
// whenever the bank is free, choosing first-ready (open-row hits) then
// first-come-first-serve, with an age cap so row misses cannot starve.
//
// Requests are *queued* as runs: EnqueueRun puts a train of consecutive
// bursts — a DMA's share of one DRAM row — into the queues as one entry, and
// Enqueue is the run of one (cache fills, page-table walks, SIMT vector
// memory). The scheduler still decides burst by burst, and decides the same:
// the bursts of a run share an arrival tick and a row and would sit next to
// each other in every queue, so each rule names the run's next burst exactly
// when it would have named that burst in a per-burst queue (run_test.go and
// FuzzEnqueueRun hold EnqueueRun to n × Enqueue on twin banks). While a run
// is in service the next decision is remembered rather than re-derived, so
// a DMA train costs one queue walk per run, not two per burst.
//
// The bank-level counters this package records (bytes moved, row
// hits/misses/empties, refreshes) feed stats.DPU.DRAM and from there the
// paper's bandwidth-utilization and traffic figures (Fig 5, Fig 16).
package dram

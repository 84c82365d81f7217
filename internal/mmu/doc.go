// Package mmu implements the case-study 3 memory-management unit: a
// single-level page table stored in the DPU's own MRAM, walked by a
// hardware page-table walker, cached by a 16-entry fully-associative LRU
// TLB, with a fault buffer serviced by the host (polling/interrupt) at a
// configurable round-trip latency.
//
// Adding it in front of MRAM accesses quantifies the address-translation
// overhead the paper reports as 0.8% average / 14.1% max — the evidence
// behind its argument that PIM can afford virtual memory, and with it the
// multi-tenant isolation that commercial deployment requires (internal/serve
// profiles its tenants' kernels with the MMU on). The `mmu` experiment in
// internal/figures regenerates the study.
package mmu

// Package kbuild is a typed macro-assembler for authoring DPU kernels in Go.
// It plays the role of the compiler front-end in the paper's toolchain: the
// PrIM workloads are written against this builder and lowered to the UPMEM-
// style ISA, then linked by internal/linker.
//
// # Conventions (the kernel ABI)
//
//   - The host writes up to 16 32-bit argument words at WRAM offset 0
//     (LoadArg reads them). MRAM buffer locations are passed as absolute
//     addresses in args.
//   - r22 is initialized to a per-tasklet stack top, r23 is the link
//     register (CALL target).
//   - Mutexes come from AllocLock; barriers from NewBarrier (a generation
//     barrier built from acquire/release spin loops and WRAM counters,
//     mirroring how the UPMEM SDK builds them in software).
//
// # Frames
//
// The PrIM kernels share a handful of loop shapes; frames.go emits each once.
// A frame is a macro, not an abstraction: it takes every register it touches
// as a parameter and emits a fixed instruction sequence, because register
// numbers (RF-bank conflicts), instruction order and static declaration
// order (WRAM layout) are the kernel's behaviour —
// internal/prim/testdata/objects.golden pins all 34 built objects, and
// TestFramesMatchHandSpelling pins each frame to the spelling it replaced.
// Registers a frame holds live together must be distinct; an alias panics.
// Labels a frame needs are gensyms, so frames nest and repeat freely.
//
//   - LoadArgs(first, regs...): lw of consecutive argument words.
//   - TaskletStatic(name, bytesPer): a static of MaxTasklets slots.
//     TaskletPtr(p, sym, stride, tmp) / TaskletSlot(p, sym, shift, tmp):
//     p = &sym + ID*stride (movi, mul, add) / + ID<<shift (movi, lsl, add);
//     clobbers tmp.
//   - Index(dst, base, idx, shift) / IndexVia(..., tmp): dst = base +
//     idx<<shift (lsl, add); the scaled index goes through dst / tmp.
//   - TaskletRange[Aligned](start, end, n, tmp): this tasklet's slice of n
//     items; clobbers tmp.
//   - ClampSub(elems, end, cur, n): elems = min(end-cur, n).
//     ChunkLoop(cur, end, elems, n, body, rest): the strip-mined loop around
//     it (cur advances by elems per trip). StageWords(buf, src, cur, elems,
//     bytes, mram): one chunk's DMA-in, leaving its size in bytes and its
//     MRAM address in mram. StagedLoop(Stage, body, rest): ChunkLoop +
//     StageWords + PX/PEnd set to walk the staged words.
//   - PtrRange(start, end, tmp, pEnd, ptr, base, ...): the cache-mode
//     prologue, pointers in place of a word range; WalkWords(pEnd, body,
//     ptrs...): the loop over them, every pointer stepping one word.
//   - PublishAndWait(sym, val, p, tmp, bar, w1..w3, skip): sym[ID] = val,
//     barrier, all but tasklet 0 leave for skip. CopyWords(src, dst, cnt,
//     tmp): tasklet 0's load/store ship loop.
//   - PushResult(ResultBuffer, s, t, u, loop): buffer one row result in
//     WRAM, DMA every N of them out.
//
// A loop that differs from its siblings by an instruction stays with its
// kernel and composes the smaller frames (VA stages two arrays at one shared
// offset, TS over-fetches a window, SpMV aligns its segment, BFS advances by
// a constant): ChunkLoop takes the body for exactly that, and ClampSub
// stands alone.
//
// Misuse (bad registers, aliased frame registers, immediate overflow, unknown labels) panics: kernels
// are compiled at process start and exercised by tests, so failing fast
// beats threading errors through every call site.
package kbuild

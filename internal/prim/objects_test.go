package prim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"upim/internal/config"
)

// TestObjectsGolden pins what a kernel emitter is to the rest of the
// simulator: the object it builds. Register numbers, instruction order,
// static names and declaration order decide RF-bank conflicts and the WRAM
// layout, so a refactor of a build*/emit* function (or of a kbuild frame
// helper) owes the same object bit for bit. One line per built object — 16
// benchmarks × scratchpad/cache, plus the GEMV SIMT kernel = 33 — holding its name, mode, instruction count, static count, total static
// bytes and the SHA-256 of the %+v of the *linker.Object. Regenerate
// (-run ObjectsGolden -update) only for a change meant to emit different
// code; ledger.golden, stats.golden and the figure refdata move with it.
func TestObjectsGolden(t *testing.T) {
	var out bytes.Buffer
	n := 0
	for _, b := range Benchmarks() {
		for _, mode := range objectModes(b) {
			obj, err := b.Build(mode)
			if err != nil {
				t.Fatalf("%s/%v: %v", b.Name, mode, err)
			}
			var bytesTotal uint32
			for _, s := range obj.Statics {
				bytesTotal += s.Size
			}
			fmt.Fprintf(&out, "%s %v instrs=%d statics=%d static_bytes=%d %x\n",
				b.Name, mode, len(obj.Instrs), len(obj.Statics), bytesTotal,
				sha256.Sum256([]byte(fmt.Sprintf("%+v", obj))))
			n++
		}
	}
	if n != 33 {
		t.Fatalf("built %d objects, want 33", n)
	}
	checkGolden(t, "testdata/objects.golden", out.Bytes())
}

// objectModes lists the modes b has a kernel for: both memory models, plus
// SIMT where SupportsSIMT says so.
func objectModes(b *Benchmark) []config.Mode {
	modes := []config.Mode{config.ModeScratchpad, config.ModeCache}
	if b.SupportsSIMT {
		modes = append(modes, config.ModeSIMT)
	}
	return modes
}

// BenchmarkBuildAllObjects is the cold build of the golden's 33 objects
// through a fresh BuildCache: what the frame helpers may not make slower.
func BenchmarkBuildAllObjects(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cache := NewBuildCache()
		for _, bench := range Benchmarks() {
			for _, mode := range objectModes(bench) {
				if _, err := cache.object(bench, mode); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

package asm_test

import (
	"testing"

	"upim/internal/asm"
	"upim/internal/config"
	"upim/internal/explore"
	"upim/internal/isa"
	"upim/internal/linker"
)

// fuzzConfigs are the configurations an exploration of GEMV (the one
// benchmark with a kernel in all three memory modes) hands the toolchain
// over these axes: the feasible points only, SIMT tasklets expanded to
// lanes, exactly as Space.Points produces them.
var fuzzConfigs = func() []config.Config {
	pts, err := explore.NewSpace([]string{"GEMV"},
		explore.Tasklets(1, 4, 16, 24),
		explore.FrequencyMHz(175, 350, 700),
		explore.LinkScale(1, 2, 4),
		explore.ILP("base", "D", "DR", "DRS", "DRSF"),
		explore.Modes(config.ModeScratchpad, config.ModeCache, config.ModeSIMT),
	).Points()
	if err != nil {
		panic(err)
	}
	cfgs := make([]config.Config, len(pts))
	for i, p := range pts {
		cfgs[i] = p.EP.Config
	}
	return cfgs
}()

// fuzzConfig picks one configuration from the fuzzer's bytes, read as a
// big-endian index.
func fuzzConfig(picks []byte) config.Config {
	i := 0
	for _, b := range picks {
		i = (i<<8 | int(b)) % len(fuzzConfigs)
	}
	return fuzzConfigs[i]
}

// FuzzAssembleLinkRoundTrip feeds arbitrary source through the
// assemble→link front end under explorer-shaped configurations. The
// toolchain must never panic: it either rejects the input with an error or
// produces a program whose instructions fit IRAM and whose encodings are
// stable under an encode→decode→encode round trip (the image a DPU fetches
// means what the linker laid out).
func FuzzAssembleLinkRoundTrip(f *testing.F) {
	seeds := []string{
		`
.alloc buf 64
		movi r0, buf
		movi r1, 0
loop:	lw   r2, r0, 0
		add  r2, r2, 1
		sw   r2, r0, 0
		add  r1, r1, 1
		jlt  r1, 8, loop
		stop
`,
		".word magic 0xdeadbeef 1\n\tmovi r0, magic\n\tlw r1, r0, 0\n\tstop\n",
		"\tstop\n",
		"label: jeq r0, r0, label\n",
		"; comment only\n",
		".alloc a 8\n.alloc a 8\n", // duplicate symbol
		"\tmovi r0, 1 extra junk\n",
		"\tldma r0, r1, r2\n\tstop\n",
	}
	for _, src := range seeds {
		for _, picks := range [][]byte{{0, 0, 0, 0, 0}, {1, 2, 3, 4, 2}, {3, 1, 2, 2, 1}} {
			f.Add(src, picks)
		}
	}
	f.Fuzz(func(t *testing.T, src string, picks []byte) {
		obj, err := asm.Assemble("fuzz", src)
		if err != nil {
			return // rejecting the input is fine; panicking is not
		}
		cfg := fuzzConfig(picks)
		prog, err := linker.Link(obj, cfg)
		if err != nil {
			return
		}
		if len(prog.Instrs) > cfg.IRAMCapacity() {
			t.Fatalf("linked %d instructions into a %d-instruction IRAM", len(prog.Instrs), cfg.IRAMCapacity())
		}
		for i, in := range prog.Instrs {
			w, err := in.Encode()
			if err != nil {
				t.Fatalf("instr %d (%+v): linked program does not encode: %v", i, in, err)
			}
			back, err := isa.Decode(w)
			if err != nil {
				t.Fatalf("instr %d: decode(encode) failed: %v", i, err)
			}
			w2, err := back.Encode()
			if err != nil || w2 != w {
				t.Fatalf("instr %d: encoding not stable under round trip (%v)", i, err)
			}
		}
	})
}

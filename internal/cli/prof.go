package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Prof is the -cpuprofile/-memprofile pair, so perf investigations of the
// simulator's hot path never require editing code. Main registers it on
// every command and brackets the body with Start and its cleanup.
type Prof struct {
	CPU string // file to write a CPU profile to ("" = none)
	Mem string // file to write a heap profile to on exit ("" = none)
}

// Register declares the pair on fs.
func (p *Prof) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file on exit")
}

// Start begins CPU profiling into p.CPU (when non-empty) and returns a
// cleanup that stops it and writes a heap profile to p.Mem (when non-empty).
// Callers must run the cleanup before exiting — including on error paths —
// or the CPU profile will be truncated.
func (p Prof) Start() (stop func(), err error) {
	var cpuFile *os.File
	if p.CPU != "" {
		if cpuFile, err = os.Create(p.CPU); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if p.Mem != "" {
			f, err := os.Create(p.Mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}

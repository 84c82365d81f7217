// Package cli is the plumbing the commands share: the -cpuprofile/-memprofile
// pair (cmd/figures, cmd/prim), so perf investigations of the simulator's hot
// path never require editing code, and the -out/-writeref/-check tail every
// table-emitting command ends on (cmd/figures, cmd/pathfind, upimulator
// serve).
package cli

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile begins CPU profiling into cpuPath (when non-empty) and returns a
// cleanup that stops it and writes a heap profile to memPath (when
// non-empty). Callers must run the cleanup before exiting — including on
// error paths — or the CPU profile will be truncated.
func Profile(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
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
		if memPath != "" {
			f, err := os.Create(memPath)
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

// Command upasm drives the custom assembler/linker toolchain on a textual
// assembly file: it assembles, links against the default configuration, and
// prints the disassembly, symbol table, and encoded IRAM image size —
// the "compile any UPMEM-PIM program down to machine level" path of the
// paper's frontend.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"

	"upim"
	"upim/internal/cli"
	"upim/internal/config"
	"upim/internal/isa"
)

func main() { os.Exit(cli.Main("upasm", os.Args[1:], upasm)) }

func upasm(fs *flag.FlagSet) func(context.Context) error {
	mode := fs.String("mode", "scratchpad", "link target: scratchpad, cache or simt")
	return func(context.Context) error {
		if fs.NArg() != 1 {
			return cli.Usagef("want one assembly file: upasm [-mode scratchpad|cache|simt] file.S")
		}
		cfg := upim.DefaultConfig()
		var err error
		if cfg.Mode, err = config.ParseMode(*mode); err != nil {
			return cli.Usage(err)
		}
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		obj, err := upim.Assemble(fs.Arg(0), string(src))
		if err != nil {
			return err
		}
		prog, err := upim.Link(obj, cfg)
		if err != nil {
			return err
		}
		img, err := prog.IRAMImage()
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d instructions, %d bytes of IRAM (%d-byte words), %d static bytes in %v\n\n",
			prog.Name, len(prog.Instrs), len(img), isa.WordBytes, prog.StaticBytes, prog.StaticSpace)
		// Address order (then name): ranging the map would print the same
		// program differently from run to run.
		names := slices.SortedFunc(maps.Keys(prog.Symbols), func(a, b string) int {
			return cmp.Or(cmp.Compare(prog.Symbols[a].Addr, prog.Symbols[b].Addr), cmp.Compare(a, b))
		})
		for _, name := range names {
			sym := prog.Symbols[name]
			fmt.Printf("  %-16s 0x%08x  %d bytes\n", name, sym.Addr, sym.Size)
		}
		fmt.Println()
		fmt.Print(isa.Disassemble(prog.Instrs))
		return nil
	}
}

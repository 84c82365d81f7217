// Package cli is the one command toolkit. Main runs a command: its flag set,
// the interrupt-cancelled context, profiling, the single error line and the
// exit code. Three flag groups declare the flags commands share exactly once:
// Sim (-scale/-jobs), Report (-out/-writeref/-check/-eps and the tail that
// honours them) and Prof (-cpuprofile/-memprofile, on every command). The
// next flag every command should grow belongs here, not in cmd/.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
)

// Command declares a command's flags on fs and returns its body. Main parses
// the arguments between the two, so the body reads parsed values (and
// fs.Args) and never sees a parse error.
type Command func(fs *flag.FlagSet) func(ctx context.Context) error

// ErrReported is what a body returns once it has narrated its own failure
// (failed rows in a table it printed, Report.Finish's deviating artifacts):
// Main exits 1 and prints nothing more.
var ErrReported = errors.New("failure already reported")

// usageError marks a mistake in the invocation, as opposed to a failed run.
type usageError struct{ error }

// Usage marks err as a mistake in the invocation: Main exits 2 on it, as it
// does on an argument that does not parse.
func Usage(err error) error { return usageError{err} }

// Usagef is Usage(fmt.Errorf(format, args...)).
func Usagef(format string, args ...any) error { return Usage(fmt.Errorf(format, args...)) }

// IsSet reports whether the parsed command line set flag name explicitly —
// how a command rejects a flag that nothing in this invocation would read.
func IsSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// Main runs cmd as the command called name on args and returns the process
// exit code: 0 for a nil error or -h, 2 for an argument that does not parse
// or a Usage error, 1 for everything else. Every failure is one "name: err"
// line on stderr (none for ErrReported). The body's context is cancelled by
// an interrupt, and profiling the Prof flags asked for is stopped, with
// complete profiles on disk, whatever the body returns.
func Main(name string, args []string, cmd Command) int {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage of %s:\n", name)
		fs.PrintDefaults()
	}
	var prof Prof
	prof.Register(fs)
	body := cmd(fs)

	// Parse prints its error and the whole flag list itself; silence it so a
	// bad argument is one line like every other error, and only -h lists.
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	fs.SetOutput(os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		fs.Usage()
		return 0
	case err != nil:
		err = Usage(err)
	default:
		err = run(prof, body)
	}
	if err == nil {
		return 0
	}
	if !errors.Is(err, ErrReported) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	}
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

func run(prof Prof, body func(ctx context.Context) error) error {
	stop, err := prof.Start()
	if err != nil {
		return err
	}
	defer stop()
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	return body(ctx)
}

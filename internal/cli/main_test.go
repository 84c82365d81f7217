package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// mainStderr runs Main with os.Stderr captured.
func mainStderr(t *testing.T, args []string, cmd Command) (code int, stderr string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stderr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = f
	code = Main("tool", args, cmd)
	os.Stderr = saved
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return code, string(data)
}

// returning is a command with one flag whose body returns err.
func returning(err error) Command {
	return func(fs *flag.FlagSet) func(context.Context) error {
		fs.Int("n", 0, "a number")
		return func(context.Context) error { return err }
	}
}

// TestMainMapping pins the one error → exit code → stderr path.
func TestMainMapping(t *testing.T) {
	plain := errors.New("the run failed")
	for _, tc := range []struct {
		name   string
		args   string
		err    error
		code   int
		stderr string
	}{
		{"nil", "", nil, 0, ""},
		{"plain error", "", plain, 1, "tool: the run failed\n"},
		{"usage error", "", Usage(plain), 2, "tool: the run failed\n"},
		{"wrapped usage error", "", fmt.Errorf("ctx: %w", Usagef("bad %d", 7)), 2, "tool: ctx: bad 7\n"},
		{"reported", "", ErrReported, 1, ""},
		{"wrapped reported", "", fmt.Errorf("suite: %w", ErrReported), 1, ""},
		{"undefined flag", "-nosuch", nil, 2, "tool: flag provided but not defined: -nosuch\n"},
		{"unparsable value", "-n x", nil, 2, "tool: invalid value \"x\" for flag -n: parse error\n"},
	} {
		code, stderr := mainStderr(t, strings.Fields(tc.args), returning(tc.err))
		if code != tc.code || stderr != tc.stderr {
			t.Errorf("%s: exit %d, stderr %q; want %d, %q", tc.name, code, stderr, tc.code, tc.stderr)
		}
	}

	code, stderr := mainStderr(t, []string{"-h"}, returning(plain))
	if code != 0 || !strings.HasPrefix(stderr, "Usage of tool:\n") || !strings.Contains(stderr, "-cpuprofile") {
		t.Errorf("-h: exit %d, stderr %q; want 0 and the flag list, shared flags included", code, stderr)
	}
}

// TestMainCancelsOnInterrupt: the body's context is the interrupt-cancelled
// one, and a body that gives up on it is an ordinary failed run.
func TestMainCancelsOnInterrupt(t *testing.T) {
	code, stderr := mainStderr(t, nil, func(*flag.FlagSet) func(context.Context) error {
		return func(ctx context.Context) error {
			if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
				return err
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(10 * time.Second):
				return errors.New("context not cancelled by SIGINT")
			}
		}
	})
	if code != 1 || stderr != "tool: context canceled\n" {
		t.Errorf("exit %d, stderr %q; want 1, %q", code, stderr, "tool: context canceled\n")
	}
}

// TestProfStopsOnError: Main stops profiling on the error path too, so both
// profiles are complete on disk when a run fails.
func TestProfStopsOnError(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	code, _ := mainStderr(t, []string{"-cpuprofile", cpu, "-memprofile", mem}, returning(errors.New("boom")))
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty after a failed run (%v)", path, err)
		}
	}
	// A second CPU profile can only start if Main stopped the first.
	if code, stderr := mainStderr(t, []string{"-cpuprofile", cpu}, returning(nil)); code != 0 {
		t.Errorf("second profiled run: exit %d, stderr %q", code, stderr)
	}
}

// TestSharedFlagRules: -eps without -check is a usage error; the scale flag
// rejects an unknown scale in Parse.
func TestSharedFlagRules(t *testing.T) {
	cmd := func(fs *flag.FlagSet) func(context.Context) error {
		var sim Sim
		var rep Report
		sim.Register(fs)
		rep.Register(fs)
		return func(context.Context) error { return rep.Validate() }
	}
	for args, want := range map[string]int{
		"-eps 0.5":             2,
		"-eps 0.5 -check":      0,
		"-scale bogus":         2,
		"-scale paper -jobs 3": 0,
	} {
		if code, stderr := mainStderr(t, strings.Fields(args), cmd); code != want {
			t.Errorf("%s: exit %d, want %d (stderr %q)", args, code, want, stderr)
		}
	}
}

package cli

import (
	"flag"

	"upim/internal/prim"
)

// Sim is the flag group of a command that simulates: the dataset scale and
// the worker count.
type Sim struct {
	Scale prim.Scale // -scale
	Jobs  int        // -jobs, 0 = GOMAXPROCS
}

// Register declares -scale and -jobs on fs.
func (s *Sim) Register(fs *flag.FlagSet) {
	s.RegisterScale(fs)
	fs.IntVar(&s.Jobs, "jobs", 0, "concurrent simulation points (0 = GOMAXPROCS)")
}

// RegisterScale declares -scale alone, for a command that names a scale but
// simulates nothing itself (`pathfind serve` describes a space to workers).
// The flag parses as it is read, so an unknown scale fails in Parse — never
// a silent run at the zero scale, which is tiny, the default.
func (s *Sim) RegisterScale(fs *flag.FlagSet) {
	fs.Var((*scaleValue)(&s.Scale), "scale", "dataset scale: tiny, small or paper (default tiny)")
}

type scaleValue prim.Scale

func (v *scaleValue) String() string { return prim.Scale(*v).String() }

func (v *scaleValue) Set(text string) error {
	sc, err := prim.ParseScale(text)
	*v = scaleValue(sc)
	return err
}

package explore

import (
	"fmt"
	"strings"

	"upim/internal/energy"
)

// ParseAxes parses a CLI axis specification into typed axes. The grammar is
// semicolon-separated axes, each "name=v1,v2,...":
//
//	tasklets=1,4,16;ilp=base,D,DRSF;link=1,2,4;mode=scratchpad,cache
//
// The names are the built-in axes Vocabulary lists, and each value is
// whatever the matching typed constructor (Archs, Tasklets, DPUs,
// FrequencyMHz, LinkScale, ILP, Modes, Policies) takes, spelled as text.
// Axes are applied to each point in specification order.
func ParseAxes(spec string) ([]Axis, error) {
	var axes []Axis
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, vals, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" || strings.TrimSpace(vals) == "" {
			return nil, fmt.Errorf("explore: axis %q: want name=v1,v2,...", part)
		}
		var values []string
		for _, v := range strings.Split(vals, ",") {
			v = strings.TrimSpace(v)
			if v == "" {
				return nil, fmt.Errorf("explore: axis %q has an empty value", name)
			}
			values = append(values, v)
		}
		axis, err := buildAxis(name, values)
		if err != nil {
			return nil, err
		}
		axes = append(axes, axis)
	}
	if len(axes) == 0 {
		return nil, fmt.Errorf("explore: empty axis specification")
	}
	return axes, nil
}

// FormatAxes renders axes back into the ParseAxes grammar, its exact
// inverse: every level is built in and keeps the spec value it was built
// from, so ParseAxes(FormatAxes(axes)) reconstructs the axes as built —
// names, labels, costs and mutations; FuzzParseAxes pins the round trip.
func FormatAxes(axes []Axis) string {
	parts := make([]string, len(axes))
	for i, a := range axes {
		vals := make([]string, len(a.Levels))
		for j, l := range a.Levels {
			vals[j] = l.value
		}
		parts[i] = a.Name + "=" + strings.Join(vals, ",")
	}
	return strings.Join(parts, ";")
}

// goals is the -goals vocabulary in display order: each name and its
// objective (GoalTime, GoalKernelTime, ...) under an energy profile.
var goals = []struct {
	name string
	goal func(*energy.TechProfile) Goal
}{
	{"time", func(*energy.TechProfile) Goal { return GoalTime() }},
	{"kernel", func(*energy.TechProfile) Goal { return GoalKernelTime() }},
	{"cost", func(*energy.TechProfile) Goal { return GoalCost() }},
	{"energy", GoalEnergy},
	{"edp", GoalEDP},
	{"p99", func(*energy.TechProfile) Goal { return GoalP99() }},
}

// Vocabulary describes the words ParseAxes and ParseGoals accept, for a
// command's usage text: each built-in axis with what it sweeps, and the
// goal names, each list in display order.
func Vocabulary() (axes, goalNames string) {
	a := make([]string, len(builtins))
	for i, b := range builtins {
		a[i] = b.name + " (" + b.about + ")"
	}
	return strings.Join(a, ", "), goalList()
}

// goalList lists the goal names as "time, kernel, ...".
func goalList() string {
	names := make([]string, len(goals))
	for i, g := range goals {
		names[i] = g.name
	}
	return strings.Join(names, ", ")
}

// ParseGoals parses a comma-separated CLI goal specification — e.g.
// "time,cost" or "energy,cost" — into the Pareto objectives the goals
// table names; energy and edp are computed under profile p (nil = the
// committed default). Errors name the full valid vocabulary. Duplicate
// goals are rejected — a repeated objective never changes a frontier.
func ParseGoals(spec string, p *energy.TechProfile) ([]Goal, error) {
	var out []Goal
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		name := strings.ToLower(strings.TrimSpace(part))
		if name == "" {
			continue
		}
		if seen[name] {
			return nil, fmt.Errorf("explore: goal %q repeated (a duplicate objective never changes a frontier)", name)
		}
		seen[name] = true
		var goal func(*energy.TechProfile) Goal
		for _, g := range goals {
			if g.name == name {
				goal = g.goal
			}
		}
		if goal == nil {
			return nil, fmt.Errorf("explore: unknown goal %q (want a comma-separated subset of: %s)", name, goalList())
		}
		out = append(out, goal(p))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("explore: empty goal specification (want a comma-separated subset of: %s)", goalList())
	}
	return out, nil
}

package energy_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"upim/internal/config"
	"upim/internal/energy"
	"upim/internal/stats"
)

// eachCounter walks the exported numeric leaves of parallel values of one
// type — struct fields, nested records and array elements, in declaration
// order — and calls fn with each leaf's path and its value in every record.
// Slices (the per-window timeline) are samples, not counters, and are
// skipped. Being reflective, it reaches a counter added to stats.DPU later
// without an edit here.
func eachCounter(path string, vs []reflect.Value, fn func(path string, leaves []reflect.Value)) {
	v := vs[0]
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			fields := make([]reflect.Value, len(vs))
			for j := range vs {
				fields[j] = vs[j].Field(i)
			}
			eachCounter(path+"."+f.Name, fields, fn)
		}
	case reflect.Array:
		for i := range v.Len() {
			elems := make([]reflect.Value, len(vs))
			for j := range vs {
				elems[j] = vs[j].Index(i)
			}
			eachCounter(fmt.Sprintf("%s[%d]", path, i), elems, fn)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Float32, reflect.Float64:
		fn(path, vs)
	}
}

// counters returns the leaf walk of one or more stats records.
func counters(sts ...*stats.DPU) func(func(path string, leaves []reflect.Value)) {
	vs := make([]reflect.Value, len(sts))
	for i, st := range sts {
		vs[i] = reflect.ValueOf(st).Elem()
	}
	return func(fn func(string, []reflect.Value)) { eachCounter("DPU", vs, fn) }
}

// add sets leaf to leaf + d.
func add(leaf reflect.Value, d uint64) {
	switch {
	case leaf.CanUint():
		leaf.SetUint(leaf.Uint() + d)
	case leaf.CanInt():
		leaf.SetInt(leaf.Int() + int64(d))
	default:
		leaf.SetFloat(leaf.Float() + float64(d))
	}
}

// delta returns after - before counter by counter: the record of what one
// DPU did between two snapshots.
func delta(after, before *stats.DPU) stats.DPU {
	d := *after
	counters(&d, before)(func(_ string, l []reflect.Value) {
		switch {
		case l[0].CanUint():
			l[0].SetUint(l[0].Uint() - l[1].Uint())
		case l[0].CanInt():
			l[0].SetInt(l[0].Int() - l[1].Int())
		default:
			l[0].SetFloat(l[0].Float() - l[1].Float())
		}
	})
	return d
}

// TestEnergyMonotoneInEveryCounter: doing more of anything never costs
// less. Over seeded random records, under both committed profiles and every
// memory mode, raising any one numeric counter of stats.DPU never lowers any
// Kernel component, and HostTransfer never falls as either volume grows.
func TestEnergyMonotoneInEveryCounter(t *testing.T) {
	var paths []string
	var probe stats.DPU
	counters(&probe)(func(p string, _ []reflect.Value) { paths = append(paths, p) })
	// The walk must reach the nested records and the array elements, or a
	// refactor of stats.DPU could turn this test into a no-op.
	for _, want := range []string{"DPU.Cycles", "DPU.Mix[0]", "DPU.Idle[2]", "DPU.DRAM.RowMisses",
		"DPU.ICache.Accesses", "DPU.MMU.PageFaults", "DPU.RFReads"} {
		found := false
		for _, p := range paths {
			found = found || p == want
		}
		if !found {
			t.Fatalf("counter walk misses %s (walked %d leaves)", want, len(paths))
		}
	}

	rng := rand.New(rand.NewSource(1))
	profiles := []*energy.TechProfile{energy.Default(), energy.DefaultFor("hbm-pim")}
	for rec := range 16 {
		var base stats.DPU
		counters(&base)(func(_ string, l []reflect.Value) { add(l[0], uint64(rng.Int63n(1<<30))) })
		for _, prof := range profiles {
			for _, mode := range []config.Mode{config.ModeScratchpad, config.ModeCache, config.ModeSIMT} {
				cfg := config.Default()
				cfg.Mode = mode
				before := energy.Kernel(prof, cfg, &base)
				for i, path := range paths {
					up := base
					k := 0
					counters(&up)(func(_ string, l []reflect.Value) {
						if k == i {
							add(l[0], 1+uint64(rng.Int63n(1<<20)))
						}
						k++
					})
					after := energy.Kernel(prof, cfg, &up)
					for c := range energy.NumComponents {
						if after.PJ[c] < before.PJ[c] {
							t.Errorf("record %d, %s, %v: raising %s lowers %v from %v to %v pJ",
								rec, prof.Name, mode, path, c, before.PJ[c], after.PJ[c])
						}
					}
				}
			}
			in, out := uint64(rng.Int63n(1<<30)), uint64(rng.Int63n(1<<30))
			d := 1 + uint64(rng.Int63n(1<<20))
			h := energy.HostTransfer(prof, in, out).PJ[energy.HostLink]
			if energy.HostTransfer(prof, in+d, out).PJ[energy.HostLink] < h ||
				energy.HostTransfer(prof, in, out+d).PJ[energy.HostLink] < h {
				t.Errorf("record %d, %s: host transfer energy falls as bytes grow", rec, prof.Name)
			}
		}
	}
}

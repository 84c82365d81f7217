package coord

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"upim/internal/explore"
	"upim/internal/httpjson"
	"upim/internal/prim"
)

// decodeLease is what Client.Lease does with a /v1/lease response body:
// decode it strictly, then validate the unit it carries.
func decodeLease(body []byte) (*leaseResponse, error) {
	var resp leaseResponse
	if err := httpjson.DecodeStrict(bytes.NewReader(body), &resp); err != nil {
		return nil, err
	}
	if resp.Unit != nil {
		if err := resp.Unit.Validate(); err != nil {
			return nil, err
		}
	}
	return &resp, nil
}

// FuzzLeaseCodec pins the lease boundary's safety contract: no response
// body makes the worker's decode panic, every unit it accepts is
// internally valid, and an accepted response re-encodes to a fixed point.
func FuzzLeaseCodec(f *testing.F) {
	for _, u := range []WorkUnit{
		{Shard: 0, Start: 0, End: 2, Lease: "s0.g1", TTLMillis: 10000, Total: 16},
		{Shard: 7, Start: 14, End: 16, Lease: "s7.g3", TTLMillis: 1, Total: 16},
	} {
		if b, err := json.Marshal(leaseResponse{Unit: &u}); err == nil {
			f.Add(b)
		}
	}
	for _, unit := range []string{
		`{}`,
		`{"shard":-1,"start":0,"end":2,"lease":"s0.g1","ttl_ms":1,"total":2}`,
		`{"shard":0,"start":2,"end":1,"lease":"s0.g1","ttl_ms":1,"total":2}`,
		`{"shard":0,"start":0,"end":2,"lease":"evil","ttl_ms":1,"total":2}`,
		`{"shard":0,"start":0,"end":2,"lease":"s0.g1","ttl_ms":1,"total":2,"extra":1}`,
		`null`,
	} {
		f.Add([]byte(`{"unit":` + unit + `,"done":false}`))
	}
	valid := `{"unit":{"shard":0,"start":0,"end":2,"lease":"s0.g1","ttl_ms":1,"total":2}}`
	f.Add([]byte(valid + `{"again":true}`))
	f.Add([]byte(valid + `}`))
	f.Add([]byte(`{"done":true}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))

	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := decodeLease(body)
		if err != nil {
			return // rejected input: only the no-panic guarantee applies
		}
		if resp.Unit != nil && resp.Unit.Validate() != nil {
			t.Fatalf("accepted an invalid unit %+v", resp.Unit)
		}
		wire, err := json.Marshal(resp)
		if err != nil {
			t.Fatalf("accepted response %+v does not re-encode: %v", resp, err)
		}
		again, err := decodeLease(wire)
		if err != nil {
			t.Fatalf("re-encoded response %s does not decode: %v", wire, err)
		}
		if again.Done != resp.Done || (again.Unit == nil) != (resp.Unit == nil) ||
			(resp.Unit != nil && *again.Unit != *resp.Unit) {
			t.Fatalf("round trip changed the response: %s -> %s", body, wire)
		}
		if wire2, err := json.Marshal(again); err != nil || !bytes.Equal(wire, wire2) {
			t.Fatalf("re-encoding is not a fixed point: %s -> %s (err %v)", wire, wire2, err)
		}
	})
}

// FuzzSpaceSpec holds SpecFor to being the whole space: a space built from
// ParseAxes over a subset of the suite (bit i of suite picks the i-th
// benchmark), a scale (3 is outside the table) and a DPU count survives
// SpecFor → JSON → SpaceSpec.Space() point for point — benchmark, design,
// cost and store key — and a space no worker could rebuild (no benchmarks,
// a scale outside the table, a repeated axis) is refused.
func FuzzSpaceSpec(f *testing.F) {
	suite := prim.Benchmarks()
	pick := func(names ...string) (bits uint32) {
		for i, b := range suite {
			if slices.Contains(names, b.Name) {
				bits |= 1 << i
			}
		}
		return bits
	}
	tiny := uint8(prim.ScaleTiny)
	f.Add(explore.FormatAxes(crashSpace().Axes), pick("VA", "BS"), tiny, uint8(1))
	f.Add("arch=upmem,hbm-pim;tasklets=1,16;dpus=1,4;freq=350,700;link=1,4;"+
		"ilp=base,D,DRSF;mode=scratchpad,cache,simt;policy=fifo,wfq,slo", pick("GEMV", "VA"), tiny, uint8(1))
	for _, axes := range []string{"", "tasklets=1,4,16", "dpus=1,16,64", "freq=175,350,700", "link=1,2,4",
		"ilp=base,D,DR,DRS,DRSF", "mode=scratchpad,cache,simt", "arch=upmem,hbm-pim;dpus=1,2", "policy=fifo,wfq,slo"} {
		f.Add(axes, pick("GEMV", "VA", "BFS"), uint8(prim.ScaleSmall), uint8(2))
	}
	f.Add("tasklets=1", uint32(0), tiny, uint8(1))
	f.Add("tasklets=1", pick("VA"), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, axesSpec string, pick uint32, scale, dpus uint8) {
		var axes []explore.Axis
		if axesSpec != "" {
			var err error
			if axes, err = explore.ParseAxes(axesSpec); err != nil {
				return
			}
		}
		var benches []string
		for i, b := range suite {
			if pick>>i&1 == 1 {
				benches = append(benches, b.Name)
			}
		}
		space := explore.NewSpace(benches, axes...)
		space.Scale = prim.Scale(scale % 4)
		space.DPUs = int(dpus)
		if space.Size() > 4096 {
			return // keep one input to milliseconds
		}
		names := make(map[string]bool)
		for _, a := range axes {
			names[a.Name] = true
		}
		spec, err := SpecFor(space, 0)
		if unbuildable := len(benches) == 0 || space.Scale == 3 || len(names) < len(axes); unbuildable != (err != nil) {
			t.Fatalf("SpecFor(%q over %v at %v): error %v", axesSpec, benches, space.Scale, err)
		}
		if err != nil {
			return
		}
		wire, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var got SpaceSpec
		if err := httpjson.DecodeStrict(bytes.NewReader(wire), &got); err != nil {
			t.Fatalf("spec %s does not decode: %v", wire, err)
		}
		back, err := got.Space()
		if err != nil {
			t.Fatalf("spec %s does not rebuild: %v", wire, err)
		}
		want, wantErr := space.Points()
		have, haveErr := back.Points()
		if (wantErr == nil) != (haveErr == nil) || len(have) != len(want) {
			t.Fatalf("spec %s rebuilds %d points (%v), not %d (%v)", wire, len(have), haveErr, len(want), wantErr)
		}
		for i, w := range want {
			h := have[i]
			if h.Benchmark != w.Benchmark || h.Design != w.Design || h.Cost != w.Cost || explore.KeyOf(h.EP) != explore.KeyOf(w.EP) {
				t.Fatalf("spec %s: point %d is %s %s, rebuilt as %s %s", wire, i, w.Benchmark, w.Design, h.Benchmark, h.Design)
			}
		}
	})
}

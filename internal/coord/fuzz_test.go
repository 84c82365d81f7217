package coord

import (
	"bytes"
	"encoding/json"
	"testing"

	"upim/internal/httpjson"
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

package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"upim/internal/config"
	"upim/internal/engine"
	"upim/internal/prim"
)

// storedTypes are the three types the store's records carry, by the plan
// that encodes each.
var storedTypes = []*plan{resultPlan, estimatePlan, pointPlan}

// fill sets every exported leaf under v to a value no other leaf gets
// (booleans aside), two elements to a slice, a target to every pointer.
func fill(v reflect.Value, next *int) {
	*next++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(-*next))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(uint64(*next))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*next) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprint("s", *next))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(v.Index(0), next)
		fill(v.Index(1), next)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), next)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), next)
			}
		}
	default:
		panic("fill: " + v.Kind().String())
	}
}

// TestCodecRoundTripsEveryField is the test that a field cannot be silently
// dropped: every exported leaf of every stored type, set to its own value,
// comes back from encode → decode as it went in. A new counter in stats.DPU
// is covered the day it is added; an exported field the codec skips or
// cannot carry fails here.
func TestCodecRoundTripsEveryField(t *testing.T) {
	for _, pl := range storedTypes {
		in, n := reflect.New(pl.typ), 0
		fill(in.Elem(), &n)
		enc := pl.encode(nil, in.Elem())
		if len(enc) < pl.min {
			t.Errorf("%s: %d encoded bytes, under the plan's minimum of %d", pl.typ, len(enc), pl.min)
		}
		out := reflect.New(pl.typ)
		rest, err := pl.decode(enc, out.Elem())
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: decode: %v, %d bytes left over", pl.typ, err, len(rest))
		}
		if !reflect.DeepEqual(in.Interface(), out.Interface()) {
			t.Errorf("%s: %d leaves did not round-trip:\nin  %+v\nout %+v", pl.typ, n, in.Elem(), out.Elem())
		}
		// The zero value too: nil slices and pointers stay nil.
		zero := reflect.New(pl.typ)
		fill(out.Elem(), &n)
		if _, err := pl.decode(pl.encode(nil, zero.Elem()), out.Elem()); err != nil || !reflect.DeepEqual(zero.Interface(), out.Interface()) {
			t.Errorf("%s: the zero value came back as %+v (%v)", pl.typ, out.Elem(), err)
		}
	}
}

// TestCodecMatchesJSONRoundTrip holds the codec to what it replaced: a real
// result, through the codec, is the value encoding/json's round trip gave —
// compared as the JSON the artifact writers would see.
func TestCodecMatchesJSONRoundTrip(t *testing.T) {
	cfg := config.Default()
	cfg.TimelineWindow = 64
	res, err := engine.New(1).Run(context.Background(), engine.Point{Benchmark: "VA", Config: cfg, DPUs: 2, Scale: prim.ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var viaJSON, viaCodec prim.Result
	if err := json.Unmarshal(want, &viaJSON); err != nil {
		t.Fatal(err)
	}
	enc := resultPlan.encode(nil, reflect.ValueOf(res).Elem())
	if rest, err := resultPlan.decode(enc, reflect.ValueOf(&viaCodec).Elem()); err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v, %d bytes left over", err, len(rest))
	}
	if !reflect.DeepEqual(viaJSON, viaCodec) {
		t.Error("the codec and encoding/json read one result back as different values")
	}
	if got, _ := json.Marshal(&viaCodec); !bytes.Equal(got, want) {
		t.Error("a result through the codec marshals to different JSON")
	}
	t.Logf("%d bytes packed, %d as JSON", len(enc), len(want))
}

// TestSchemaFingerprintSeesLayoutChanges: the fingerprint a segment header
// carries moves when a stored struct gains, loses, renames or retypes a
// field, and only then.
func TestSchemaFingerprintSeesLayoutChanges(t *testing.T) {
	type base struct {
		A uint64
		B []float32
	}
	type sameLayout struct {
		A uint64
		B []float32
		c int // unexported: not stored
	}
	type gained struct {
		A uint64
		B []float32
		C uint64
	}
	type retyped struct {
		A int64
		B []float32
	}
	type renamed struct {
		A  uint64
		B2 []float32
	}
	fp := func(v any) [8]byte {
		p := planOf(reflect.TypeOf(v))
		p.typ = reflect.TypeOf(base{}) // compare layouts, not type names
		return fingerprint(p)
	}
	if fp(base{}) != fp(sameLayout{}) {
		t.Error("an unexported field moved the fingerprint")
	}
	for _, v := range []any{gained{}, retyped{}, renamed{}} {
		if fp(v) == fp(base{}) {
			t.Errorf("%T has base's fingerprint", v)
		}
	}
	if fingerprint(pointPlan, resultPlan, estimatePlan) != schema {
		t.Error("schema is not the fingerprint of the stored types")
	}
}

// sliceElems counts the slice elements reachable from v: what decode
// allocated beyond the value itself.
func sliceElems(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Slice:
		n = v.Len()
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			n += sliceElems(v.Index(i))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			n = sliceElems(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += sliceElems(v.Field(i))
		}
	}
	return n
}

// FuzzRecordCodec decodes arbitrary bytes as each stored type: decode never
// panics, never allocates more slice elements than the payload has bytes,
// and what it accepts it consumed exactly — the value re-encodes to the
// length decode took. The seeds here are the zero and the filled value of
// each type and a truncation; testdata/fuzz/FuzzRecordCodec adds the payloads
// of real records (a simulated VA result, its point, an estimate).
func FuzzRecordCodec(f *testing.F) {
	for i, pl := range storedTypes {
		in, n := reflect.New(pl.typ), 0
		f.Add(uint8(i), pl.encode(nil, in.Elem()))
		fill(in.Elem(), &n)
		enc := pl.encode(nil, in.Elem())
		f.Add(uint8(i), enc)
		f.Add(uint8(i), enc[:len(enc)/2])
	}
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		pl := storedTypes[int(which)%len(storedTypes)]
		out := reflect.New(pl.typ)
		rest, err := pl.decode(payload, out.Elem())
		if err != nil {
			return
		}
		if n := sliceElems(out.Elem()); n > len(payload) {
			t.Fatalf("%d slice elements decoded from %d bytes", n, len(payload))
		}
		if took, again := len(payload)-len(rest), len(pl.encode(nil, out.Elem())); took != again {
			t.Fatalf("decode consumed %d bytes of a value that encodes to %d", took, again)
		}
	})
}

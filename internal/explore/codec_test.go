package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"upim/internal/config"
	"upim/internal/engine"
	"upim/internal/prim"
	"upim/internal/stats"
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

// The reflective walker the flattened codec replaced, kept as the definition
// of the record format: encodeRef and decodeRef walk the plan's tree with a
// reflect.Value per leaf. The flattened walk must write the bytes it writes
// and read back the values it reads.

func (p *plan) encodeRef(b []byte, v reflect.Value) []byte {
	switch p.kind {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return appendUint(b, uint64(v.Int()), p.width)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return appendUint(b, v.Uint(), p.width)
	case reflect.Float32:
		return le.AppendUint32(b, math.Float32bits(float32(v.Float())))
	case reflect.Float64:
		return le.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		return append(le.AppendUint32(b, uint32(len(s))), s...)
	case reflect.Slice:
		if v.IsNil() {
			return le.AppendUint32(b, 0)
		}
		b = le.AppendUint32(b, uint32(v.Len())+1)
		for i, n := 0, v.Len(); i < n; i++ {
			b = p.elem.encodeRef(b, v.Index(i))
		}
	case reflect.Array:
		for i := 0; i < p.n; i++ {
			b = p.elem.encodeRef(b, v.Index(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return p.elem.encodeRef(append(b, 1), v.Elem())
	case reflect.Struct:
		for _, f := range p.fields {
			b = f.plan.encodeRef(b, v.Field(f.index))
		}
	}
	return b
}

func (p *plan) decodeRef(b []byte, v reflect.Value) ([]byte, error) {
	if len(b) < p.min {
		return nil, errPayload
	}
	switch p.kind {
	case reflect.Bool:
		if b[0] > 1 {
			return nil, errPayload
		}
		v.SetBool(b[0] == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		// Sign-extend from the stored width.
		shift := 64 - 8*p.width
		v.SetInt(int64(readUint(b, p.width)<<shift) >> shift)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(readUint(b, p.width))
	case reflect.Float32:
		v.SetFloat(float64(math.Float32frombits(le.Uint32(b))))
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(le.Uint64(b)))
	case reflect.String:
		n := int(le.Uint32(b))
		if b = b[4:]; n > len(b) {
			return nil, errPayload
		}
		v.SetString(string(b[:n]))
		return b[n:], nil
	case reflect.Slice:
		n := int(le.Uint32(b))
		if b = b[4:]; n == 0 {
			v.SetZero()
			return b, nil
		}
		if n--; n > len(b)/max(p.elem.min, 1) {
			return nil, errPayload
		}
		v.Set(reflect.MakeSlice(p.typ, n, n))
		return p.decodeElemsRef(b, v, n)
	case reflect.Array:
		return p.decodeElemsRef(b, v, p.n)
	case reflect.Pointer:
		switch b[0] {
		case 0:
			v.SetZero()
			return b[1:], nil
		case 1:
			v.Set(reflect.New(p.elem.typ))
			return p.elem.decodeRef(b[1:], v.Elem())
		}
		return nil, errPayload
	case reflect.Struct:
		var err error
		for _, f := range p.fields {
			if b, err = f.plan.decodeRef(b, v.Field(f.index)); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	return b[p.width:], nil
}

func (p *plan) decodeElemsRef(b []byte, v reflect.Value, n int) ([]byte, error) {
	var err error
	for i := 0; i < n; i++ {
		if b, err = p.elem.decodeRef(b, v.Index(i)); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// checkAgainstRef decodes payload as pl's type with both walkers: they must
// accept the same bytes, consume as many and read equal values, and what the
// flattened walk read must encode back to exactly the bytes it took.
func checkAgainstRef(t *testing.T, pl *plan, payload []byte) (reflect.Value, error) {
	t.Helper()
	got, want := reflect.New(pl.typ), reflect.New(pl.typ)
	rest, err := pl.decode(payload, got.Interface())
	restRef, errRef := pl.decodeRef(payload, want.Elem())
	if (err != nil) != (errRef != nil) {
		t.Fatalf("%s: flattened decode error %v, reflective %v", pl.typ, err, errRef)
	}
	if err != nil {
		return got, err
	}
	// Compared as the reference writes them: bit for bit, so a NaN read by
	// both is equal, and nil and empty slices are not. (The reference moves
	// a float32 through float64, which quiets a signaling NaN; the flattened
	// walk keeps its bits, as the round trip below checks.)
	if len(rest) != len(restRef) || !bytes.Equal(pl.encodeRef(nil, got.Elem()), pl.encodeRef(nil, want.Elem())) {
		t.Fatalf("%s: the walkers read different values (%d and %d bytes left):\nflat %+v\nref  %+v", pl.typ, len(rest), len(restRef), got.Elem(), want.Elem())
	}
	if enc := pl.encode(nil, got.Interface()); !bytes.Equal(enc, payload[:len(payload)-len(rest)]) {
		t.Fatalf("%s: a decoded value does not encode back to the bytes it came from", pl.typ)
	}
	return got, nil
}

// TestCodecMatchesReflectiveWalker holds the flattened codec to the
// reflective one over random values of every stored type (seed 1), and a
// result holding NaNs: the same bytes out, the same values back.
func TestCodecMatchesReflectiveWalker(t *testing.T) {
	nan := prim.Result{Stats: stats.DPU{IssueSlots: math.NaN(), Timeline: []float32{float32(math.NaN()), 1}}}
	checkAgainstRef(t, resultPlan, resultPlan.encode(nil, &nan))
	rng := rand.New(rand.NewPCG(1, 0))
	for i := 0; i < 2000; i++ {
		for _, pl := range storedTypes {
			v := reflect.New(pl.typ)
			randomize(v.Elem(), rng.Uint64)
			enc := pl.encode(nil, v.Interface())
			if ref := pl.encodeRef(nil, v.Elem()); !bytes.Equal(enc, ref) {
				t.Fatalf("%s: flattened encode differs from the reflective one", pl.typ)
			}
			checkAgainstRef(t, pl, enc)
			checkAgainstRef(t, pl, enc[:rng.IntN(len(enc)+1)])
		}
	}
}

// TestCodecWithoutCopyRuns plans the stored types as a big-endian host
// would, every number its own opNum step, and holds that walk to the
// reflective one too.
func TestCodecWithoutCopyRuns(t *testing.T) {
	defer func(le bool) { littleEndian = le }(littleEndian)
	littleEndian = false
	rng := rand.New(rand.NewPCG(3, 0))
	for _, pl := range storedTypes {
		pl := planOf(pl.typ)
		for _, o := range pl.ops {
			if o.code == opCopy {
				t.Fatalf("%s: a copy run planned for a big-endian host", pl.typ)
			}
		}
		for i := 0; i < 200; i++ {
			v := reflect.New(pl.typ)
			randomize(v.Elem(), rng.Uint64)
			enc := pl.encode(nil, v.Interface())
			if ref := pl.encodeRef(nil, v.Elem()); !bytes.Equal(enc, ref) {
				t.Fatalf("%s: encode differs from the reflective one", pl.typ)
			}
			checkAgainstRef(t, pl, enc)
		}
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
		enc := pl.encode(nil, in.Interface())
		if len(enc) < pl.min {
			t.Errorf("%s: %d encoded bytes, under the plan's minimum of %d", pl.typ, len(enc), pl.min)
		}
		out := reflect.New(pl.typ)
		rest, err := pl.decode(enc, out.Interface())
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: decode: %v, %d bytes left over", pl.typ, err, len(rest))
		}
		if !reflect.DeepEqual(in.Interface(), out.Interface()) {
			t.Errorf("%s: %d leaves did not round-trip:\nin  %+v\nout %+v", pl.typ, n, in.Elem(), out.Elem())
		}
		// The zero value too: nil slices and pointers stay nil.
		zero := reflect.New(pl.typ)
		fill(out.Elem(), &n)
		if _, err := pl.decode(pl.encode(nil, zero.Interface()), out.Interface()); err != nil || !reflect.DeepEqual(zero.Interface(), out.Interface()) {
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
	enc := resultPlan.encode(nil, res)
	if rest, err := resultPlan.decode(enc, &viaCodec); err != nil || len(rest) != 0 {
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
// bytes decode took — and agrees with the reflective walker on all of it.
// The seeds here are the zero and the filled value of each type and a
// truncation; testdata/fuzz/FuzzRecordCodec adds the payloads of real
// records (a simulated VA result, its point, an estimate).
func FuzzRecordCodec(f *testing.F) {
	for i, pl := range storedTypes {
		in, n := reflect.New(pl.typ), 0
		f.Add(uint8(i), pl.encode(nil, in.Interface()))
		fill(in.Elem(), &n)
		enc := pl.encode(nil, in.Interface())
		f.Add(uint8(i), enc)
		f.Add(uint8(i), enc[:len(enc)/2])
	}
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		pl := storedTypes[int(which)%len(storedTypes)]
		out, err := checkAgainstRef(t, pl, payload)
		if err != nil {
			return
		}
		if n := sliceElems(out.Elem()); n > len(payload) {
			t.Fatalf("%d slice elements decoded from %d bytes", n, len(payload))
		}
	})
}

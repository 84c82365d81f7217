package explore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"upim/internal/config"
	"upim/internal/engine"
	"upim/internal/machine"
)

// refKeyJSON is the canonical point JSON as encoding/json writes it: what
// every key in every store was hashed from before KeyOf appended it by hand,
// kept as the definition of the format.
func refKeyJSON(p engine.Point) ([]byte, error) {
	return json.Marshal(struct {
		Format int          `json:"format"`
		Point  engine.Point `json:"point"`
	}{storeFormat, p})
}

// checkKey holds KeyOf to the reference on one point: the same JSON, so the
// same key.
func checkKey(t *testing.T, p engine.Point) {
	t.Helper()
	want, err := refKeyJSON(p)
	if err != nil {
		t.Fatalf("encoding/json: %v", err)
	}
	if got := appendKeyJSON(nil, &p); !bytes.Equal(got, want) {
		t.Fatalf("key JSON differs from encoding/json:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if sum := sha256.Sum256(want); KeyOf(p) != hex.EncodeToString(sum[:]) {
		t.Fatalf("KeyOf is not the hash of the canonical JSON")
	}
}

// keyStrings are the strings JSON has a rule of its own for.
var keyStrings = []string{"", "VA", `"\`, "<a&b>", "line\u2028sep\u2029", "bad \xff\xc3 utf8", "\x00\x1f\t", "café 世界"}

// randomize sets every exported leaf under v from src: integers of either
// sign, floats of any finite bit pattern, strings drawn from keyStrings or
// raw bytes, slices nil, empty or short, pointers nil or set. It walks the
// type by reflection, so a field the key appender does not spell is set too.
func randomize(v reflect.Value, src func() uint64) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(src()&1 == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(src()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(src())
	case reflect.Float32, reflect.Float64:
		f := math.Float64frombits(src())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			f = []float64{0, math.Copysign(0, -1), math.MaxFloat64, -math.SmallestNonzeroFloat64, 1e21, 1e-7}[src()%6]
		}
		v.SetFloat(f)
	case reflect.String:
		var s []byte
		for n := src() % 4; n > 0; n-- {
			if x := src(); x&1 == 0 {
				s = append(s, keyStrings[x/2%uint64(len(keyStrings))]...)
			} else {
				s = binary.LittleEndian.AppendUint64(s, src())[:len(s)+int(x/2%9)]
			}
		}
		v.SetString(string(s))
	case reflect.Slice:
		if n := int(src() % 4); n > 0 {
			v.Set(reflect.MakeSlice(v.Type(), n-1, n-1))
			for i := 0; i < n-1; i++ {
				randomize(v.Index(i), src)
			}
		} else {
			v.SetZero()
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			randomize(v.Index(i), src)
		}
	case reflect.Pointer:
		if src()&1 == 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		randomize(v.Elem(), src)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				randomize(v.Field(i), src)
			}
		}
	default:
		panic("randomize: " + v.Kind().String())
	}
}

// TestKeyOfMatchesEncodingJSON covers the points the explorer makes — the
// default configuration with and without each architecture's machine — and
// a point whose every leaf holds its own value, which no hand-spelled field
// can match by accident.
func TestKeyOfMatchesEncodingJSON(t *testing.T) {
	base := engine.Point{Benchmark: "VA", Config: config.Default(), DPUs: 1}
	checkKey(t, base)
	for _, d := range []*machine.Desc{machine.UPMEM(), machine.HBMPIM(), {Arch: "x", MemLevels: []machine.MemLevel{}, CommandMode: "bank-group"}} {
		p := base
		p.Machine = d
		checkKey(t, p)
	}
	var filled engine.Point
	n := 0
	fill(reflect.ValueOf(&filled).Elem(), &n)
	checkKey(t, filled)
}

// TestKeyOfDifferential holds KeyOf to the reference over 10⁵ random points
// (seed 1).
func TestKeyOfDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	for i := 0; i < 100_000; i++ {
		var p engine.Point
		randomize(reflect.ValueOf(&p).Elem(), rng.Uint64)
		checkKey(t, p)
	}
}

// TestKeyOfRefusesNonFiniteFloats: encoding/json cannot spell a NaN or an
// infinity, so no key can be made for a point carrying one — KeyOf panics,
// as it did when it marshalled.
func TestKeyOfRefusesNonFiniteFloats(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := engine.Point{Config: config.Default()}
		p.Config.DPUToCPUBytesPerSec = f
		if _, err := refKeyJSON(p); err == nil {
			t.Fatalf("encoding/json spelled %v", f)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("KeyOf made a key for a point carrying %v", f)
				}
			}()
			KeyOf(p)
		}()
	}
}

// FuzzKeyOf builds a point from the fuzz bytes, eight to a leaf (zero once
// they run out), and holds its key to the reference.
func FuzzKeyOf(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff, 1, 0x80, 0x3c, 0x26, 0xe2, 0x80, 0xa8}, 80))
	rng := rand.New(rand.NewPCG(2, 0))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 600)
		for j := range seed {
			seed[j] = byte(rng.Uint32())
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := func() uint64 {
			var w [8]byte
			data = data[copy(w[:], data):]
			return binary.LittleEndian.Uint64(w[:])
		}
		var p engine.Point
		randomize(reflect.ValueOf(&p).Elem(), src)
		checkKey(t, p)
	})
}

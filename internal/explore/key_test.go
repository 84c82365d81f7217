package explore

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"upim/internal/config"
	"upim/internal/engine"
	"upim/internal/machine"
	"upim/internal/prim"
)

// keyStrings are the strings JSON has a rule of its own for, which the codec
// must carry as they are.
var keyStrings = []string{"", "VA", `"\`, "<a&b>", "line\u2028sep\u2029", "bad \xff\xc3 utf8", "\x00\x1f\t", "café 世界"}

// randomize sets every exported leaf under v from src: integers of either
// sign, floats of any finite bit pattern, strings drawn from keyStrings or
// raw bytes, slices nil, empty or short, pointers nil or set. It walks the
// type by reflection, so a field added to a stored struct is set too.
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

// leaves calls visit with every exported leaf under v: each number, bool and
// string, and each slice and pointer for its shape (nil or not) before what
// it holds.
func leaves(v reflect.Value, path string, visit func(reflect.Value, string)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				leaves(v.Field(i), path+"."+f.Name, visit)
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			leaves(v.Index(i), path+"[]", visit)
		}
	case reflect.Slice:
		visit(v, path)
		for i := 0; i < v.Len(); i++ {
			leaves(v.Index(i), path+"[]", visit)
		}
	case reflect.Pointer:
		visit(v, path)
		if !v.IsNil() {
			leaves(v.Elem(), path+"*", visit)
		}
	default:
		visit(v, path)
	}
}

// flip sets the leaf v to a value it does not hold: a float by its last bit,
// so that no float is its own neighbour.
func flip(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(math.Float64frombits(math.Float64bits(v.Float()) ^ 1))
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		if v.IsNil() {
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		} else {
			v.SetZero()
		}
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		} else {
			v.SetZero()
		}
	default:
		panic("flip: " + v.Kind().String())
	}
}

// checkKeyContract holds KeyOf's contract on one point: every leaf moves the
// key, and the point's record-codec round trip keeps it. It returns how many
// leaves it flipped.
func checkKeyContract(t *testing.T, p engine.Point) int {
	t.Helper()
	key := KeyOf(p)
	var q engine.Point
	rest, err := pointPlan.decode(pointPlan.encode(nil, &p), &q)
	if err != nil || len(rest) != 0 {
		t.Fatalf("the point does not survive the codec: %v, %d bytes left", err, len(rest))
	}
	if KeyOf(q) != key {
		t.Fatal("the codec round trip moved the key")
	}
	n := 0
	leaves(reflect.ValueOf(&p).Elem(), "Point", func(v reflect.Value, path string) {
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		flip(v)
		if KeyOf(p) == key {
			t.Errorf("flipping %s leaves the key as it was", path)
		}
		v.Set(old)
		n++
	})
	if KeyOf(p) != key {
		t.Fatal("restoring every leaf did not restore the key")
	}
	return n
}

// TestKeyOfEveryLeafMovesKey fills every leaf of a point with its own value,
// the machine and its memory levels included, and flips one at a time. A
// stored field a struct gains is filled and flipped too, without a line
// here.
func TestKeyOfEveryLeafMovesKey(t *testing.T) {
	var p engine.Point
	n := 0
	fill(reflect.ValueOf(&p).Elem(), &n)
	if p.Machine == nil || len(p.Machine.MemLevels) == 0 {
		t.Fatal("fill left the machine or its memory levels empty")
	}
	if got := checkKeyContract(t, p); got < 80 {
		t.Fatalf("flipped %d leaves; a point has more", got)
	}
	// JSON folded invalid UTF-8 to U+FFFD; the codec carries the bytes.
	a, b := engine.Point{Benchmark: "bad \xff"}, engine.Point{Benchmark: "bad \xfe"}
	if KeyOf(a) == KeyOf(b) {
		t.Error("two benchmarks whose names differ in invalid UTF-8 share a key")
	}
}

// TestKeyOfSurvivesWire: the points HTTPStore sends — the default
// configuration, with and without each architecture's machine — keep their
// key through the record a PUT carries, so a server keys what its client
// keyed.
func TestKeyOfSurvivesWire(t *testing.T) {
	base := engine.Point{Benchmark: "VA", Config: config.Default(), DPUs: 1}
	res := &prim.Result{Benchmark: "VA"}
	for _, d := range []*machine.Desc{nil, machine.UPMEM(), machine.HBMPIM()} {
		p := base
		p.Machine = d
		key := KeyOf(p)
		body, err := wire(key, fidExact, &p, resultPlan, res)
		if err != nil {
			t.Fatal(err)
		}
		var q engine.Point
		if !unwire(body, key, fidExact, resultPlan, new(prim.Result), &q) {
			t.Fatalf("machine %v: the record does not check", d)
		}
		if KeyOf(q) != key {
			t.Errorf("machine %v: the wire moved the key", d)
		}
	}
}

// FuzzKeyOf builds a point from the fuzz bytes, eight to a leaf (zero once
// they run out), and holds its key to checkKeyContract.
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
		checkKeyContract(t, p)
	})
}

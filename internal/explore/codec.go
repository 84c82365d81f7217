package explore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"

	"upim/internal/engine"
	"upim/internal/estimate"
	"upim/internal/prim"
)

// The record codec: a fixed-width little-endian encoding of plain-data
// structs, planned once per type by reflection. A struct is its exported
// fields in declaration order (`json:"-"` skipped, like the JSON form it
// replaces in the store); integers and floats take their natural width (int
// and uint take 8 bytes), floats travel by bit pattern; a string is a u32
// length and its bytes; a slice is a u32 of length+1 (0 is nil, so nil and
// empty survive apart, as they do through JSON) and its elements; an array is
// its elements; a pointer is a presence byte and the value. Nothing in the
// bytes names a field, so a reader must hold the writer's struct layout:
// schema fingerprints every stored type, and a segment written under another
// fingerprint is never decoded.

var le = binary.LittleEndian

// errPayload is every decode failure: the bytes are not a value of the type.
var errPayload = errors.New("explore: record payload does not decode")

// plan is the compiled codec of one type.
type plan struct {
	kind   reflect.Kind
	typ    reflect.Type
	width  int         // numeric kinds: encoded bytes
	fields []planField // struct
	elem   *plan       // array, slice, pointer
	n      int         // array length
	// min is the fewest bytes a value of the type encodes to. It bounds what
	// a length prefix may ask decode to allocate: n elements need at least
	// n*min more bytes.
	min int
}

type planField struct {
	index int
	name  string
	plan  *plan
}

// The plans of the three stored types, and the fingerprint a segment header
// carries for them.
var (
	pointPlan    = planOf(reflect.TypeOf(engine.Point{}))
	resultPlan   = planOf(reflect.TypeOf(prim.Result{}))
	estimatePlan = planOf(reflect.TypeOf(estimate.Estimate{}))
	schema       = fingerprint(pointPlan, resultPlan, estimatePlan)
)

// planOf compiles the codec of t. The stored types are plain data by
// construction; a field kind the codec has no encoding for (map, interface,
// chan, func) is a programming error caught the first time the package loads.
func planOf(t reflect.Type) *plan {
	p := &plan{kind: t.Kind(), typ: t}
	switch p.kind {
	case reflect.Bool, reflect.Int8, reflect.Uint8:
		p.width = 1
	case reflect.Int16, reflect.Uint16:
		p.width = 2
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		p.width = 4
	case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64, reflect.Uintptr, reflect.Float64:
		p.width = 8
	case reflect.String, reflect.Slice:
		p.min = 4
	case reflect.Pointer:
		p.min = 1
	case reflect.Array:
		p.n = t.Len()
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || f.Tag.Get("json") == "-" {
				continue
			}
			fp := planOf(f.Type)
			p.fields = append(p.fields, planField{i, f.Name, fp})
			p.min += fp.min
		}
	default:
		panic(fmt.Sprintf("explore: the record codec cannot store a %s (%s)", p.kind, t))
	}
	switch p.kind {
	case reflect.Slice, reflect.Pointer, reflect.Array:
		p.elem = planOf(t.Elem())
		p.min += p.n * p.elem.min
	}
	p.min += p.width
	return p
}

// describe writes one line per leaf of the flattened type: its path and kind.
func (p *plan) describe(w *strings.Builder, path string) {
	switch p.kind {
	case reflect.Struct:
		for _, f := range p.fields {
			f.plan.describe(w, path+"."+f.name)
		}
	case reflect.Slice:
		p.elem.describe(w, path+"[]")
	case reflect.Array:
		p.elem.describe(w, fmt.Sprintf("%s[%d]", path, p.n))
	case reflect.Pointer:
		p.elem.describe(w, path+"*")
	default:
		fmt.Fprintf(w, "%s %s\n", path, p.kind)
	}
}

// fingerprint hashes the flattened field paths and kinds of the plans: two
// builds agree on it exactly when they would write the same bytes for the
// same values.
func fingerprint(plans ...*plan) (fp [8]byte) {
	var w strings.Builder
	for _, p := range plans {
		p.describe(&w, p.typ.String())
	}
	sum := sha256.Sum256([]byte(w.String()))
	copy(fp[:], sum[:])
	return fp
}

// appendUint appends the low width bytes of x.
func appendUint(b []byte, x uint64, width int) []byte {
	switch width {
	case 1:
		return append(b, byte(x))
	case 2:
		return le.AppendUint16(b, uint16(x))
	case 4:
		return le.AppendUint32(b, uint32(x))
	}
	return le.AppendUint64(b, x)
}

// readUint reads a width-byte integer; the caller has checked len(b).
func readUint(b []byte, width int) uint64 {
	switch width {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(le.Uint16(b))
	case 4:
		return uint64(le.Uint32(b))
	}
	return le.Uint64(b)
}

// encode appends v, a value of the plan's type, to b.
func (p *plan) encode(b []byte, v reflect.Value) []byte {
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
			b = p.elem.encode(b, v.Index(i))
		}
	case reflect.Array:
		for i := 0; i < p.n; i++ {
			b = p.elem.encode(b, v.Index(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return p.elem.encode(append(b, 1), v.Elem())
	case reflect.Struct:
		for _, f := range p.fields {
			b = f.plan.encode(b, v.Field(f.index))
		}
	}
	return b
}

// decode fills v, a settable value of the plan's type, from the front of b
// and returns the rest. It never panics on arbitrary bytes and allocates no
// more elements than the remaining bytes could hold.
func (p *plan) decode(b []byte, v reflect.Value) ([]byte, error) {
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
		return p.decodeElems(b, v, n)
	case reflect.Array:
		return p.decodeElems(b, v, p.n)
	case reflect.Pointer:
		switch b[0] {
		case 0:
			v.SetZero()
			return b[1:], nil
		case 1:
			v.Set(reflect.New(p.elem.typ))
			return p.elem.decode(b[1:], v.Elem())
		}
		return nil, errPayload
	case reflect.Struct:
		var err error
		for _, f := range p.fields {
			if b, err = f.plan.decode(b, v.Field(f.index)); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	return b[p.width:], nil
}

func (p *plan) decodeElems(b []byte, v reflect.Value, n int) ([]byte, error) {
	var err error
	for i := 0; i < n; i++ {
		if b, err = p.elem.decode(b, v.Index(i)); err != nil {
			return nil, err
		}
	}
	return b, nil
}

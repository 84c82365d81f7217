package explore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"unsafe"

	"upim/internal/engine"
	"upim/internal/estimate"
	"upim/internal/prim"
)

// The record codec: a fixed-width little-endian encoding of plain-data
// structs, planned once per type by reflection and flattened into steps at
// field offsets, which encode and decode walk with no reflection per field
// (adjacent numbers that sit in memory as they encode are one copy). A
// struct is its exported fields in declaration order (`json:"-"` skipped,
// like the JSON form it replaces in the store); integers and floats take
// their natural width (int and uint take 8 bytes), floats travel by bit
// pattern; a string is a u32 length and its bytes; a slice is a u32 of
// length+1 (0 is nil, so nil and empty survive apart, as they do through
// JSON) and its elements; an array is its elements; a pointer is a presence
// byte and the value. Nothing in the bytes names a field, so a reader must
// hold the writer's struct layout: schema fingerprints every stored type,
// and a segment written under another fingerprint is never decoded.

var le = binary.LittleEndian

// errPayload is every decode failure: the bytes are not a value of the type.
var errPayload = errors.New("explore: record payload does not decode")

// plan is the compiled codec of one type: its layout as a tree, which the
// schema fingerprint describes, and flattened into ops, which encode and
// decode walk.
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
	// ops is the type flattened into steps in encoding order: set on the
	// plans encode and decode start from — the stored types, and what a
	// slice or pointer holds.
	ops []op
	ptr reflect.Type // *typ: what encode and decode are handed
}

type planField struct {
	index int
	name  string
	off   uintptr
	plan  *plan
}

// op is one step of a flattened plan, at a fixed offset into the value the
// plan encodes: a leaf, or a run of adjacent numbers copied as they sit in
// memory.
type op struct {
	code opCode
	off  uintptr
	// size is what the step covers in memory: a copy run's bytes, a
	// number's own size.
	size   uintptr
	width  int  // opNum: encoded bytes
	signed bool // opNum: sign-extended when the encoding is wider
	elem   *plan
	typ    reflect.Type // opSlice: the slice type
}

type opCode uint8

const (
	// opCopy moves size bytes verbatim: integers and floats whose encoding
	// is their memory — the record's little-endian width, on a
	// little-endian host. Adjacent ones merge into one run.
	opCopy opCode = iota
	// opNum moves one number whose encoding is not its memory: an int or
	// uint on a 32-bit host, any number on a big-endian one.
	opNum
	opBool
	opString
	opSlice   // elem is what it holds
	opPointer // elem is what it points to
)

// littleEndian reports whether this host lays numbers out as the record
// codec encodes them.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// The plans of the three stored types, and the fingerprint a segment header
// carries for them.
var (
	pointPlan    = planOf(reflect.TypeOf(engine.Point{}))
	resultPlan   = planOf(reflect.TypeOf(prim.Result{}))
	estimatePlan = planOf(reflect.TypeOf(estimate.Estimate{}))
	schema       = fingerprint(pointPlan, resultPlan, estimatePlan)
)

// planOf compiles the codec of t and flattens it. The stored types are plain
// data by construction; a field kind the codec has no encoding for (map,
// interface, chan, func) is a programming error caught the first time the
// package loads.
func planOf(t reflect.Type) *plan {
	p := compile(t)
	p.ops = p.flatten(nil, 0)
	p.ptr = reflect.PointerTo(t)
	return p
}

func compile(t reflect.Type) *plan {
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
			fp := compile(f.Type)
			p.fields = append(p.fields, planField{i, f.Name, f.Offset, fp})
			p.min += fp.min
		}
	default:
		panic(fmt.Sprintf("explore: the record codec cannot store a %s (%s)", p.kind, t))
	}
	switch p.kind {
	case reflect.Slice, reflect.Pointer:
		p.elem = planOf(t.Elem())
	case reflect.Array:
		p.elem = compile(t.Elem())
		p.min += p.n * p.elem.min
	}
	p.min += p.width
	return p
}

// flatten appends the steps of a value of the plan's type that sits off
// bytes into the value being flattened.
func (p *plan) flatten(ops []op, off uintptr) []op {
	o := op{off: off, size: p.typ.Size(), width: p.width, elem: p.elem, typ: p.typ}
	switch p.kind {
	case reflect.Struct:
		for _, f := range p.fields {
			ops = f.plan.flatten(ops, off+f.off)
		}
		return ops
	case reflect.Array:
		for i := 0; i < p.n; i++ {
			ops = p.elem.flatten(ops, off+uintptr(i)*p.elem.typ.Size())
		}
		return ops
	case reflect.Bool:
		o.code = opBool
	case reflect.String:
		o.code = opString
	case reflect.Slice:
		o.code = opSlice
	case reflect.Pointer:
		o.code = opPointer
	default:
		o.code = opNum
		switch p.kind {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			o.signed = true
		}
		if littleEndian && uintptr(p.width) == o.size {
			o.code = opCopy
			if k := len(ops) - 1; k >= 0 && ops[k].code == opCopy && ops[k].off+ops[k].size == off {
				ops[k].size += o.size
				return ops
			}
		}
	}
	return append(ops, o)
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

// The codec's only unsafe code. Every offset a plan holds is a field offset
// or an array stride that reflect reported for the very type the base
// pointer addresses, so at yields an in-bounds pointer of the leaf's own
// type, and a copy run spans adjacent numbers only — no padding, no
// pointer. A slice of any element type is read and written through a []byte
// header, whose layout does not depend on what the slice holds.

// at is the T that sits off bytes into the value at base.
func at[T any](base unsafe.Pointer, off uintptr) *T { return (*T)(unsafe.Add(base, off)) }

// bytesAt is the n bytes from off bytes into the value at base.
func bytesAt(base unsafe.Pointer, off, n uintptr) []byte {
	return unsafe.Slice((*byte)(unsafe.Add(base, off)), n)
}

// makeSlice is a new slice of type typ and n elements.
func makeSlice(typ reflect.Type, n int) []byte {
	return unsafe.Slice((*byte)(reflect.MakeSlice(typ, n, n).UnsafePointer()), n)
}

// elemAt is the address of element i, each size bytes, of slice s.
func elemAt(s []byte, i int, size uintptr) unsafe.Pointer {
	return unsafe.Add(unsafe.Pointer(unsafe.SliceData(s)), uintptr(i)*size)
}

// addr is the address of the value v points to, which must be a pointer to
// the plan's type.
func (p *plan) addr(v any) unsafe.Pointer {
	rv := reflect.ValueOf(v)
	if rv.Type() != p.ptr || rv.IsNil() {
		panic(fmt.Sprintf("explore: the %s codec was handed a %T", p.typ, v))
	}
	return rv.UnsafePointer()
}

// encode appends *v, v a pointer to a value of the plan's type.
func (p *plan) encode(b []byte, v any) []byte { return p.encodeAt(b, p.addr(v)) }

func (p *plan) encodeAt(b []byte, base unsafe.Pointer) []byte {
	for i := range p.ops {
		o := &p.ops[i]
		switch o.code {
		case opCopy, opBool:
			b = append(b, bytesAt(base, o.off, o.size)...)
		case opString:
			s := *at[string](base, o.off)
			b = append(le.AppendUint32(b, uint32(len(s))), s...)
		case opSlice:
			s := *at[[]byte](base, o.off)
			if s == nil {
				b = le.AppendUint32(b, 0)
				continue
			}
			b = le.AppendUint32(b, uint32(len(s))+1)
			for j := range s {
				b = o.elem.encodeAt(b, elemAt(s, j, o.elem.typ.Size()))
			}
		case opPointer:
			q := *at[unsafe.Pointer](base, o.off)
			if q == nil {
				b = append(b, 0)
				continue
			}
			b = o.elem.encodeAt(append(b, 1), q)
		case opNum:
			var x uint64
			switch o.size {
			case 1:
				x = uint64(*at[uint8](base, o.off))
			case 2:
				x = uint64(*at[uint16](base, o.off))
			case 4:
				x = uint64(*at[uint32](base, o.off))
				if o.signed { // a 32-bit int, stored in 8 bytes
					x = uint64(int64(int32(x)))
				}
			default:
				x = *at[uint64](base, o.off)
			}
			b = appendUint(b, x, o.width)
		}
	}
	return b
}

// decode fills *v, v a pointer to a value of the plan's type, from the front
// of b and returns the rest. It never panics on arbitrary bytes and
// allocates no more elements than the remaining bytes could hold.
func (p *plan) decode(b []byte, v any) ([]byte, error) { return p.decodeAt(b, p.addr(v)) }

func (p *plan) decodeAt(b []byte, base unsafe.Pointer) ([]byte, error) {
	if len(b) < p.min {
		return nil, errPayload
	}
	for i := range p.ops {
		o := &p.ops[i]
		switch o.code {
		case opCopy:
			if uintptr(len(b)) < o.size {
				return nil, errPayload
			}
			b = b[copy(bytesAt(base, o.off, o.size), b):]
		case opBool:
			if len(b) < 1 || b[0] > 1 {
				return nil, errPayload
			}
			*at[bool](base, o.off) = b[0] == 1
			b = b[1:]
		case opString:
			if len(b) < 4 {
				return nil, errPayload
			}
			n := int(le.Uint32(b))
			if b = b[4:]; n > len(b) {
				return nil, errPayload
			}
			*at[string](base, o.off) = string(b[:n])
			b = b[n:]
		case opSlice:
			if len(b) < 4 {
				return nil, errPayload
			}
			n := int(le.Uint32(b))
			if b = b[4:]; n == 0 {
				*at[[]byte](base, o.off) = nil
				continue
			}
			if n--; n > len(b)/max(o.elem.min, 1) {
				return nil, errPayload
			}
			elems := makeSlice(o.typ, n)
			*at[[]byte](base, o.off) = elems
			var err error
			for j := 0; j < n; j++ {
				if b, err = o.elem.decodeAt(b, elemAt(elems, j, o.elem.typ.Size())); err != nil {
					return nil, err
				}
			}
		case opPointer:
			if len(b) < 1 || b[0] > 1 {
				return nil, errPayload
			}
			present := b[0] == 1
			if b = b[1:]; !present {
				*at[unsafe.Pointer](base, o.off) = nil
				continue
			}
			q := reflect.New(o.elem.typ).UnsafePointer()
			*at[unsafe.Pointer](base, o.off) = q
			var err error
			if b, err = o.elem.decodeAt(b, q); err != nil {
				return nil, err
			}
		case opNum:
			if len(b) < o.width {
				return nil, errPayload
			}
			x := readUint(b, o.width)
			b = b[o.width:]
			switch o.size {
			case 1:
				*at[uint8](base, o.off) = uint8(x)
			case 2:
				*at[uint16](base, o.off) = uint16(x)
			case 4:
				*at[uint32](base, o.off) = uint32(x)
			default:
				*at[uint64](base, o.off) = x
			}
		}
	}
	return b, nil
}

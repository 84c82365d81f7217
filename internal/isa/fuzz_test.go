package isa

import (
	"math/rand"
	"testing"
)

// FuzzDecode holds Decode to the reference decoder (ref_test.go) on any
// 6-byte word, the mov fix aside, and an accepted word to its re-encoding on
// every bit its layout reads: the bits past them are ignored by Decode and
// left zero by Encode.
func FuzzDecode(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		w, err := randInstruction(r).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(w[:])
	}
	f.Add([]byte{0xA2, 0x20, 0xA0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		var w Word
		copy(w[:], b)
		in, err := Decode(w)
		want, rerr := refDecode(w)
		if in != want {
			t.Fatalf("%x: Decode = %+v, reference %+v", w, in, want)
		}
		if err != nil && rerr == nil && movTargetFix(want) {
			return
		}
		if (err == nil) != (rerr == nil) {
			t.Fatalf("%x: Decode error %v, reference %v", w, err, rerr)
		}
		if err != nil {
			return
		}
		re, err := in.Encode()
		if err != nil {
			t.Fatalf("%x: %s decodes but does not encode: %v", w, in, err)
		}
		n := uint(opBits)
		for _, o := range layouts[in.Op].bits {
			_, width := o.holds(&in)
			n += width
		}
		var v, rv uint64
		for i := range w {
			v |= uint64(w[i]) << (8 * i)
			rv |= uint64(re[i]) << (8 * i)
		}
		if rv != v&(1<<n-1) {
			t.Fatalf("%x: %s re-encodes to %x, want the word's low %d bits", w, in, re, n)
		}
	})
}

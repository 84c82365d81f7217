package isa

import (
	"math/rand"
	"strings"
	"testing"
)

// movTargetFix reports whether in is the one instruction shape on which the
// operand table parts with the reference: a mov with no condition and a
// non-zero target, which the reference accepts although no other
// register-form op may carry a target it never branches to.
func movTargetFix(in Instruction) bool {
	return in.Op == OpMOV && in.Cond == CondNone && in.Target != 0
}

// arbInstruction mixes fields with no regard for the opcode's layout: about
// half of each field is zero, the rest ranges past every width the encoding
// has, so most draws are rejected and the accepted ones cover every shape.
func arbInstruction(r *rand.Rand) Instruction {
	imms := []int32{1, -1, 1 << 7, 1<<8 - 1, 1 << 8, 1<<11 - 1, 1 << 11, 1 << 12,
		1<<13 - 1, -1 << 13, 1 << 13, -1<<13 - 1, 1<<16 - 1, -1 << 16, 1 << 16,
		1<<21 - 1, -1 << 21, 1 << 21, 1<<31 - 1, -1 << 31}
	some := func() bool { return r.Intn(2) == 0 }
	var in Instruction
	in.Op = Opcode(r.Intn(NumOpcodes + 3))
	reg := func() RegID {
		if some() {
			return 0
		}
		return RegID(r.Intn(32))
	}
	in.Rd, in.Ra, in.Rb = reg(), reg(), reg()
	switch r.Intn(4) {
	case 0:
		in.Imm = imms[r.Intn(len(imms))]
	case 1:
		in.Imm = int32(r.Uint32())
	case 2:
		in.Imm = int32(r.Intn(300))
	}
	in.UseImm = some()
	if some() {
		in.Cond = Cond(r.Intn(NumConds + 2))
	}
	if some() {
		in.Target = uint16(r.Intn(MaxTarget + 64))
	}
	return in
}

// TestLayoutMatchesReference holds Validate, Encode, String and Decode to the
// reference model (ref_test.go): the same accept/reject, word and text for a
// million instructions, and the same decode for a million words. The mov fix
// is the one listed difference; where both sides reject, the messages agree
// except for canonicality ("must be zero"), whose wording names the first
// offending field.
func TestLayoutMatchesReference(t *testing.T) {
	const n = 1 << 20
	r := rand.New(rand.NewSource(1))
	var accepted, fixed int
	for i := 0; i < n; i++ {
		in := randInstruction(r)
		if i%2 == 1 {
			in = arbInstruction(r)
		}
		if got, want := in.String(), refString(in); got != want {
			t.Fatalf("%+v: String = %q, reference %q", in, got, want)
		}
		err, rerr := in.Validate(), refValidate(in)
		if err != nil && rerr == nil && movTargetFix(in) {
			fixed++
			continue
		}
		if (err == nil) != (rerr == nil) {
			t.Fatalf("%+v: Validate = %v, reference %v", in, err, rerr)
		}
		if err != nil {
			if err.Error() != rerr.Error() && !(strings.Contains(err.Error(), "must be zero") && strings.Contains(rerr.Error(), "must be zero")) {
				t.Fatalf("%+v: Validate = %q, reference %q", in, err, rerr)
			}
			continue
		}
		accepted++
		w, err := in.Encode()
		rw, rerr := refEncode(in)
		if err != nil || rerr != nil || w != rw {
			t.Fatalf("%+v: Encode = %x, %v; reference %x, %v", in, w, err, rw, rerr)
		}
	}
	t.Logf("%d instructions: %d accepted, %d movs with a dead target now rejected", n, accepted, fixed)
	if accepted < n/2 || fixed == 0 {
		t.Fatalf("draws cover too little: %d accepted, %d mov fixes", accepted, fixed)
	}

	accepted, fixed = 0, 0
	for i := 0; i < n; i++ {
		w := randWord(r)
		got, err := Decode(w)
		want, rerr := refDecode(w)
		if got != want {
			t.Fatalf("%x: Decode = %+v, reference %+v", w, got, want)
		}
		if err != nil && rerr == nil && movTargetFix(want) {
			fixed++
			continue
		}
		if (err == nil) != (rerr == nil) {
			t.Fatalf("%x: Decode error %v, reference %v", w, err, rerr)
		}
		if err == nil {
			accepted++
		}
	}
	t.Logf("%d words: %d decoded, %d movs with a dead target now rejected", n, accepted, fixed)
	if accepted < n/8 || fixed == 0 {
		t.Fatalf("draws cover too little: %d decoded, %d mov fixes", accepted, fixed)
	}
}

// randWord draws a 48-bit word with an opcode just past the defined ones at
// most: a third uniformly random, a third sparse (each bit set with
// probability 1/8, so unused fields are often zero) and a third a canonical
// encoding with one bit flipped.
func randWord(r *rand.Rand) Word {
	var v uint64
	switch r.Intn(3) {
	case 0:
		v = r.Uint64()
	case 1:
		v = r.Uint64() & r.Uint64() & r.Uint64()
	case 2:
		w, err := randInstruction(r).Encode()
		if err != nil {
			panic(err)
		}
		for i, b := range w {
			v |= uint64(b) << (8 * i)
		}
		v ^= 1 << r.Intn(8*WordBytes)
	}
	v = v&^(1<<opBits-1) | uint64(r.Intn(NumOpcodes+3))
	var w Word
	for i := range w {
		w[i] = byte(v >> (8 * i))
	}
	return w
}

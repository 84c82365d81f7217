// Package asm implements the textual assembler of the uPIMulator toolchain:
// a lexer + parser + two-pass label resolver that lowers UPMEM-style assembly
// source into an unlinked object (instructions, static allocations, and
// symbol fixups) consumed by internal/linker. This is the hand-written
// replacement for the ANTLR-based lexer/parser the paper builds its custom
// linker/assembler from.
//
// Syntax (one statement per line; ';' or '#' start comments):
//
//	.alloc name size [align]      static allocation
//	.word  name v0 v1 ...         initialized static data (32-bit words)
//	label:                        code label
//	op operands...                instruction, e.g.  add r1, r0, 4, nz, loop
//
// Operands are registers (r0..r23, zero, id, nth, dpuid), integers (decimal
// or 0x hex), labels (for branch targets) or symbol names (for movi, which
// becomes a link-time fixup).
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"upim/internal/isa"
	"upim/internal/linker"
)

// SyntaxError reports an assembly failure with its source line.
type SyntaxError struct {
	Line   int
	Text   string
	Reason string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("asm:%d: %s (in %q)", e.Line, e.Reason, strings.TrimSpace(e.Text))
}

type assembler struct {
	name    string
	labels  map[string]uint16 // label -> instruction index
	statics map[string]bool
	obj     *linker.Object
}

// Assemble lowers source text into an unlinked object.
func Assemble(name, src string) (*linker.Object, error) {
	a := &assembler{
		name:    name,
		labels:  map[string]uint16{},
		statics: map[string]bool{},
		obj:     &linker.Object{Name: name},
	}
	lines := strings.Split(src, "\n")

	// Pass 1: collect labels (instruction indices) and static declarations.
	idx := 0
	for ln, raw := range lines {
		stmt, err := a.splitStatement(ln+1, raw)
		if err != nil {
			return nil, err
		}
		for _, lbl := range stmt.labels {
			if _, dup := a.labels[lbl]; dup {
				return nil, a.errf(ln+1, raw, "duplicate label %q", lbl)
			}
			if idx > isa.MaxTarget {
				return nil, a.errf(ln+1, raw, "program exceeds the %d-instruction branch range", isa.MaxTarget+1)
			}
			a.labels[lbl] = uint16(idx)
		}
		switch {
		case stmt.directive != "":
			if err := a.directive(ln+1, raw, stmt); err != nil {
				return nil, err
			}
		case len(stmt.fields) > 0:
			idx++
		}
	}

	// Pass 2: parse instructions.
	for ln, raw := range lines {
		stmt, err := a.splitStatement(ln+1, raw)
		if err != nil {
			return nil, err
		}
		if stmt.directive != "" || len(stmt.fields) == 0 {
			continue
		}
		if err := a.instruction(ln+1, raw, stmt.fields); err != nil {
			return nil, err
		}
	}
	if len(a.obj.Instrs) == 0 {
		return nil, &SyntaxError{Line: 0, Text: "", Reason: "no instructions"}
	}
	return a.obj, nil
}

type statement struct {
	labels    []string
	directive string
	fields    []string
}

func (a *assembler) errf(line int, text, format string, args ...any) error {
	return &SyntaxError{Line: line, Text: text, Reason: fmt.Sprintf(format, args...)}
}

// splitStatement strips comments, peels leading labels, and tokenizes the
// rest on whitespace/commas.
func (a *assembler) splitStatement(line int, raw string) (statement, error) {
	var st statement
	s := raw
	if i := strings.IndexAny(s, ";#"); i >= 0 {
		s = s[:i]
	}
	s = strings.TrimSpace(s)
	for {
		i := strings.Index(s, ":")
		if i < 0 {
			break
		}
		lbl := strings.TrimSpace(s[:i])
		if !isIdent(lbl) {
			return st, a.errf(line, raw, "invalid label %q", lbl)
		}
		st.labels = append(st.labels, lbl)
		s = strings.TrimSpace(s[i+1:])
	}
	if s == "" {
		return st, nil
	}
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ' ' || r == '\t' || r == ',' })
	if len(fields) == 0 {
		// Separator-only lines (",", ", ,") survive the trim above.
		return st, a.errf(line, raw, "statement has no tokens")
	}
	if strings.HasPrefix(fields[0], ".") {
		st.directive = fields[0]
		st.fields = fields[1:]
		return st, nil
	}
	st.fields = fields
	return st, nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == '.' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func (a *assembler) directive(line int, raw string, st statement) error {
	switch st.directive {
	case ".alloc":
		if len(st.fields) != 2 && len(st.fields) != 3 {
			return a.errf(line, raw, ".alloc wants: name size [align]")
		}
		name := st.fields[0]
		if !isIdent(name) || a.statics[name] {
			return a.errf(line, raw, "bad or duplicate symbol %q", name)
		}
		size, err := parseInt(st.fields[1])
		if err != nil || size <= 0 {
			return a.errf(line, raw, "bad size %q", st.fields[1])
		}
		align := int64(8)
		if len(st.fields) == 3 {
			if align, err = parseInt(st.fields[2]); err != nil || align <= 0 {
				return a.errf(line, raw, "bad align %q", st.fields[2])
			}
		}
		a.statics[name] = true
		a.obj.Statics = append(a.obj.Statics, linker.Symbol{
			Name: name, Size: uint32(size), Align: uint32(align),
		})
	case ".word":
		if len(st.fields) < 2 {
			return a.errf(line, raw, ".word wants: name v0 [v1 ...]")
		}
		name := st.fields[0]
		if !isIdent(name) || a.statics[name] {
			return a.errf(line, raw, "bad or duplicate symbol %q", name)
		}
		init := make([]byte, 0, (len(st.fields)-1)*4)
		for _, f := range st.fields[1:] {
			v, err := parseInt(f)
			if err != nil {
				return a.errf(line, raw, "bad word %q", f)
			}
			u := uint32(int32(v))
			init = append(init, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
		}
		a.statics[name] = true
		a.obj.Statics = append(a.obj.Statics, linker.Symbol{
			Name: name, Size: uint32(len(init)), Align: 8, Init: init,
		})
	default:
		return a.errf(line, raw, "unknown directive %q", st.directive)
	}
	return nil
}

func parseInt(s string) (int64, error) {
	return strconv.ParseInt(s, 0, 64)
}

func (a *assembler) reg(line int, raw, s string) (isa.RegID, error) {
	r, ok := isa.RegByName(s)
	if !ok {
		return 0, a.errf(line, raw, "unknown register %q", s)
	}
	return r, nil
}

// regOrImm parses an operand that may be a register or an immediate.
func (a *assembler) regOrImm(line int, raw, s string) (r isa.RegID, imm int32, useImm bool, err error) {
	if reg, ok := isa.RegByName(s); ok {
		return reg, 0, false, nil
	}
	v, perr := parseInt(s)
	if perr != nil {
		return 0, 0, false, a.errf(line, raw, "operand %q is neither register nor immediate", s)
	}
	return 0, int32(v), true, nil
}

func (a *assembler) target(line int, raw, s string) (uint16, error) {
	if t, ok := a.labels[s]; ok {
		return t, nil
	}
	v, err := parseInt(s)
	if err != nil || v < 0 || v > isa.MaxTarget {
		return 0, a.errf(line, raw, "bad branch target %q", s)
	}
	return uint16(v), nil
}

// instruction parses one instruction's operands in the order op.Operands
// gives them; the cond and target that may follow are written together or
// not at all.
func (a *assembler) instruction(line int, raw string, fields []string) error {
	op, ok := isa.OpcodeByName(fields[0])
	if !ok {
		return a.errf(line, raw, "unknown mnemonic %q", fields[0])
	}
	args, ops := fields[1:], op.Operands()
	if n := len(args); n != len(ops) && (n > len(ops) || ops[n].Field != isa.FieldCond) {
		return a.errf(line, raw, "%s: wrong operand count %d", op, n)
	}
	in := isa.Instruction{Op: op}
	for i, s := range args {
		var err error
		switch o := ops[i]; o.Field {
		case isa.FieldRd:
			in.Rd, err = a.reg(line, raw, s)
		case isa.FieldRa:
			in.Ra, err = a.reg(line, raw, s)
		case isa.FieldRb:
			in.Rb, in.Imm, in.UseImm, err = a.regOrImm(line, raw, s)
		case isa.FieldCond:
			var ok bool
			if in.Cond, ok = isa.CondByName(s); !ok {
				err = a.errf(line, raw, "unknown condition %q", s)
			}
		case isa.FieldTarget:
			in.Target, err = a.target(line, raw, s)
		case isa.FieldImm:
			v, perr := parseInt(s)
			switch {
			case perr == nil:
				in.Imm = int32(v)
			case op != isa.OpMOVI:
				err = a.errf(line, raw, "bad %s %q", o.Name, s)
			case a.statics[s]:
				// Symbol reference: leave zero, emit fixup.
				a.obj.Fixups = append(a.obj.Fixups, linker.Fixup{
					Index: len(a.obj.Instrs), Symbol: s,
				})
			default:
				err = a.errf(line, raw, "%s operand %q is neither immediate nor symbol", op, s)
			}
		}
		if err != nil {
			return err
		}
	}
	if verr := in.Validate(); verr != nil {
		return a.errf(line, raw, "%v", verr)
	}
	a.obj.Instrs = append(a.obj.Instrs, in)
	return nil
}

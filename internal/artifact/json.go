package artifact

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// WriteJSON renders the indented JSON form: exactly the bytes of
// encoding/json's Encoder under SetIndent("", "  ") — key order, two-space
// indent, float and (HTML-escaped) string forms, trailing newline — appended
// directly instead of reflected, marshalled per cell, compacted and
// re-indented. Reports are compared byte for byte across runs and against
// committed references, so the form is pinned by a differential test against
// the Encoder. Nothing is written when a cell cannot be encoded (NaN, ±Inf).
func (t *Table) WriteJSON(w io.Writer) error {
	b, err := t.appendJSON(scratch(w))
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

func (t *Table) appendJSON(b []byte) ([]byte, error) {
	b = appendJSONString(append(b, "{\n  \"key\": "...), t.Key)
	b = appendJSONString(append(b, ",\n  \"id\": "...), t.ID)
	b = appendJSONString(append(b, ",\n  \"title\": "...), t.Title)
	if t.Scale != "" {
		b = appendJSONString(append(b, ",\n  \"scale\": "...), t.Scale)
	}
	b = append(b, ",\n  \"columns\": "...)
	for i, c := range t.Columns {
		b = appendJSONString(append(element(b, i, "    "), "{\n      \"name\": "...), c.Name)
		if c.Unit != "" {
			b = appendJSONString(append(b, ",\n      \"unit\": "...), c.Unit)
		}
		b = append(b, "\n    }"...)
	}
	b = closeArray(b, len(t.Columns), t.Columns == nil, "  ")
	b = append(b, ",\n  \"rows\": "...)
	for i, row := range t.Rows {
		b = element(b, i, "    ")
		for j, v := range row {
			b = element(b, j, "      ")
			if !v.Numeric {
				b = appendJSONString(b, v.Text)
				continue
			}
			if math.IsInf(v.Num, 0) || math.IsNaN(v.Num) {
				return nil, fmt.Errorf("artifact: table %s row %d column %d: JSON cannot carry %v", t.Key, i, j, v.Num)
			}
			b = appendJSONFloat(append(b, "{\n        \"v\": "...), v.Num)
			b = appendJSONString(append(b, ",\n        \"text\": "...), v.Text)
			b = append(b, "\n      }"...)
		}
		b = closeArray(b, len(row), row == nil, "    ")
	}
	b = closeArray(b, len(t.Rows), t.Rows == nil, "  ")
	return append(b, "\n}\n"...), nil
}

// element opens element i of an array whose elements sit at indent.
func element(b []byte, i int, indent string) []byte {
	if i == 0 {
		b = append(b, '[')
	} else {
		b = append(b, ',')
	}
	return append(append(b, '\n'), indent...)
}

// closeArray ends an array of n elements whose bracket sits at indent; an
// array with none was never opened and is null or [].
func closeArray(b []byte, n int, isNil bool, indent string) []byte {
	switch {
	case n > 0:
		return append(append(append(b, '\n'), indent...), ']')
	case isNil:
		return append(b, "null"...)
	}
	return append(b, "[]"...)
}

// appendJSONFloat appends a finite f as encoding/json does: ES6 number
// formatting — plain decimals between 1e-6 and 1e21, exponents outside, the
// exponent not padded to two digits.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 is written e-9
		b = b[:n-1]
	}
	return b
}

// appendJSONString appends s quoted as encoding/json does with HTML escaping
// on: ", \ and control bytes escaped, <, > and & as \u00XX, U+2028/U+2029
// escaped, invalid UTF-8 replaced by \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				b = append(append(b, s[start:i]...), `\ufffd`...)
				start = i + size
			case r == '\u2028' || r == '\u2029':
				b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
				start = i + size
			}
			i += size
			continue
		}
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '\\', '"':
			b = append(b, '\\', c)
		case '\b', '\t', '\n', '\f', '\r':
			b = append(b, '\\', "btnvfr"[c-'\b']) // 0x08..0x0d, \v unused
		default:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		}
		i++
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

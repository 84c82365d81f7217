package artifact

import (
	"fmt"
	"io"
	"math"
	"slices"
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
	b, _, err := t.appendJSONCSV(scratch(w), nil)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// appendJSONCSV appends t's JSON form to j and its CSV form to c in one walk
// over the cells, so each numeric cell's shortest digits are found once and
// spelled both ways. The CSV form is whole whatever the cells hold; err names
// the first cell JSON cannot carry (NaN, ±Inf), and j is then not to be used.
//
// The CSV form is what encoding/csv's Writer writes under its defaults (comma
// separator, LF line ends): a header row of column labels, then one record
// per row, a numeric cell as its shortest 'g' spelling, which never needs
// quoting.
func (t *Table) appendJSONCSV(j, c []byte) (_, _ []byte, err error) {
	j = appendJSONString(append(j, "{\n  \"key\": "...), t.Key)
	j = appendJSONString(append(j, ",\n  \"id\": "...), t.ID)
	j = appendJSONString(append(j, ",\n  \"title\": "...), t.Title)
	if t.Scale != "" {
		j = appendJSONString(append(j, ",\n  \"scale\": "...), t.Scale)
	}
	j = append(j, ",\n  \"columns\": "...)
	for i, col := range t.Columns {
		j = appendJSONString(append(element(j, i, "    "), "{\n      \"name\": "...), col.Name)
		if col.Unit != "" {
			j = appendJSONString(append(j, ",\n      \"unit\": "...), col.Unit)
		}
		j = append(j, "\n    }"...)
		if i > 0 {
			c = append(c, ',')
		}
		c = appendCSVField(c, col.Label())
	}
	j = closeArray(j, len(t.Columns), t.Columns == nil, "  ")
	c = append(c, '\n')
	j = append(j, ",\n  \"rows\": "...)
	j0, c0 := len(j), len(c)
	for i, row := range t.Rows {
		if i == 1 {
			j, c = roomForRows(j, j0, len(t.Rows)), roomForRows(c, c0, len(t.Rows))
		}
		j = element(j, i, "    ")
		for k, v := range row {
			j = element(j, k, "      ")
			if k > 0 {
				c = append(c, ',')
			}
			switch {
			case !v.Numeric:
				j = appendJSONString(j, v.Text)
				c = appendCSVField(c, v.Text)
			case math.IsInf(v.Num, 0) || math.IsNaN(v.Num):
				if err == nil {
					err = fmt.Errorf("artifact: table %s row %d column %d: JSON cannot carry %v", t.Key, i, k, v.Num)
				}
				c = strconv.AppendFloat(c, v.Num, 'g', -1, 64)
			default:
				ds := digitsOf(v.Num)
				c = ds.appendG(c)
				j = ds.appendES6(append(j, "{\n        \"v\": "...))
				j = appendJSONString(append(j, ",\n        \"text\": "...), v.Text)
				j = append(j, "\n      }"...)
			}
		}
		j = closeArray(j, len(row), row == nil, "    ")
		c = append(c, '\n')
	}
	j = closeArray(j, len(t.Rows), t.Rows == nil, "  ")
	return append(j, "\n}\n"...), c, err
}

// roomForRows grows b, which holds the first of n rows from start on, to fit
// the rest at a quarter more than the first's size. A table's rows are alike,
// so a large table's buffer grows once here; append alone would grow it a
// quarter at a time, copying it whole each time.
func roomForRows(b []byte, start, n int) []byte {
	return slices.Grow(b, (len(b)-start)*(n-1)*5/4)
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

// Every numeric cell of a report is spelled twice, as JSON's number and as
// CSV's, and both spellings place the same digits: the shortest decimal that
// reads back as the float. Finding those digits is what formatting a float
// costs, so appendJSONCSV finds them once per cell and spells both forms from
// them.

// digits is a finite float's shortest round-tripping decimal: ±0.d[:nd] ×
// 10^dp, no leading or trailing zero digit, nd = 0 for zero.
type digits struct {
	d   [17]byte
	nd  uint8
	dp  int16
	neg bool
}

// digitsOf finds f's shortest digits, read off strconv's shortest 'e' form
// (d[.ddd]e±dd[d]). A NaN or an infinity has none and reads as zero.
func digitsOf(f float64) (ds digits) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return ds
	}
	var buf [32]byte
	b := strconv.AppendFloat(buf[:0], f, 'e', -1, 64)
	if b[0] == '-' {
		ds.neg, b = true, b[1:]
	}
	i := 0
	for ; b[i] != 'e'; i++ {
		if b[i] != '.' {
			ds.d[ds.nd] = b[i]
			ds.nd++
		}
	}
	exp := 0
	for _, c := range b[i+2:] {
		exp = exp*10 + int(c-'0')
	}
	if b[i+1] == '-' {
		exp = -exp
	}
	if ds.d[0] == '0' {
		ds.nd = 0 // ±0
		return ds
	}
	ds.dp = int16(exp + 1)
	return ds
}

// appendES6 spells ds as encoding/json spells a float64 — ES6 number
// formatting: plain decimals between 1e-6 and 1e21, an exponent outside it,
// not padded to two digits.
func (ds digits) appendES6(b []byte) []byte {
	if exp := int(ds.dp) - 1; ds.nd > 0 && (exp < -6 || exp >= 21) {
		return ds.appendExp(b, false)
	}
	return ds.appendFixed(b)
}

// appendG spells ds as strconv's shortest 'g' does: plain decimals for
// exponents from -4 to 5, an exponent of at least two digits outside.
func (ds digits) appendG(b []byte) []byte {
	if exp := int(ds.dp) - 1; ds.nd > 0 && (exp < -4 || exp >= 6) {
		return ds.appendExp(b, true)
	}
	return ds.appendFixed(b)
}

const zeros = "000000000000000000000000"

// appendFixed spells ds in plain decimals, as strconv's shortest 'f' does.
func (ds digits) appendFixed(b []byte) []byte {
	if ds.neg {
		b = append(b, '-')
	}
	d, dp := ds.d[:ds.nd], int(ds.dp)
	switch {
	case len(d) == 0:
		return append(b, '0')
	case dp <= 0:
		return append(append(append(b, "0."...), zeros[:-dp]...), d...)
	case dp >= len(d):
		return append(append(b, d...), zeros[:dp-len(d)]...)
	}
	return append(append(append(b, d[:dp]...), '.'), d[dp:]...)
}

// appendExp spells ds as d[.ddd]e±x, the exponent padded to two digits when
// pad is set.
func (ds digits) appendExp(b []byte, pad bool) []byte {
	if ds.neg {
		b = append(b, '-')
	}
	b = append(b, ds.d[0])
	if ds.nd > 1 {
		b = append(append(b, '.'), ds.d[1:ds.nd]...)
	}
	exp, sign := int(ds.dp)-1, byte('+')
	if exp < 0 {
		exp, sign = -exp, '-'
	}
	b = append(b, 'e', sign)
	if pad && exp < 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(exp), 10)
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

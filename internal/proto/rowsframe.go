package proto

import (
	"bytes"
	"strconv"
)

// The rows frame is the only frame whose size grows with the result,
// so it skips reflection in both directions. appendRowsFrame writes the
// exact bytes json.Marshal produces for Frame{Type: FrameRows, Rows:
// rows}; decodeRowsFrame parses only the canonical shape those bytes
// take and leaves everything else to the reflective strict decoder.

// rowsFramePrefix opens every non-empty rows frame on the wire.
const rowsFramePrefix = `{"frame":"rows","rows":[`

// maxFastDigits bounds the integers the fast path parses: 18 decimal
// digits cannot overflow int64, so it needs no overflow check. Longer
// integers fall back to the reflective decoder.
const maxFastDigits = 18

// appendRowsFrame appends one rows frame line, newline included, to
// dst. The bytes match json.Marshal(Frame{Type: FrameRows, Rows: rows})
// plus '\n', including its omitempty and nil-row cases.
func appendRowsFrame(dst []byte, rows [][]int64) []byte {
	if len(rows) == 0 {
		return append(dst, `{"frame":"rows"}`+"\n"...)
	}
	dst = append(dst, rowsFramePrefix...)
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		if row == nil {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(dst, '[')
		for j, v := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, v, 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, "]}\n"...)
}

// decodeRowsFrame parses the canonical rows frame: the exact prefix,
// one or more `[int(,int)*]` rows, `]}` and JSON whitespace. Integers
// carry an optional '-', no leading zeros (so no "-0"), no fraction or
// exponent, and at most maxFastDigits digits. Every input it accepts
// the reflective decoder accepts with equal rows; on any other input
// it returns false and decides nothing. The rows share one flat
// backing array, each capped so an append cannot reach its neighbour.
func decodeRowsFrame(line []byte) (*Frame, bool) {
	if !bytes.HasPrefix(line, []byte(rowsFramePrefix)) {
		return nil, false
	}
	p := line[len(rowsFramePrefix):]
	// In a well-formed body every value but the last is followed by a
	// comma and every row opens with '[', so these size both slices
	// exactly.
	flat := make([]int64, 0, bytes.Count(p, []byte{','})+1)
	rows := make([][]int64, 0, bytes.Count(p, []byte{'['}))
	i := 0
	for {
		if i >= len(p) || p[i] != '[' {
			return nil, false
		}
		i++
		start := len(flat)
		for {
			v, n, ok := parseFastInt(p[i:])
			if !ok {
				return nil, false
			}
			flat = append(flat, v)
			i += n
			if i >= len(p) {
				return nil, false
			}
			if p[i] == ']' {
				break
			}
			if p[i] != ',' {
				return nil, false
			}
			i++
		}
		i++
		rows = append(rows, flat[start:len(flat):len(flat)])
		if i >= len(p) {
			return nil, false
		}
		if p[i] == ']' {
			break
		}
		if p[i] != ',' {
			return nil, false
		}
		i++
	}
	i++
	if i >= len(p) || p[i] != '}' {
		return nil, false
	}
	for _, c := range p[i+1:] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return nil, false
		}
	}
	return &Frame{Type: FrameRows, Rows: rows}, true
}

// parseFastInt parses the integer at the start of b, returning its
// value and byte length. It rejects "-0", leading zeros and more than
// maxFastDigits digits; what follows the digits is the caller's check.
func parseFastInt(b []byte) (int64, int, bool) {
	i, neg := 0, false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	start := i
	var v int64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + int64(b[i]-'0')
		i++
	}
	digits := i - start
	switch {
	case digits == 0 || digits > maxFastDigits:
		return 0, 0, false
	case b[start] == '0' && (digits > 1 || neg):
		return 0, 0, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}

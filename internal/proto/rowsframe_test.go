package proto_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"paradigms/internal/proto"
)

// marshalRowsFrame is the reference encoding the append encoder must
// reproduce byte for byte.
func marshalRowsFrame(t testing.TB, rows [][]int64) []byte {
	raw, err := json.Marshal(proto.Frame{Type: proto.FrameRows, Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// randomValue draws from the extremes, zero, small values of both signs
// and the full int64 range, so every digit count and sign shows up.
func randomValue(rnd *rand.Rand) int64 {
	switch rnd.Intn(8) {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	case 2:
		return 0
	case 3:
		return -rnd.Int63n(1000)
	case 4:
		return rnd.Int63n(1000)
	case 5:
		return -rnd.Int63()
	default:
		return rnd.Int63() >> uint(rnd.Intn(63))
	}
}

// fastDigits reports whether every value fits the decoder's fast path
// (at most 18 digits, which excludes only 19-digit magnitudes).
func fastDigits(rows [][]int64) bool {
	for _, row := range rows {
		for _, v := range row {
			if v <= -1e18 || v >= 1e18 {
				return false
			}
		}
	}
	return true
}

// TestRowsFrameAppendMatchesMarshal is the encoder's property test: for
// random batches of 1–16 columns the appended frame is byte-identical
// to json.Marshal, and decoding it returns the batch. Batches within
// the fast path's digit bound must take it.
func TestRowsFrameAppendMatchesMarshal(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	var buf []byte
	for iter := 0; iter < 2000; iter++ {
		cols, n := 1+rnd.Intn(16), 1+rnd.Intn(64)
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = make([]int64, cols)
			for j := range rows[i] {
				rows[i][j] = randomValue(rnd)
			}
		}
		buf = proto.AppendRowsFrame(buf[:0], rows)
		if want := marshalRowsFrame(t, rows); !bytes.Equal(buf, want) {
			t.Fatalf("append encoding diverges from json.Marshal:\ngot:  %q\nwant: %q", buf, want)
		}
		f, err := proto.DecodeFrame(buf)
		if err != nil {
			t.Fatalf("decode %q: %v", buf, err)
		}
		if !reflect.DeepEqual(f.Rows, rows) {
			t.Fatalf("round trip changed rows:\ngot:  %v\nwant: %v", f.Rows, rows)
		}
		if _, ok := proto.DecodeRowsFrame(buf); ok != fastDigits(rows) {
			t.Fatalf("fast path accepted=%v for %q", ok, buf)
		}
	}
}

// TestRowsFrameAppendEdgeShapes covers the shapes json.Marshal renders
// specially: an empty batch (omitempty drops the field), nil rows
// (null) and empty rows ([]).
func TestRowsFrameAppendEdgeShapes(t *testing.T) {
	for _, rows := range [][][]int64{nil, {}, {nil}, {{}}, {{1}, nil, {}, {-2, 3}}} {
		got := proto.AppendRowsFrame(nil, rows)
		if want := marshalRowsFrame(t, rows); !bytes.Equal(got, want) {
			t.Errorf("rows %v: got %q, want %q", rows, got, want)
		}
	}
}

// benchBatch is an export-shaped batch: 1024 rows of five lineitem-like
// columns (keys, quantities, prices, dates).
func benchBatch() [][]int64 {
	rnd := rand.New(rand.NewSource(1))
	rows := make([][]int64, 1024)
	for i := range rows {
		rows[i] = []int64{rnd.Int63n(600000), rnd.Int63n(7), 100 + rnd.Int63n(5000), rnd.Int63n(10000000), 8000 + rnd.Int63n(2500)}
	}
	return rows
}

var sinkFrame *proto.Frame

func BenchmarkRowsFrameEncode(b *testing.B) {
	rows := benchBatch()
	b.Run("codec=append", func(b *testing.B) {
		buf := proto.AppendRowsFrame(nil, rows)
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = proto.AppendRowsFrame(buf[:0], rows)
		}
	})
	b.Run("codec=reflect", func(b *testing.B) {
		b.SetBytes(int64(len(marshalRowsFrame(b, rows))))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			marshalRowsFrame(b, rows)
		}
	})
}

func BenchmarkRowsFrameDecode(b *testing.B) {
	line := proto.AppendRowsFrame(nil, benchBatch())
	line = line[:len(line)-1]
	for _, c := range []struct {
		name   string
		decode func([]byte) (*proto.Frame, error)
	}{
		{"codec=fast", proto.DecodeFrame},
		{"codec=reflect", proto.DecodeFrameStrict},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(line)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := c.decode(line)
				if err != nil {
					b.Fatal(err)
				}
				sinkFrame = f
			}
		})
	}
}

// TestRowsFrameFastPathNeverLooser mutates canonical rows frames with
// bytes from the number and structure alphabet — the near misses a
// byte-level fuzzer rarely reaches — and requires that whatever the
// fast path accepts, the strict decoder accepts with identical rows.
func TestRowsFrameFastPathNeverLooser(t *testing.T) {
	const alphabet = "0123456789-+.eE[]{},: \t\"x"
	rnd := rand.New(rand.NewSource(2))
	accepted := 0
	for iter := 0; iter < 20000; iter++ {
		rows := make([][]int64, 1+rnd.Intn(3))
		for i := range rows {
			rows[i] = make([]int64, 1+rnd.Intn(3))
			for j := range rows[i] {
				rows[i][j] = randomValue(rnd) >> uint(rnd.Intn(64))
			}
		}
		line := proto.AppendRowsFrame(nil, rows)
		line = line[:len(line)-1]
		for m := 1 + rnd.Intn(2); m > 0; m-- {
			pos, c := rnd.Intn(len(line)+1), alphabet[rnd.Intn(len(alphabet))]
			switch rnd.Intn(3) {
			case 0: // insert
				line = append(line[:pos], append([]byte{c}, line[pos:]...)...)
			case 1: // replace
				if pos < len(line) {
					line[pos] = c
				}
			default: // delete
				if pos < len(line) {
					line = append(line[:pos], line[pos+1:]...)
				}
			}
		}
		fast, ok := proto.DecodeRowsFrame(line)
		if !ok {
			continue
		}
		accepted++
		strict, err := proto.DecodeFrameStrict(line)
		if err != nil {
			t.Fatalf("fast path accepted %q, strict decoder rejects it: %v", line, err)
		}
		if !reflect.DeepEqual(fast, strict) {
			t.Fatalf("decoders disagree on %q:\nfast:   %+v\nstrict: %+v", line, fast, strict)
		}
	}
	if accepted == 0 {
		t.Fatal("no mutant reached the fast path; the test exercises nothing")
	}
}

package bits

import (
	"errors"
	"math/rand"
	"testing"
)

// refReader is the bit-at-a-time reference for Reader's word-at-a-time
// reads: every multi-bit read is a loop of single-bit reads, and a gamma
// prefix of more than maxUvarintWidth ones fails like the end of input.
type refReader struct{ r *Reader }

func (f refReader) uint(width int) (uint64, error) {
	var v uint64
	for i := 0; i < width; i++ {
		b, err := f.r.ReadBit()
		if err != nil {
			return 0, err
		}
		v <<= 1
		if b {
			v |= 1
		}
	}
	return v, nil
}

func (f refReader) uvarint() (uint64, error) {
	width := 0
	for {
		b, err := f.r.ReadBit()
		if err != nil {
			return 0, err
		}
		if !b {
			break
		}
		if width++; width > maxUvarintWidth {
			return 0, ErrOutOfBits
		}
	}
	v, err := f.uint(width)
	if err != nil {
		return 0, err
	}
	return (1<<uint(width) | v) - 1, nil
}

// randomStream returns a seeded byte stream; dense streams are mostly ones
// so long gamma prefixes, including over-long ones, are common.
func randomStream(rng *rand.Rand, dense bool) []byte {
	data := make([]byte, rng.Intn(40))
	for i := range data {
		if dense && rng.Intn(12) != 0 {
			data[i] = 0xff
		} else {
			data[i] = byte(rng.Intn(256))
		}
	}
	return data
}

// TestWordReaderMatchesBitReader drives Reader and the bit-at-a-time
// reference through the same read sequences over seeded streams: values,
// positions and out-of-input failures must agree read for read.
func TestWordReaderMatchesBitReader(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20000; trial++ {
		data := randomStream(rng, trial%2 == 0)
		nbits := rng.Intn(len(data)*8 + 1)
		fast := NewReader(data, nbits)
		ref := refReader{NewReader(data, nbits)}
		for step := 0; ; step++ {
			var got, want uint64
			var gotErr, wantErr error
			switch op := rng.Intn(3); op {
			case 0:
				got, gotErr = fast.ReadUvarint()
				want, wantErr = ref.uvarint()
			case 1:
				width := rng.Intn(81)
				got, gotErr = fast.ReadUint(width)
				want, wantErr = ref.uint(width)
			default:
				var g, w bool
				g, gotErr = fast.ReadBit()
				w, wantErr = ref.r.ReadBit()
				got, want = b2u(g), b2u(w)
			}
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("trial %d step %d: error %v, reference %v", trial, step, gotErr, wantErr)
			}
			if gotErr != nil {
				if !errors.Is(gotErr, ErrOutOfBits) {
					t.Fatalf("trial %d step %d: error %v does not match ErrOutOfBits", trial, step, gotErr)
				}
				break
			}
			if got != want || fast.Pos() != ref.r.Pos() {
				t.Fatalf("trial %d step %d: read %d at %d, reference %d at %d", trial, step, got, fast.Pos(), want, ref.r.Pos())
			}
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestReadUvarintPrefixBound pins the prefix bound at every bit offset:
// 63 ones decode (the widest WriteUvarint emits), 64 or more fail with an
// error matching ErrOutOfBits.
func TestReadUvarintPrefixBound(t *testing.T) {
	for off := 0; off < 8; off++ {
		for _, ones := range []int{62, 63, 64, 65, 100} {
			var w Writer
			w.WriteUint(0, off)
			for i := 0; i < ones; i++ {
				w.WriteBit(true)
			}
			w.WriteBit(false)
			w.WriteUint(0, min(ones, 64))
			r := NewReader(w.Bytes(), w.Bits())
			if _, err := r.ReadUint(off); err != nil {
				t.Fatal(err)
			}
			v, err := r.ReadUvarint()
			if ones <= maxUvarintWidth {
				if want := uint64(1)<<uint(ones) - 1; err != nil || v != want {
					t.Fatalf("offset %d, %d ones: got %d, %v; want %d", off, ones, v, err, want)
				}
				continue
			}
			if !errors.Is(err, ErrOutOfBits) {
				t.Fatalf("offset %d, %d ones: got %d, %v; want ErrOutOfBits", off, ones, v, err)
			}
		}
	}
}

// TestAppendSpanMatchesWriter pins that AppendSpan reproduces, for every
// span of a seeded stream, the bytes a Writer replaying those bits holds.
func TestAppendSpanMatchesWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		data := randomStream(rng, false)
		nbits := len(data) * 8
		from := rng.Intn(nbits + 1)
		to := from + rng.Intn(nbits-from+1)
		r := NewReader(data, nbits)
		if _, err := r.ReadUint(to); err != nil {
			t.Fatal(err)
		}
		var w Writer
		ref := NewReader(data, nbits)
		for i := 0; i < to; i++ {
			b, _ := ref.ReadBit()
			if i >= from {
				w.WriteBit(b)
			}
		}
		got := r.AppendSpan([]byte{0xaa}, from)
		if string(got[1:]) != string(w.Bytes()) || got[0] != 0xaa {
			t.Fatalf("span [%d,%d): got %x, want %x", from, to, got[1:], w.Bytes())
		}
	}
}

// Package bits provides bit-exact serialization for proof labels, so that
// the label sizes reported by experiments are honest bit counts (the paper's
// complexity measure) rather than in-memory struct sizes.
package bits

import (
	"encoding/binary"
	"errors"
	"fmt"
	mathbits "math/bits"
	"slices"
)

// Writer accumulates bits most-significant-first. The zero value writes into
// a fresh buffer; NewWriter appends into a caller's buffer.
type Writer struct {
	buf   []byte
	base  int // bytes of buf before the bit stream (the caller's prefix)
	nbits int
}

// NewWriter returns a Writer whose bit stream starts on a fresh byte right
// after dst's contents, appending into dst's storage as append would. Buf
// returns the prefix followed by the bits; Bits counts only the bits.
func NewWriter(dst []byte) *Writer {
	return &Writer{buf: dst, base: len(dst)}
}

// WriteBit appends one bit.
func (w *Writer) WriteBit(b bool) {
	if w.nbits%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[len(w.buf)-1] |= 1 << uint(7-w.nbits%8)
	}
	w.nbits++
}

// writeBits appends the n low bits of v, most significant first, merging
// them into the buffer byte-at-a-time instead of bit-at-a-time. It upholds
// the Writer's zero-padding invariant (bits past nbits are zero).
func (w *Writer) writeBits(v uint64, n int) {
	for n > 0 {
		if w.nbits%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		free := 8 - w.nbits%8
		take := free
		if n < take {
			take = n
		}
		chunk := byte(v>>uint(n-take)) & (1<<uint(take) - 1)
		w.buf[len(w.buf)-1] |= chunk << uint(free-take)
		w.nbits += take
		n -= take
	}
}

// WriteUint appends v in exactly width bits (big-endian). It panics if v
// does not fit, as that is a programming error in the label encoder.
// Widths beyond 64 pad with leading zero bits.
func (w *Writer) WriteUint(v uint64, width int) {
	if width < 64 && v >= 1<<uint(width) {
		panic(fmt.Sprintf("bits: value %d does not fit in %d bits", v, width))
	}
	if width > 64 {
		w.writeBits(0, width-64)
		width = 64
	}
	w.writeBits(v, width)
}

// WriteUvarint appends v using a self-delimiting Elias-gamma-style code:
// a unary length prefix followed by the value bits. Cost: 2⌊log₂(v+1)⌋+1.
func (w *Writer) WriteUvarint(v uint64) {
	v++ // encode v+1 ≥ 1
	width := mathbits.Len64(v) - 1
	if width < 0 {
		// v+1 wrapped to zero (v was MaxUint64): a single stop bit, as the
		// bit-at-a-time encoder emitted.
		w.writeBits(0, 1)
		return
	}
	if width <= 31 {
		// Single merged emission: width ones, a zero, then the width value
		// bits (2·width+1 ≤ 63 bits).
		prefix := uint64(1)<<uint(width) - 1
		w.writeBits(prefix<<uint(width+1)|v&(1<<uint(width)-1), 2*width+1)
		return
	}
	w.writeBits(1<<uint(width+1)-2, width+1) // width ones, then a zero
	w.writeBits(v, width)                    // value bits below the leading 1
}

// WriteChunk appends a pre-encoded bit sequence (chunk, nbits) as
// previously produced by a Writer, bit-for-bit identical to replaying the
// original writes. Only chunk's first ⌈nbits/8⌉ bytes are read (encoding
// caches keep more after them), and their padding bits must be zero.
// Byte-aligned chunks are copied wholesale; unaligned chunks are
// shift-merged a 64-bit word at a time into a buffer grown once, so
// appending a cached encoding costs O(bytes/8) instead of O(bits).
func (w *Writer) WriteChunk(chunk string, nbits int) {
	if nbits == 0 {
		return
	}
	nbytes := (nbits + 7) / 8
	shift := uint(w.nbits % 8)
	if shift == 0 {
		w.buf = append(w.buf, chunk[:nbytes]...)
		w.nbits += nbits
		return
	}
	// The stream's last byte holds shift bits, so each chunk byte straddles
	// two destination bytes: dst[i] takes the carry from chunk byte i−1 and
	// the high 8−shift bits of byte i. Every byte of dst is assigned, so the
	// grown region needs no clearing.
	last := len(w.buf) - 1
	w.buf = slices.Grow(w.buf, nbytes)[:last+1+nbytes]
	dst := w.buf[last:]
	carry := uint64(dst[0])
	i := 0
	for ; i+8 <= nbytes; i += 8 {
		v := load64(chunk[i : i+8])
		binary.BigEndian.PutUint64(dst[i:], carry<<56|v>>shift)
		carry = uint64(byte(v) << (8 - shift))
	}
	for ; i < nbytes; i++ {
		b := chunk[i]
		dst[i] = byte(carry) | b>>shift
		carry = uint64(b << (8 - shift))
	}
	dst[nbytes] = byte(carry)
	w.nbits += nbits
	// Drop the overflow byte when the merged tail fits in one fewer byte.
	// (Bits past nbits are zero by the Writer's zero-padding invariant, so
	// the retained tail byte carries no stray bits.)
	w.buf = w.buf[:w.base+(w.nbits+7)/8]
}

// load64 reads an 8-byte string as a big-endian word.
func load64(b string) uint64 {
	_ = b[7]
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// UvarintLen returns the exact bit length WriteUvarint(v) produces
// (2⌊log₂(v+1)⌋+1), letting label-size accounting run without
// materializing an encoding.
func UvarintLen(v uint64) int {
	width := mathbits.Len64(v+1) - 1
	if width < 0 {
		return 1 // v+1 wrapped to zero
	}
	return 2*width + 1
}

// Bits returns the number of bits written.
func (w *Writer) Bits() int { return w.nbits }

// Bytes returns a copy of the encoded bytes (the final byte zero-padded),
// without the prefix of a NewWriter buffer.
func (w *Writer) Bytes() []byte { return append([]byte(nil), w.buf[w.base:]...) }

// Buf returns the Writer's buffer without copying it: the NewWriter prefix,
// if any, followed by the encoded bytes (the final byte zero-padded).
func (w *Writer) Buf() []byte { return w.buf }

// ErrOutOfBits is returned when a Reader runs past the end of input. An
// Elias-gamma length prefix of 64 or more ones (a value no 64-bit code
// produces) also matches it: the reader gives up on the prefix as if the
// input had ended there.
var ErrOutOfBits = errors.New("bits: out of input")

// maxUvarintWidth bounds the Elias-gamma prefix: WriteUvarint emits at most
// 63 ones before the stop bit.
const maxUvarintWidth = 63

// Reader consumes bits written by Writer. Multi-bit reads load the input a
// 64-bit word at a time.
type Reader struct {
	buf  []byte
	pos  int
	size int
}

// NewReader wraps encoded bytes with an explicit bit length. A length
// beyond the buffer is clipped to it.
func NewReader(buf []byte, nbits int) *Reader {
	nbits = max(min(nbits, len(buf)*8), 0)
	return &Reader{buf: buf, size: nbits}
}

// Pos returns the number of bits consumed so far.
func (r *Reader) Pos() int { return r.pos }

// window returns the input starting at bit p, left-aligned in a word (bit p
// is bit 63), and how many of its bits lie before the end of input; the
// bits past that are zero. At least 57 bits are valid whenever that many
// remain.
func (r *Reader) window(p int) (uint64, int) {
	i := p >> 3
	var w uint64
	if i+8 <= len(r.buf) {
		w = binary.BigEndian.Uint64(r.buf[i:])
	} else {
		for j := i; j < len(r.buf); j++ {
			w |= uint64(r.buf[j]) << uint(56-8*(j-i))
		}
	}
	off := p & 7
	w <<= uint(off)
	valid := min(64-off, r.size-p)
	return w & ^(^uint64(0) >> uint(valid)), valid
}

// AppendSpan appends the consumed input bits [from, Pos()) to dst exactly
// as a Writer emitting them would hold them: left-aligned, final byte
// zero-padded. Decoders use it to recover a component's canonical encoding
// from the bits it was read from.
func (r *Reader) AppendSpan(dst []byte, from int) []byte {
	n := r.pos - from
	if n <= 0 {
		return dst
	}
	if from&7 == 0 {
		i := from >> 3
		dst = append(dst, r.buf[i:i+(n+7)/8]...)
	} else {
		for p := from; p < r.pos; p += 56 {
			w, _ := r.window(p)
			for k := 0; k < 7 && p+8*k < r.pos; k++ {
				dst = append(dst, byte(w>>uint(56-8*k)))
			}
		}
	}
	if tail := n & 7; tail != 0 {
		dst[len(dst)-1] &= 0xff << uint(8-tail)
	}
	return dst
}

// ReadBit consumes one bit.
func (r *Reader) ReadBit() (bool, error) {
	if r.pos >= r.size {
		return false, ErrOutOfBits
	}
	b := r.buf[r.pos/8]&(1<<uint(7-r.pos%8)) != 0
	r.pos++
	return b, nil
}

// ReadUint consumes width bits. Widths beyond 64 keep the low 64 bits of
// the value, matching WriteUint's leading-zero padding.
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width > r.size-r.pos {
		return 0, ErrOutOfBits
	}
	var v uint64
	for width > 0 {
		n := min(width, 56)
		w, _ := r.window(r.pos)
		v = v<<uint(n) | w>>uint(64-n)
		r.pos += n
		width -= n
	}
	return v, nil
}

// ReadUvarint consumes one WriteUvarint value. The unary prefix is counted
// a word at a time; a prefix longer than any WriteUvarint emits fails with
// an error matching ErrOutOfBits.
func (r *Reader) ReadUvarint() (uint64, error) {
	w, valid := r.window(r.pos)
	if ones := mathbits.LeadingZeros64(^w); 2*ones < valid {
		// Prefix, stop bit and value bits all lie in this word.
		r.pos += 2*ones + 1
		return (1<<uint(ones) | w<<uint(ones+1)>>uint(64-ones)) - 1, nil
	}
	width := 0
	for {
		ones := mathbits.LeadingZeros64(^w)
		if ones < valid {
			width += ones
			r.pos += ones + 1
			break
		}
		width += valid
		r.pos += valid
		if r.pos >= r.size {
			return 0, ErrOutOfBits
		}
		w, valid = r.window(r.pos)
	}
	if width > maxUvarintWidth {
		return 0, errLongPrefix
	}
	v, err := r.ReadUint(width)
	if err != nil {
		return 0, err
	}
	return (1<<uint(width) | v) - 1, nil
}

var errLongPrefix = fmt.Errorf("%w: Elias-gamma prefix of more than %d ones", ErrOutOfBits, maxUvarintWidth)

package bits

import (
	"math/rand"
	"testing"
)

// randomWrites appends count random bit/uint/uvarint writes to w and replays
// the identical sequence into mirror.
func randomWrites(rng *rand.Rand, w, mirror *Writer, count int) {
	for i := 0; i < count; i++ {
		switch rng.Intn(3) {
		case 0:
			b := rng.Intn(2) == 1
			w.WriteBit(b)
			mirror.WriteBit(b)
		case 1:
			width := 1 + rng.Intn(30)
			v := rng.Uint64() & (1<<uint(width) - 1)
			w.WriteUint(v, width)
			mirror.WriteUint(v, width)
		default:
			v := uint64(rng.Intn(1 << 16))
			w.WriteUvarint(v)
			mirror.WriteUvarint(v)
		}
	}
}

// TestWriteChunkBitIdentical checks that appending a pre-encoded chunk at an
// arbitrary (usually unaligned) bit offset produces exactly the stream that
// replaying the chunk's original writes would, and that the writer stays
// usable afterwards.
func TestWriteChunkBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		var chunk Writer
		var direct Writer // ground truth: every write replayed natively
		var chunked Writer

		randomWrites(rng, &chunked, &direct, rng.Intn(8)) // random prefix offset

		// The same random writes land in the standalone chunk writer and,
		// natively at the current offset, in the ground-truth writer; the
		// chunked writer then appends the pre-encoded chunk in one call.
		randomWrites(rng, &chunk, &direct, rng.Intn(12))
		chunked.WriteChunk(string(chunk.Bytes()), chunk.Bits())

		randomWrites(rng, &chunked, &direct, rng.Intn(8)) // writes after the chunk

		if chunked.Bits() != direct.Bits() {
			t.Fatalf("trial %d: %d bits vs %d", trial, chunked.Bits(), direct.Bits())
		}
		a, b := chunked.Bytes(), direct.Bytes()
		if string(a) != string(b) {
			t.Fatalf("trial %d: byte streams differ:\n%x\n%x", trial, a, b)
		}
	}
}

// TestWriteChunkReplaysWrites pins WriteChunk against a bit-by-bit replay of
// the chunk (the definitionally correct append).
func TestWriteChunkReplaysWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		var chunk Writer
		var scratch Writer
		randomWrites(rng, &chunk, &scratch, 1+rng.Intn(10))

		var prefixA, prefixB Writer
		randomWrites(rng, &prefixA, &prefixB, rng.Intn(10))

		prefixA.WriteChunk(string(chunk.Bytes()), chunk.Bits())
		r := NewReader(chunk.Bytes(), chunk.Bits())
		for {
			b, err := r.ReadBit()
			if err != nil {
				break
			}
			prefixB.WriteBit(b)
		}
		if prefixA.Bits() != prefixB.Bits() || string(prefixA.Bytes()) != string(prefixB.Bytes()) {
			t.Fatalf("trial %d: chunk append diverges from bit replay", trial)
		}
	}
}

// oracleWriteChunk is the byte-at-a-time merge WriteChunk used before it
// went word-wise, kept as the reference the word-wise path must reproduce:
// one append per source byte, each byte split across two destination bytes.
func oracleWriteChunk(w *Writer, buf []byte, nbits int) {
	if nbits == 0 {
		return
	}
	nbytes := (nbits + 7) / 8
	shift := uint(w.nbits % 8)
	if shift == 0 {
		w.buf = append(w.buf, buf[:nbytes]...)
		w.nbits += nbits
		return
	}
	last := len(w.buf) - 1
	for i := 0; i < nbytes; i++ {
		b := buf[i]
		w.buf[last+i] |= b >> shift
		w.buf = append(w.buf, b<<(8-shift))
	}
	w.nbits += nbits
	w.buf = w.buf[:w.base+(w.nbits+7)/8]
}

// randomChunk returns nbits random bits as a Writer would hold them (final
// byte zero-padded), followed by junk bytes WriteChunk must not read — the
// form encoding caches keep, where the bit count follows the bytes.
func randomChunk(rng *rand.Rand, nbits int) []byte {
	nbytes := (nbits + 7) / 8
	buf := make([]byte, nbytes+rng.Intn(4))
	rng.Read(buf)
	if tail := nbits & 7; tail != 0 {
		buf[nbytes-1] &= 0xff << uint(8-tail)
	}
	return buf
}

// TestWriteChunkMatchesByteOracle compares the word-wise WriteChunk with
// the byte-at-a-time oracle for every destination shift 0–7 and chunk
// lengths 0–200 bits, writing both into a plain Writer and into a NewWriter
// over a non-empty prefix whose spare capacity holds stale bytes. The
// leading bits go in through WriteBit on one side and WriteUint on the
// other.
func TestWriteChunkMatchesByteOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for shift := 0; shift < 8; shift++ {
		for nbits := 0; nbits <= 200; nbits++ {
			for trial := 0; trial < 3; trial++ {
				chunk := randomChunk(rng, nbits)
				lead := rng.Uint64() >> uint(64-shift)
				next := rng.Uint64() & 0x1fff

				prefix := make([]byte, rng.Intn(5), 64+len(chunk))
				rng.Read(prefix[:cap(prefix)]) // stale bytes past len
				for _, tc := range []struct {
					name      string
					got, want *Writer
				}{
					{"zero", &Writer{}, &Writer{}},
					{"prefix", NewWriter(prefix), NewWriter(append([]byte(nil), prefix...))},
				} {
					for b := shift - 1; b >= 0; b-- {
						tc.got.WriteBit(lead>>uint(b)&1 == 1)
					}
					tc.got.WriteChunk(string(chunk), nbits)
					tc.got.WriteUint(next, 13)
					tc.want.WriteUint(lead, shift)
					oracleWriteChunk(tc.want, chunk, nbits)
					tc.want.WriteUint(next, 13)
					if tc.got.Bits() != tc.want.Bits() || string(tc.got.Buf()) != string(tc.want.Buf()) {
						t.Fatalf("%s: shift %d, %d-bit chunk: got %d bits %x, want %d bits %x", tc.name,
							shift, nbits, tc.got.Bits(), tc.got.Buf(), tc.want.Bits(), tc.want.Buf())
					}
				}
			}
		}
	}
}

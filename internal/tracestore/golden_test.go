package tracestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"testing"
)

// goldenPath is one real record as `cmd/audit -trace-store` writes it:
// a Bulldozer resonance search (4 threads, -loop 36, seed 8001), 8000
// cycles, an 8.9 B/cycle payload that DEFLATE squeezes to ~10 KB. It
// pins the v2 byte format: every codec change must re-encode it to the
// same bytes.
const goldenPath = "testdata/bulldozer.trace"

// goldenDigest is recordDigest of the decoded golden record.
const goldenDigest = "d8d99497ec79c86efdc01a42f59112ae332ecebc27da508a2de3d7aa8f10d3d3"

func loadGolden(tb testing.TB) ([]byte, *Record) {
	tb.Helper()
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		tb.Fatal(err)
	}
	rec, ok := Decode(blob)
	if !ok {
		tb.Fatalf("%s does not decode", goldenPath)
	}
	return blob, rec
}

// recordDigest hashes every decoded field in a fixed order, so a
// decoder that reads the right number of bytes into the wrong values
// cannot pass the golden.
func recordDigest(rec *Record) string {
	h := sha256.New()
	w := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	w(flag(rec.Done))
	w(flag(rec.Unsupported))
	w(flag(rec.Periodic))
	w(uint64(rec.HeadLen))
	w(uint64(rec.PeriodLen))
	w(rec.CaptureNS)
	for _, blk := range [][statsWords]uint64{rec.EndStats, rec.RefStats, rec.PerStats} {
		for _, v := range blk {
			w(v)
		}
	}
	w(rec.EndRetired)
	w(rec.RefRetired)
	w(rec.PerRetired)
	w(uint64(len(rec.Energy)))
	for _, e := range rec.Energy {
		w(math.Float64bits(e))
	}
	w(uint64(len(rec.Issues)))
	for _, q := range rec.Issues {
		w(q)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenRecordByteIdentity: the golden decodes to the pinned
// fields and re-encodes to exactly the bytes on disk.
func TestGoldenRecordByteIdentity(t *testing.T) {
	blob, rec := loadGolden(t)
	if got := recordDigest(rec); got != goldenDigest {
		t.Errorf("decoded golden digest %s, want %s", got, goldenDigest)
	}
	if re := Encode(rec); !bytes.Equal(re, blob) {
		t.Errorf("Encode(Decode(golden)) differs from the golden: %d vs %d bytes", len(re), len(blob))
	}
}

// refBitWriter and refBitReader are the codec's original one-bit-per-
// iteration bit I/O, kept as the oracle the word-at-a-time versions
// must match bit for bit.
type refBitWriter struct {
	buf   []byte
	cur   uint8
	nbits uint
}

func (w *refBitWriter) writeBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.cur = w.cur<<1 | uint8((v>>uint(i))&1)
		w.nbits++
		if w.nbits == 8 {
			w.buf = append(w.buf, w.cur)
			w.cur, w.nbits = 0, 0
		}
	}
}

func (w *refBitWriter) align() {
	if w.nbits > 0 {
		w.buf = append(w.buf, w.cur<<(8-w.nbits))
		w.cur, w.nbits = 0, 0
	}
}

type refBitReader struct {
	buf   []byte
	pos   int
	cur   uint8
	nbits uint
}

func (r *refBitReader) readBits(n uint) (uint64, bool) {
	var v uint64
	for i := uint(0); i < n; i++ {
		if r.nbits == 0 {
			if r.pos >= len(r.buf) {
				return 0, false
			}
			r.cur = r.buf[r.pos]
			r.pos++
			r.nbits = 8
		}
		v = v<<1 | uint64(r.cur>>7)
		r.cur <<= 1
		r.nbits--
	}
	return v, true
}

func (r *refBitReader) alignedTail() []byte { return r.buf[r.pos:] }

// bitOp is one step of a randomized bit-I/O script: write (or read)
// the low width bits of v, or, with align set, byte-align the writer.
type bitOp struct {
	v     uint64
	width uint
	align bool
}

func randomBitScript(rng *rand.Rand, n int) []bitOp {
	ops := make([]bitOp, n)
	for i := range ops {
		if rng.Intn(16) == 0 {
			ops[i].align = true
			continue
		}
		w := uint(rng.Intn(65))
		v := rng.Uint64()
		if w < 64 {
			v &= 1<<w - 1
		}
		ops[i] = bitOp{v: v, width: w}
	}
	return ops
}

// TestBitIOMatchesReference drives the codec's bitWriter and the
// reference writer through the same random (value, width 0..64, align)
// scripts and requires equal bytes; then reads each stream back with
// both readers, requiring the same values, the same out-of-bits
// failure point and the same alignedTail after every prefix.
func TestBitIOMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 400; iter++ {
		ops := randomBitScript(rng, 1+rng.Intn(200))
		prefix := []byte{byte(iter), 0xa5}[:2*rng.Intn(2)]
		w := bitWriter{buf: append([]byte(nil), prefix...)}
		ref := refBitWriter{buf: append([]byte(nil), prefix...)}
		for _, op := range ops {
			if op.align {
				w.align()
				ref.align()
				continue
			}
			w.writeBits(op.v, op.width)
			ref.writeBits(op.v, op.width)
		}
		w.align()
		ref.align()
		if !bytes.Equal(w.buf, ref.buf) {
			t.Fatalf("iter %d: writer bytes differ from the reference\n got %x\nwant %x", iter, w.buf, ref.buf)
		}

		// Read the stream back, sometimes with trailing garbage or a
		// truncation, so both readers run out of bits at some point.
		stream := ref.buf[len(prefix):]
		switch rng.Intn(3) {
		case 1:
			stream = append(append([]byte(nil), stream...), 0xff, 0x00, byte(iter))
		case 2:
			stream = stream[:rng.Intn(len(stream)+1)]
		}
		r := bitReader{buf: stream}
		rr := refBitReader{buf: stream}
		for i, op := range ops {
			if op.align {
				if got, want := r.alignedTail(), rr.alignedTail(); !bytes.Equal(got, want) {
					t.Fatalf("iter %d op %d: alignedTail %x, want %x", iter, i, got, want)
				}
				// Continue from the aligned tail, as a caller that
				// parses bytes after a bit section would.
				r = bitReader{buf: r.alignedTail()}
				rr = refBitReader{buf: rr.alignedTail()}
				continue
			}
			got, gok := r.readBits(op.width)
			want, wok := rr.readBits(op.width)
			if gok != wok || got != want {
				t.Fatalf("iter %d op %d (width %d): read (%x, %v), want (%x, %v)",
					iter, i, op.width, got, gok, want, wok)
			}
			if !wok {
				// A failed read consumes the stream: nothing is left.
				if _, ok := r.readBits(1); ok {
					t.Fatalf("iter %d op %d: read succeeded after running out of bits", iter, i)
				}
				break
			}
		}
		if got, want := r.alignedTail(), rr.alignedTail(); !bytes.Equal(got, want) {
			t.Fatalf("iter %d: final alignedTail %x, want %x", iter, got, want)
		}
	}
}

var encodeSink []byte

// BenchmarkTraceCodec times Encode and Decode on the golden record, a
// real trace's shape (~9 B/cycle of payload, ~7× after DEFLATE), unlike
// BenchmarkTraceEncodeV2's synthetic stream.
func BenchmarkTraceCodec(b *testing.B) {
	blob, rec := loadGolden(b)
	b.Run("Encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encodeSink = Encode(rec)
		}
	})
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := Decode(blob); !ok {
				b.Fatal("golden does not decode")
			}
		}
	})
}

// TestDecodeAllocs and TestEncodeAllocs gate the codec's allocation
// counts on the golden record. With pooled DEFLATE state and buffers,
// Decode allocates the Record, its two slices and the inflater's
// per-block Huffman tables; Encode allocates only the returned blob.
// Each bound is the count achieved plus a small margin.
func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	blob, _ := loadGolden(t)
	n := testing.AllocsPerRun(50, func() { Decode(blob) })
	if n > 18 {
		t.Errorf("Decode allocates %v times per golden record, want ≤ 18", n)
	}
}

func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	_, rec := loadGolden(t)
	n := testing.AllocsPerRun(50, func() { Encode(rec) })
	if n > 2 {
		t.Errorf("Encode allocates %v times per golden record, want ≤ 2", n)
	}
}

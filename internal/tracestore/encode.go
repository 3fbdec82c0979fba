package tracestore

// This file is the v2 record codec (magic "AUDTRC2\n"), the store's
// canonical encoding since the distributed trace tier: the same bytes
// live on disk and travel over /v1/trace, so compressing them shrinks
// both the store's footprint and the coordinator↔worker wire traffic.
//
// Layout: magic, then a DEFLATE stream over a compact payload, then a
// trailing FNV-1a checksum over everything before it. The payload
// packs the per-cycle Energy float64 stream with Gorilla-style XOR
// compression (periodic stressmark traces repeat values cycle to
// cycle, so most XORs are zero or narrow) and the packed Issues words
// as varint XOR deltas; headers and counters are varints. The outer flate layer then squeezes the cross-cycle
// structure the per-value stages cannot see (a loop body's XOR pattern
// recurring every period).
//
// v2 is the only format. A record an older binary wrote in the legacy
// flat v1 format ("AUDTRC1\n") reads as a miss, like a corrupt or
// truncated blob, and the caller recaptures and overwrites it. The
// byte format is pinned by the golden record in testdata: Encode must
// reproduce it exactly.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math"
	"math/bits"
	"sync"
)

// magic2 identifies the v2 compressed record format.
const magic2 = "AUDTRC2\n"

// maxPayloadBytes bounds the inflated payload a decoder will buffer —
// comfortably above the largest legal trace (16 B/cycle × 4 Mi cycles)
// while stopping a corrupt length field from ballooning memory.
const maxPayloadBytes = 1 << 30

// encoder and decoder hold the per-call scratch state of Encode and
// Decode — DEFLATE state and payload buffers — pooled so the hot paths
// (a store hit decodes, a tier publish encodes) stop rebuilding ~1 MB
// of compressor tables and regrowing buffers on every record. Reset
// DEFLATE state is equivalent to fresh state, so pooling changes no
// output byte.
type encoder struct {
	zw      *flate.Writer
	out     bytes.Buffer
	payload []byte
}

type decoder struct {
	zr      inflater
	src     bytes.Reader
	payload []byte
}

// inflater is what flate.NewReader returns: a reader that can be reset
// onto a new stream.
type inflater interface {
	io.Reader
	flate.Resetter
}

// maxPooledPayload caps the payload buffer a pooled encoder or decoder
// keeps (a real record's is ~70 KB), so one huge or hostile record
// cannot pin its memory in the pool.
const maxPooledPayload = 4 << 20

func pooled(b []byte) []byte {
	if cap(b) > maxPooledPayload {
		return nil
	}
	return b
}

var (
	encoders = sync.Pool{New: func() any {
		zw, _ := flate.NewWriter(nil, flate.DefaultCompression) // fails only on a bad level
		return &encoder{zw: zw}
	}}
	decoders = sync.Pool{New: func() any {
		return &decoder{zr: flate.NewReader(bytes.NewReader(nil)).(inflater)}
	}}
)

// Encode serialises rec in the canonical (v2) format. The returned
// blob is what Put writes to disk and what the distributed trace tier
// ships over the wire.
func Encode(rec *Record) []byte {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.payload = encodePayload(e.payload[:0], rec)
	e.out.Reset()
	e.out.WriteString(magic2)
	e.zw.Reset(&e.out)
	e.zw.Write(e.payload)
	e.zw.Close()
	e.payload = pooled(e.payload)
	blob := make([]byte, e.out.Len(), e.out.Len()+8)
	copy(blob, e.out.Bytes())
	return appendU64(blob, fnv1a(blob))
}

// Decode is Encode's inverse. ok is false on any structural or
// checksum mismatch, and on any blob that is not a v2 record: a record
// written by an older format version reads as a miss, like any other
// undecodable file.
func Decode(blob []byte) (*Record, bool) {
	if len(blob) < len(magic2)+8 || string(blob[:len(magic2)]) != magic2 {
		return nil, false
	}
	body, sum := blob[:len(blob)-8], binary.LittleEndian.Uint64(blob[len(blob)-8:])
	if fnv1a(body) != sum {
		return nil, false
	}
	d := decoders.Get().(*decoder)
	defer decoders.Put(d)
	d.src.Reset(body[len(magic2):])
	d.zr.Reset(&d.src, nil)
	payload, ok := inflate(d.payload[:0], d.zr)
	d.payload = pooled(payload)
	if !ok {
		return nil, false
	}
	return decodePayload(payload)
}

// inflate reads zr to EOF, appending to buf and growing it as needed;
// ok is false on a stream error or a payload over maxPayloadBytes.
func inflate(buf []byte, zr io.Reader) ([]byte, bool) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := zr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > maxPayloadBytes {
			return buf, false
		}
		if err == io.EOF {
			return buf, true
		}
		if err != nil {
			return buf, false
		}
	}
}

// payloadBound is the most bytes encodePayload can write for rec: 33
// header varints, 77 bits per Gorilla-coded value after the raw first
// one, and one varint per issue word.
func payloadBound(rec *Record) int {
	return 33*binary.MaxVarintLen64 + 8 + 10*len(rec.Energy) +
		binary.MaxVarintLen64*len(rec.Issues)
}

// encodePayload appends the uncompressed v2 payload to b, growing it
// at most once, to payloadBound.
func encodePayload(b []byte, rec *Record) []byte {
	if need := len(b) + payloadBound(rec); cap(b) < need {
		b = append(make([]byte, 0, need), b...)
	}
	var flags uint64
	if rec.Done {
		flags |= 1 << 0
	}
	if rec.Unsupported {
		flags |= 1 << 1
	}
	if rec.Periodic {
		flags |= 1 << 2
	}
	b = binary.AppendUvarint(b, flags)
	b = binary.AppendUvarint(b, uint64(rec.HeadLen))
	b = binary.AppendUvarint(b, uint64(rec.PeriodLen))
	b = binary.AppendUvarint(b, rec.CaptureNS)
	for _, blk := range [][statsWords]uint64{rec.EndStats, rec.RefStats, rec.PerStats} {
		for _, v := range blk {
			b = binary.AppendUvarint(b, v)
		}
	}
	b = binary.AppendUvarint(b, rec.EndRetired)
	b = binary.AppendUvarint(b, rec.RefRetired)
	b = binary.AppendUvarint(b, rec.PerRetired)
	b = binary.AppendUvarint(b, uint64(len(rec.Energy)))
	b = binary.AppendUvarint(b, uint64(len(rec.Issues)))
	b = appendEnergyXOR(b, rec.Energy)
	prev := uint64(0)
	for _, q := range rec.Issues {
		b = binary.AppendUvarint(b, q^prev)
		prev = q
	}
	return b
}

func decodePayload(p []byte) (*Record, bool) {
	rec := &Record{}
	ok := true
	next := func() uint64 {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			ok = false
			return 0
		}
		p = p[n:]
		return v
	}
	flags := next()
	rec.Done = flags&(1<<0) != 0
	rec.Unsupported = flags&(1<<1) != 0
	rec.Periodic = flags&(1<<2) != 0
	rec.HeadLen = int(next())
	rec.PeriodLen = int(next())
	rec.CaptureNS = next()
	for _, blk := range []*[statsWords]uint64{&rec.EndStats, &rec.RefStats, &rec.PerStats} {
		for i := range blk {
			blk[i] = next()
		}
	}
	rec.EndRetired = next()
	rec.RefRetired = next()
	rec.PerRetired = next()
	n := next()
	nIssues := next()
	// Replay indexes Issues by Energy's cycle index, so a record whose
	// two streams differ in length must never decode. Every issue word
	// takes at least one payload byte, so a count beyond the bytes left
	// is corrupt: refuse it before allocating for it.
	if !ok || nIssues != n || n > uint64(len(p)) {
		return nil, false
	}
	var energy []float64
	if energy, p, ok = decodeEnergyXOR(p, int(n)); !ok {
		return nil, false
	}
	rec.Energy = energy
	rec.Issues = make([]uint64, nIssues)
	prev := uint64(0)
	for i := range rec.Issues {
		x, k := binary.Uvarint(p)
		if k <= 0 {
			return nil, false
		}
		p = p[k:]
		prev ^= x
		rec.Issues[i] = prev
	}
	if len(p) != 0 {
		return nil, false // trailing garbage
	}
	if rec.Periodic && (rec.HeadLen < 0 || rec.PeriodLen <= 0 ||
		rec.HeadLen+rec.PeriodLen != len(rec.Energy)) {
		return nil, false // inconsistent periodic decomposition
	}
	return rec, true
}

// appendEnergyXOR writes the float64 stream Gorilla-style: the first
// value raw, every later one as the XOR against its predecessor —
// a '0' bit when identical, otherwise a '1' plus either the previous
// meaningful-bit window ('0') or a fresh (leading-zeros, length)
// header ('1'). Bit-exact for every float64 including NaN payloads.
func appendEnergyXOR(b []byte, vals []float64) []byte {
	w := bitWriter{buf: b}
	if len(vals) == 0 {
		return w.buf
	}
	prev := math.Float64bits(vals[0])
	w.writeBits(prev, 64)
	prevLZ, prevTZ := -1, -1
	for _, v := range vals[1:] {
		cur := math.Float64bits(v)
		x := cur ^ prev
		prev = cur
		if x == 0 {
			w.writeBits(0, 1)
			continue
		}
		lz := bits.LeadingZeros64(x)
		if lz > 31 {
			lz = 31 // 5-bit header field
		}
		tz := bits.TrailingZeros64(x)
		if prevLZ >= 0 && lz >= prevLZ && tz >= prevTZ {
			// The XOR fits the previous window: reuse it.
			w.writeBits(0b10, 2)
			w.writeBits(x>>uint(prevTZ), uint(64-prevLZ-prevTZ))
			continue
		}
		mlen := 64 - lz - tz
		w.writeBits(0b11<<11|uint64(lz)<<6|uint64(mlen-1), 2+5+6)
		w.writeBits(x>>uint(tz), uint(mlen))
		prevLZ, prevTZ = lz, tz
	}
	w.align()
	return w.buf
}

// decodeEnergyXOR is appendEnergyXOR's inverse; it returns the decoded
// values and the remaining byte-aligned tail of p.
func decodeEnergyXOR(p []byte, n int) ([]float64, []byte, bool) {
	vals := make([]float64, n)
	if n == 0 {
		return vals, p, true
	}
	r := bitReader{buf: p}
	prev, ok := r.readBits(64)
	if !ok {
		return nil, nil, false
	}
	vals[0] = math.Float64frombits(prev)
	prevLZ, prevTZ := -1, -1
	for i := 1; i < n; i++ {
		ctrl, ok := r.readBits(1)
		if !ok {
			return nil, nil, false
		}
		if ctrl == 0 {
			vals[i] = math.Float64frombits(prev)
			continue
		}
		fresh, ok := r.readBits(1)
		if !ok {
			return nil, nil, false
		}
		lz, tz := prevLZ, prevTZ
		if fresh == 1 {
			h, ok := r.readBits(5 + 6) // lz, then mlen-1
			if !ok {
				return nil, nil, false
			}
			lz = int(h >> 6)
			tz = 64 - lz - (int(h&63) + 1)
		}
		if lz < 0 || tz < 0 || 64-lz-tz <= 0 {
			return nil, nil, false
		}
		m, ok := r.readBits(uint(64 - lz - tz))
		if !ok {
			return nil, nil, false
		}
		prev ^= m << uint(tz)
		vals[i] = math.Float64frombits(prev)
		prevLZ, prevTZ = lz, tz
	}
	return vals, r.alignedTail(), true
}

// bitWriter packs MSB-first bits onto a byte slice through a 64-bit
// accumulator: a value is one shift-and-or, and the buffer grows a
// whole word at a time.
type bitWriter struct {
	buf   []byte
	acc   uint64 // pending bits, right-aligned
	nbits uint   // pending bit count, < 64
}

// writeBits appends the low n bits of v, n in 0..64.
func (w *bitWriter) writeBits(v uint64, n uint) {
	v &= 1<<n - 1 // all ones at n == 64
	if free := 64 - w.nbits; n < free {
		w.acc = w.acc<<n | v
		w.nbits += n
		return
	}
	w.flush(v, n)
}

// flush completes the accumulator with the top bits of v, appends it
// and keeps the rest of v pending.
func (w *bitWriter) flush(v uint64, n uint) {
	rest := n - (64 - w.nbits)
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<(64-w.nbits)|v>>rest)
	w.acc, w.nbits = v&(1<<rest-1), rest
}

// align flushes the pending bits as whole bytes, the last one
// zero-padded.
func (w *bitWriter) align() {
	for w.nbits >= 8 {
		w.nbits -= 8
		w.buf = append(w.buf, byte(w.acc>>w.nbits))
	}
	if w.nbits > 0 {
		w.buf = append(w.buf, byte(w.acc<<(8-w.nbits)))
	}
	w.acc, w.nbits = 0, 0
}

// bitReader consumes MSB-first bits from a byte slice through a 64-bit
// accumulator refilled a word at a time. Running out of bits fails the
// read and consumes the rest of the slice.
type bitReader struct {
	buf   []byte
	pos   int    // bytes of buf loaded into acc
	acc   uint64 // unread bits, left-aligned; any bits below them are the stream's next bits
	nbits uint   // unread bit count
}

// readBits returns the next n bits, n in 0..64.
func (r *bitReader) readBits(n uint) (uint64, bool) {
	if n > r.nbits {
		return r.readSlow(n)
	}
	return r.take(n), true
}

// take consumes n <= nbits bits from the accumulator.
func (r *bitReader) take(n uint) uint64 {
	v := r.acc >> (64 - n) // zero at n == 0
	r.acc <<= n
	r.nbits -= n
	return v
}

// readSlow refills before reading; a read wider than one refill takes
// the accumulator's bits, refills and takes the rest.
func (r *bitReader) readSlow(n uint) (uint64, bool) {
	r.refill()
	if n <= r.nbits {
		return r.take(n), true
	}
	k := r.nbits
	hi := r.take(k)
	r.refill()
	if n-k > r.nbits {
		// Only an exhausted buf falls short here, and it holds whole
		// bytes, so nbits is 0: the failed read consumed every bit.
		return 0, false
	}
	return hi<<(n-k) | r.take(n-k), true
}

// refill loads whole bytes until acc holds more than 56 bits or buf is
// exhausted.
func (r *bitReader) refill() {
	if r.pos+8 <= len(r.buf) {
		// One load: bits past the whole bytes counted here are the
		// stream's next bits, so the next refill ORs them in again
		// unchanged.
		r.acc |= binary.BigEndian.Uint64(r.buf[r.pos:]) >> r.nbits
		k := (64 - r.nbits) >> 3
		r.pos += int(k)
		r.nbits += 8 * k
		return
	}
	for r.nbits <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << (56 - r.nbits)
		r.pos++
		r.nbits += 8
	}
}

// alignedTail discards the rest of the current byte and returns the
// remaining whole bytes.
func (r *bitReader) alignedTail() []byte {
	return r.buf[r.pos-int(r.nbits>>3):]
}

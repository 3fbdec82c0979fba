package tracestore

import (
	"bytes"
	"testing"
)

// seal appends a valid checksum to body, so a fuzzed body reaches the
// DEFLATE and payload decoders instead of failing the checksum.
func seal(body []byte) []byte {
	return appendU64(append([]byte(nil), body...), fnv1a(body))
}

// FuzzDecode: no input may panic the decoder, and a record it accepts
// must round-trip to a fixed point — Decode(Encode(rec)) equals rec and
// re-encodes to the same bytes. Each input is tried three ways: as a
// whole blob, sealed with a valid checksum, and as a raw payload, so
// mutations reach the Gorilla and varint decoders without having to
// survive DEFLATE.
func FuzzDecode(f *testing.F) {
	blob, _ := loadGolden(f)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	flipped := append([]byte(nil), blob...)
	flipped[len(blob)/3] ^= 0x10
	f.Add(flipped)
	f.Add(encodePayload(nil, sampleRecord(16, 3)))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, try := range []func() (*Record, bool){
			func() (*Record, bool) { return Decode(data) },
			func() (*Record, bool) { return Decode(seal(data)) },
			func() (*Record, bool) { return decodePayload(data) },
		} {
			rec, ok := try()
			if !ok {
				continue
			}
			re := Encode(rec)
			back, ok := Decode(re)
			if !ok {
				t.Fatal("accepted record does not re-encode to a decodable blob")
			}
			if !recordsEqual(back, rec) || back.CaptureNS != rec.CaptureNS {
				t.Fatal("record changed across re-encode")
			}
			if !bytes.Equal(Encode(back), re) {
				t.Fatal("re-encoded blob is not a fixed point")
			}
		}
	})
}

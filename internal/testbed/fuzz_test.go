package testbed

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/tracestore"
)

// FuzzReplayDecodedRecord: every record tracestore.Decode accepts —
// what a store file or a peer's /v1/trace PUT can deliver — must
// survive traceFromRecord and a replay on a compiled Bulldozer
// platform without panicking. The fuzzer builds the record from raw
// energy and issue words plus a periodic decomposition, and it goes
// through Encode and Decode, so only records the decoder accepts reach
// replay.
func FuzzReplayDecodedRecord(f *testing.F) {
	p := Bulldozer()
	cp, err := p.Compile()
	if err != nil {
		f.Fatal(err)
	}
	rc := storeRunConfig(f, p, "fuzz", 36)
	tr, err := cp.buildTrace(rc)
	if err != nil {
		f.Fatal(err)
	}
	ident := func(w uint64) uint64 { return w }
	rec := recordFromTrace(tr)
	f.Add(wordBytes(rec.Energy, math.Float64bits), wordBytes(rec.Issues, ident),
		rec.Periodic, int64(rec.HeadLen), int64(rec.PeriodLen))
	f.Fuzz(func(t *testing.T, energy, issues []byte, periodic bool, head, period int64) {
		rec := &tracestore.Record{
			Energy:   bytesWords(energy, math.Float64frombits),
			Issues:   bytesWords(issues, ident),
			Periodic: periodic, HeadLen: int(head), PeriodLen: int(period),
		}
		dec, ok := tracestore.Decode(tracestore.Encode(rec))
		if !ok {
			return
		}
		cp.replay(traceFromRecord(dec), rc)
	})
}

// wordBytes and bytesWords convert between word slices and the fuzzer's
// little-endian byte strings; a trailing partial word is dropped.
func wordBytes[T any](ws []T, bits func(T) uint64) []byte {
	b := make([]byte, 0, 8*len(ws))
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint64(b, bits(w))
	}
	return b
}

func bytesWords[T any](b []byte, from func(uint64) T) []T {
	ws := make([]T, 0, len(b)/8)
	for ; len(b) >= 8; b = b[8:] {
		ws = append(ws, from(binary.LittleEndian.Uint64(b)))
	}
	return ws
}

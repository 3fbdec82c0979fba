package dist

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/testbed"
)

// FuzzDecodeUnit: decodeUnit must survive any JSON a coordinator (or
// an impostor) can send without panicking, and a unit it accepts must
// re-encode losslessly: encodeUnit of the decoded run configs decodes
// to equal run configs, and encoding those again reproduces the same
// wire unit (the canonical form is a fixed point).
func FuzzDecodeUnit(f *testing.F) {
	rcs := distSlate(f, 2)
	rcs[1].Dither = []testbed.DitherSpec{{Core: 1, PeriodCycles: 64, PadCycles: 2}}
	rcs[1].RecordWaveform = true
	u, err := encodeUnit(3, 1, rcs, 4)
	if err != nil {
		f.Fatal(err)
	}
	blob, err := json.Marshal(u)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var wu WireUnit
		if json.Unmarshal(data, &wu) != nil {
			return
		}
		rcs, err := decodeUnit(&wu)
		if err != nil {
			return
		}
		re, err := encodeUnit(wu.ID, wu.Batch, rcs, wu.Lanes)
		if err != nil {
			t.Fatalf("accepted unit does not re-encode: %v", err)
		}
		back, err := decodeUnit(re)
		if err != nil {
			t.Fatalf("re-encoded unit does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, rcs) {
			t.Fatalf("run configs changed across re-encode:\n got %+v\nwant %+v", back, rcs)
		}
		again, err := encodeUnit(re.ID, re.Batch, back, re.Lanes)
		if err != nil {
			t.Fatalf("canonical unit does not re-encode: %v", err)
		}
		if !reflect.DeepEqual(again, re) {
			t.Fatalf("wire unit not a fixed point:\nfirst  %+v\nsecond %+v", re, again)
		}
	})
}

// FuzzDecodeResult: decodeResult must survive any JSON slot outcome
// without panicking and return exactly one of a measurement and an
// error, so the merge never sees a slot that is both or neither.
func FuzzDecodeResult(f *testing.F) {
	m, err := compiled(f).Run(distSlate(f, 1)[0])
	if err != nil {
		f.Fatal(err)
	}
	blob, err := json.Marshal(WireResult{M: m})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var wr WireResult
		if json.Unmarshal(data, &wr) != nil {
			return
		}
		m, err := decodeResult(wr)
		if (m == nil) == (err == nil) {
			t.Fatalf("decodeResult(%s) = (%v, %v), want exactly one set", data, m, err)
		}
	})
}

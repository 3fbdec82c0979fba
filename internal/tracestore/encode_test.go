package tracestore

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// shapeRecords enumerates every Record shape the codec must carry
// exactly: empty, unsupported, aperiodic, periodic with and without a
// head, adversarial float patterns (NaN payloads, infinities, negative
// zero, denormals) and issue words exercising every varint width.
// Records whose Energy and Issues lengths differ are not a legal shape:
// TestV2RejectsMismatchedLengths holds the decoder to refusing them.
func shapeRecords() map[string]*Record {
	nan := math.Float64frombits(0x7ff8_dead_beef_0001) // NaN with payload
	shapes := map[string]*Record{
		"empty":       {},
		"unsupported": {Unsupported: true, Done: true},
		"aperiodic": {
			Energy: []float64{1.25, 1.25, 3.5, -0.0, 2.75},
			Issues: []uint64{0, 1, 1, 7, 1 << 40},
			Done:   true,
		},
		"periodic-headless": {
			Energy:   []float64{2.0, 2.5, 2.0, 2.5},
			Issues:   []uint64{3, 5, 3, 5},
			Periodic: true, PeriodLen: 4,
		},
		"single-cycle": {
			Energy: []float64{math.Inf(1)}, Issues: []uint64{math.MaxUint64},
		},
		"float-zoo": {
			Energy: []float64{
				0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
				nan, math.NaN(), 5e-324, -5e-324, math.MaxFloat64,
				math.SmallestNonzeroFloat64, 1, 1, 1,
			},
			Issues: make([]uint64, 13),
		},
		"capture-ns": {
			Energy:    []float64{1, 1},
			Issues:    []uint64{1, 1},
			CaptureNS: 123_456_789_012,
		},
		"full": sampleRecord(257, 42),
	}
	shapes["full"].CaptureNS = 9999
	withHead := sampleRecord(96, 7)
	withHead.HeadLen, withHead.PeriodLen = 13, 83
	shapes["periodic-with-head"] = withHead
	return shapes
}

func recordsIdentical(t *testing.T, name string, got, want *Record) {
	t.Helper()
	if !recordsEqual(got, want) {
		t.Errorf("%s: record changed across encode/decode", name)
	}
	if got.CaptureNS != want.CaptureNS {
		t.Errorf("%s: CaptureNS %d != %d", name, got.CaptureNS, want.CaptureNS)
	}
}

func TestV2RoundTripAllShapes(t *testing.T) {
	for name, want := range shapeRecords() {
		blob := Encode(want)
		if !bytes.HasPrefix(blob, []byte(magic2)) {
			t.Fatalf("%s: Encode did not emit a v2 record", name)
		}
		got, ok := Decode(blob)
		if !ok {
			t.Fatalf("%s: v2 blob failed to decode", name)
		}
		recordsIdentical(t, name, got, want)
		// Determinism: same record, same bytes.
		if !bytes.Equal(blob, Encode(want)) {
			t.Errorf("%s: Encode is nondeterministic", name)
		}
	}
}

// v1Size is the size of rec in the legacy flat v1 format, the
// baseline the v2 compression ratio is measured against: a 264-byte
// frame (magic, 30 fixed-width header and counter words, the cycle
// count, the checksum) plus 16 bytes per cycle.
func v1Size(rec *Record) int { return 264 + 16*len(rec.Energy) }

// v1Blob fabricates rec in the legacy v1 layout an older binary wrote:
// magic, fixed-width little-endian words, the two per-cycle arrays and
// an FNV-1a checksum over everything before it.
func v1Blob(rec *Record) []byte {
	var flags uint64
	for i, f := range []bool{rec.Done, rec.Unsupported, rec.Periodic} {
		if f {
			flags |= 1 << i
		}
	}
	words := []uint64{flags, uint64(rec.HeadLen), uint64(rec.PeriodLen)}
	words = append(words, rec.EndStats[:]...)
	words = append(words, rec.RefStats[:]...)
	words = append(words, rec.PerStats[:]...)
	words = append(words, rec.EndRetired, rec.RefRetired, rec.PerRetired, uint64(len(rec.Energy)))
	for _, e := range rec.Energy {
		words = append(words, math.Float64bits(e))
	}
	words = append(words, rec.Issues...)
	b := []byte("AUDTRC1\n")
	for _, w := range words {
		b = appendU64(b, w)
	}
	return appendU64(b, fnv1a(b))
}

// TestV1IsAMiss: the legacy v1 codec is gone, so a checksum-valid v1
// record is a version-skew miss — Decode refuses it, a Store unlinks
// the file and the caller's recapture overwrites it as v2.
func TestV1IsAMiss(t *testing.T) {
	want := sampleRecord(64, 5)
	blob := v1Blob(want)
	if len(blob) != v1Size(want) {
		t.Fatalf("v1Size %d disagrees with the v1 layout's %d bytes", v1Size(want), len(blob))
	}
	if _, ok := Decode(blob); ok {
		t.Fatal("Decode accepted a v1 record")
	}

	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("old key")
	if err := os.WriteFile(s.path(key), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("v1 file on disk served as a hit")
	}
	if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
		t.Fatalf("v1 file not unlinked after the miss: %v", err)
	}
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("miss after the v2 rewrite")
	}
	recordsIdentical(t, "rewritten", got, want)
}

// TestV2CorruptionIsAMiss hammers a v2 blob: every bit flip and every
// truncation length must decode as a miss, never a wrong record or a
// panic, and a Store must unlink the damaged file.
func TestV2CorruptionIsAMiss(t *testing.T) {
	rec := sampleRecord(48, 3)
	pristine := Encode(rec)
	for i := 0; i < len(pristine)*8; i++ {
		blob := append([]byte(nil), pristine...)
		blob[i/8] ^= 1 << (i % 8)
		if got, ok := Decode(blob); ok && !recordsEqual(got, rec) {
			t.Fatalf("bit flip %d decoded to a different record", i)
		}
	}
	for n := 0; n < len(pristine); n++ {
		if _, ok := Decode(pristine[:n]); ok {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}

	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("k")
	if err := s.Put(key, rec); err != nil {
		t.Fatal(err)
	}
	p := s.path(key)
	if err := os.WriteFile(p, pristine[:len(pristine)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("truncated v2 record served as a hit")
	}
	if _, err := os.Stat(p); err == nil {
		t.Fatal("truncated v2 record left on disk")
	}
}

func TestRawBlobAPI(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("raw key")
	rec := sampleRecord(80, 11)
	rec.CaptureNS = 42
	if err := s.Put(key, rec); err != nil {
		t.Fatal(err)
	}
	addr := Addr(key)
	blob, ok := s.GetRaw(addr)
	if !ok {
		t.Fatal("GetRaw miss after Put")
	}
	if !bytes.Equal(blob, Encode(rec)) {
		t.Fatal("GetRaw returned different bytes than Put wrote")
	}

	// PutRaw into a second store round-trips through Get — the wire
	// transfer path: disk bytes are wire bytes.
	s2, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.PutRaw(addr, blob); err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(key)
	if !ok {
		t.Fatal("miss after PutRaw")
	}
	recordsIdentical(t, "raw", got, rec)

	// v1 blobs are refused on the way in and missed on the way out: a
	// v1 file left on disk is unlinked, not served.
	if err := s2.PutRaw(addr, v1Blob(rec)); err == nil {
		t.Error("PutRaw accepted a v1 blob")
	}
	if err := os.WriteFile(s2.addrPath(addr), v1Blob(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.GetRaw(addr); ok {
		t.Error("v1 file served via GetRaw")
	}
	if _, err := os.Stat(s2.addrPath(addr)); !os.IsNotExist(err) {
		t.Errorf("v1 file not unlinked after the GetRaw miss: %v", err)
	}
	if err := s2.PutRaw(addr, blob); err != nil {
		t.Fatal(err)
	}

	// Hostile inputs: bad addresses and undecodable blobs are rejected
	// before touching the filesystem.
	for _, bad := range []string{
		"", "short", "../../../../etc/passwd",
		"ZZ" + addr[2:], addr[:63] + "G", addr + "00",
	} {
		if err := s2.PutRaw(bad, blob); err == nil {
			t.Errorf("PutRaw accepted address %q", bad)
		}
		if _, ok := s2.GetRaw(bad); ok {
			t.Errorf("GetRaw served address %q", bad)
		}
	}
	if err := s2.PutRaw(addr, blob[:len(blob)/2]); err == nil {
		t.Error("PutRaw accepted a truncated blob")
	}
	if err := s2.PutRaw(addr, nil); err == nil {
		t.Error("PutRaw accepted an empty blob")
	}
}

// TestV2RejectsMismatchedLengths pins a trust-boundary invariant:
// replay walks Energy and Issues in lockstep, so a checksum-valid v2
// blob carrying streams of different lengths (which Encode will happily
// serialise) must decode as a miss and be refused by PutRaw — the path
// behind the coordinator's /v1/trace PUT — instead of reaching a worker
// whose replay would panic on it.
func TestV2RejectsMismatchedLengths(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	aperiodic := sampleRecord(64, 9)
	aperiodic.Periodic = false
	aperiodic.Issues = aperiodic.Issues[:3]
	periodic := sampleRecord(64, 9) // head 16 + period 48
	periodic.Issues = append(periodic.Issues, 7)
	for name, rec := range map[string]*Record{
		"issues-longer-than-energy": {Energy: []float64{1}, Issues: []uint64{1, 2, 3, 4}},
		"energy-longer-than-issues": {Energy: []float64{1, 2, 3, 4}, Issues: []uint64{9}},
		"no-issues":                 {Energy: []float64{1, 2}},
		"aperiodic-short-issues":    aperiodic,
		"periodic-extra-issue":      periodic,
	} {
		blob := Encode(rec)
		if _, ok := Decode(blob); ok {
			t.Errorf("%s: Decode accepted len(Issues)=%d != len(Energy)=%d", name, len(rec.Issues), len(rec.Energy))
		}
		key := []byte(name)
		if err := s.PutRaw(Addr(key), blob); err == nil {
			t.Errorf("%s: PutRaw stored a record with mismatched stream lengths", name)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("%s: refused record served as a hit", name)
		}
	}
}

// TestV2CompressionOnPeriodicTrace checks the codec pulls its weight on
// the workload it was built for: a long repetitive per-cycle stream,
// the shape Brent-periodic stressmark traces take. The ≥4× acceptance
// bar on real corpus traces lives in the root ratio test; this is the
// unit-level floor.
func TestV2CompressionOnPeriodicTrace(t *testing.T) {
	const n = 4096
	rec := &Record{
		Energy:   make([]float64, n),
		Issues:   make([]uint64, n),
		Periodic: true, HeadLen: 96, PeriodLen: n - 96, Done: true,
	}
	for i := range rec.Energy {
		rec.Energy[i] = 2.5 + 0.25*float64(i%17)
		rec.Issues[i] = uint64(0b1011 << (i % 3))
	}
	v2 := len(Encode(rec))
	v1 := v1Size(rec)
	if ratio := float64(v1) / float64(v2); ratio < 4 {
		t.Errorf("v2 compression ratio %.2f× on periodic trace (v1=%dB v2=%dB), want ≥4×",
			ratio, v1, v2)
	}
}

func BenchmarkTraceEncodeV2(b *testing.B) {
	const n = 65536
	rec := &Record{
		Energy:   make([]float64, n),
		Issues:   make([]uint64, n),
		Periodic: true, HeadLen: 128, PeriodLen: n - 128, Done: true,
	}
	for i := range rec.Energy {
		rec.Energy[i] = 2.5 + 0.25*float64(i%23)
		rec.Issues[i] = uint64(i % 5)
	}
	blob := Encode(rec)
	b.SetBytes(int64(16 * n)) // v1 payload bytes processed per op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := Encode(rec)
		if dec, ok := Decode(out); !ok || len(dec.Energy) != n {
			b.Fatal("round trip failed")
		}
	}
	b.ReportMetric(float64(v1Size(rec))/float64(len(blob)), "ratio")
}

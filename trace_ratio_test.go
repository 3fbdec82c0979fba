package repro

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/tracestore"
)

// TestTraceCompressionOnCorpus is the acceptance bar for the v2 trace
// record format: captured on the committed regression corpus — real
// stressmark traces, not synthetic streams — the compressed records
// must be at least 4× smaller than the legacy v1 flat encoding they
// replace. The ratio is measured on the actual store files a warm
// distributed search would move over /v1/trace.
// v1Size is the size of rec in the legacy flat v1 encoding: a 264-byte
// frame plus 16 bytes (an energy float and an issue word) per cycle.
func v1Size(rec *tracestore.Record) int { return 264 + 16*len(rec.Energy) }

func TestTraceCompressionOnCorpus(t *testing.T) {
	db, err := corpus.Open(seedCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := db.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("seed corpus is empty")
	}

	dir := t.TempDir()
	store, err := tracestore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	byPlatform := map[string][]*corpus.Entry{}
	for _, e := range entries {
		byPlatform[e.Platform] = append(byPlatform[e.Platform], e)
	}
	for platform, group := range byPlatform {
		p, err := corpus.ResolvePlatform(platform)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		cp.SetTraceStore(store)
		for _, e := range group {
			rc, err := e.RunConfig(p.Chip)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cp.Run(rc); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
		}
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("corpus replay captured no trace records")
	}
	var v1Total, v2Total int64
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rec, ok := tracestore.Decode(blob)
		if !ok {
			t.Fatalf("%s: stored record does not decode", filepath.Base(f))
		}
		v2Total += int64(len(blob))
		v1Total += int64(v1Size(rec))
	}
	ratio := float64(v1Total) / float64(v2Total)
	t.Logf("corpus traces: %d records, v1 %d B → v2 %d B (%.1f×)",
		len(files), v1Total, v2Total, ratio)
	if ratio < 4 {
		t.Errorf("v2 compression on corpus traces is %.2f×, want ≥ 4×", ratio)
	}
}

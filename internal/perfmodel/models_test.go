package perfmodel

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hetjpeg/internal/platform"
)

// TestCommittedModelsRoundTrip pins the committed fits to Save's
// encoding: each file parses and re-saves to identical bytes, so a
// `go generate` refit diffs only where the fit itself changed. Default
// serves every Table 1 machine from them.
func TestCommittedModelsRoundTrip(t *testing.T) {
	entries, err := modelFiles.ReadDir("models")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(platform.All()) {
		t.Fatalf("%d committed fits, want one per Table 1 machine", len(entries))
	}
	for _, e := range entries {
		want, err := modelFiles.ReadFile("models/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		m, err := parse(want)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		path := filepath.Join(t.TempDir(), e.Name())
		if err := m.Save(path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: parse + Save does not reproduce the committed bytes", e.Name())
		}
	}
	for _, spec := range platform.All() {
		m, err := Default(spec)
		if err != nil {
			t.Fatal(err)
		}
		if m.Platform != spec.Name || m.ChunkRows <= 0 || len(m.Subs) != 3 {
			t.Errorf("%s: committed fit is %q, chunk %d rows, %d sub-models", spec.Name, m.Platform, m.ChunkRows, len(m.Subs))
		}
	}
	if _, err := Default(platform.Embedded()); err == nil {
		t.Error("a platform outside Table 1 got a committed fit")
	}
}

// TestCommittedGTX560MatchesBenchmarkCopy keeps the benchmark's private
// copy of the GTX 560 fit equal to the committed one.
func TestCommittedGTX560MatchesBenchmarkCopy(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "benchmark", "model_gtx560.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := modelFiles.ReadFile("models/gtx560.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("models/gtx560.json and benchmark/model_gtx560.json differ")
	}
}

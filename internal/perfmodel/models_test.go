package perfmodel

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestCommittedModelsRoundTrip pins the committed fits to Save's
// encoding: each file parses and re-saves to identical bytes, so a
// `go generate` refit diffs only where the fit itself changed. The
// embedded files are exactly the ones `repro fit` writes, one per
// machine in Fitted, and Default serves each of those machines.
func TestCommittedModelsRoundTrip(t *testing.T) {
	entries, err := modelFiles.ReadDir("models")
	if err != nil {
		t.Fatal(err)
	}
	var files, fitted []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	for _, spec := range Fitted() {
		fitted = append(fitted, FileName(spec))
	}
	slices.Sort(fitted)
	if !slices.Equal(files, fitted) {
		t.Fatalf("committed fits %v, want %v (the files repro fit writes)", files, fitted)
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
		if !bytes.Equal(saved(t, m), want) {
			t.Errorf("%s: parse + Save does not reproduce the committed bytes", e.Name())
		}
	}
	for _, spec := range Fitted() {
		m, err := Default(spec)
		if err != nil {
			t.Fatal(err)
		}
		if m.Platform != spec.Name || m.ChunkRows <= 0 || len(m.Subs) != 3 {
			t.Errorf("%s: committed fit is %q, chunk %d rows, %d sub-models", spec.Name, m.Platform, m.ChunkRows, len(m.Subs))
		}
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

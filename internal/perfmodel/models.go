package perfmodel

import (
	"embed"
	"encoding/json"
	"fmt"
	"sync"

	"hetjpeg/internal/platform"
)

// The Section 5.1 fit of each Table 1 machine, profiled once offline by
// cmd/profile and committed as Model.Save wrote it. The fit reads no
// clock and no random source, so a refit reproduces these bytes; rerun
// the generator after changing the cost model, the training corpus or
// the regression, and commit the diff.
//
//go:generate go run hetjpeg/cmd/profile -platform "GT 430" -out models/gt430.json
//go:generate go run hetjpeg/cmd/profile -platform "GTX 560" -out models/gtx560.json
//go:generate go run hetjpeg/cmd/profile -platform "GTX 680" -out models/gtx680.json

//go:embed models/*.json
var modelFiles embed.FS

// committed parses the embedded fits on first use, keyed by platform
// name.
var committed = sync.OnceValues(func() (map[string]*Model, error) {
	entries, err := modelFiles.ReadDir("models")
	if err != nil {
		return nil, err
	}
	ms := make(map[string]*Model, len(entries))
	for _, e := range entries {
		data, err := modelFiles.ReadFile("models/" + e.Name())
		if err != nil {
			return nil, err
		}
		m, err := parse(data)
		if err != nil {
			return nil, fmt.Errorf("perfmodel: models/%s: %w", e.Name(), err)
		}
		ms[m.Platform] = m
	}
	return ms, nil
})

// parse decodes a model written by Save.
func parse(data []byte) (*Model, error) {
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Default returns the committed fit for spec's machine. Every caller
// shares the returned model, which must not be modified. A platform
// outside Table 1 has no committed fit; fit one with Train.
func Default(spec *platform.Spec) (*Model, error) {
	ms, err := committed()
	if err != nil {
		return nil, err
	}
	m, ok := ms[spec.Name]
	if !ok {
		return nil, fmt.Errorf("perfmodel: no committed fit for platform %q (fit one with Train)", spec.Name)
	}
	return m, nil
}

package perfmodel

import (
	"embed"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"hetjpeg/internal/platform"
)

// The Section 5.1 fit of each machine in Fitted, profiled once offline
// by `repro fit` and committed as Model.Save wrote it. One build of the
// training corpus serves every machine. The fit reads no clock and no
// random source, so a refit reproduces these bytes; rerun the generator
// after changing the cost model, the training corpus or the regression,
// and commit the diff.
//
//go:generate go run hetjpeg/cmd/repro fit -outdir models

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

// Fitted lists the machines with a committed fit, in the order
// `repro fit` writes them: the three Table 1 machines, then Embedded.
func Fitted() []*platform.Spec {
	return append(platform.All(), platform.Embedded())
}

// FileName is the name of spec's committed fit under models/: the
// platform name lower-cased without spaces ("GTX 560" is gtx560.json).
func FileName(spec *platform.Spec) string {
	return strings.ToLower(strings.ReplaceAll(spec.Name, " ", "")) + ".json"
}

// Default returns the committed fit for spec's machine. Every caller
// shares the returned model, which must not be modified. A machine
// outside Fitted has no committed fit; add it to Fitted and rerun
// `go generate ./internal/perfmodel`.
func Default(spec *platform.Spec) (*Model, error) {
	ms, err := committed()
	if err != nil {
		return nil, err
	}
	m, ok := ms[spec.Name]
	if !ok {
		return nil, fmt.Errorf("perfmodel: no committed fit for platform %q (add it to perfmodel.Fitted and refit)", spec.Name)
	}
	return m, nil
}

//go:build race

package pool

// Race builds (CI's `go test -race ./...`) fill every slab Get hands
// out, fresh ones included, so code that relies on zeros it did not
// write fails there and not in production.
func init() { poison = true }

// Package missnoterror is the golden input for the missnoterror check: a
// disk-read failure in the cache/store layers must degrade to a miss, never
// surface as an error — the caller's recovery is always recompute-and-
// restore, so propagating the error converts self-healing into failure.
package missnoterror

import (
	"fmt"
	"os"

	"idyll/internal/integrity"
)

// goodMiss degrades every failure to a miss: clean.
func goodMiss(path string) ([]byte, bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	data, err := integrity.Unwrap(raw)
	if err != nil {
		return nil, false
	}
	return data, true
}

// badReturn surfaces the read error directly.
func badReturn(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err // want `disk-read error from os\.ReadFile escapes as a return value`
	}
	return raw, nil
}

// badWrapped rewraps the error before surfacing it — still an escape.
func badWrapped(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err) // want `disk-read error from os\.ReadFile escapes as a return value`
	}
	return data, nil
}

// badUnwrap surfaces the envelope-verification error.
func badUnwrap(raw []byte) ([]byte, error) {
	data, err := integrity.Unwrap(raw)
	if err != nil {
		return nil, err // want `disk-read error from integrity\.Unwrap escapes as a return value`
	}
	return data, nil
}

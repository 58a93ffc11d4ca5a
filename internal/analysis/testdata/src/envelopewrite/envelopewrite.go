// Package envelopewrite is the golden input for the envelopewrite check:
// disk writes in the cache/store layers must flow through integrity.Wrap
// in the same function.
package envelopewrite

import (
	"os"

	"idyll/internal/integrity"
)

// good wraps before writing: clean.
func good(path string, payload []byte) error {
	return os.WriteFile(path, integrity.Wrap(payload), 0o644)
}

// bad writes the raw payload with no envelope.
func bad(path string, payload []byte) error {
	return os.WriteFile(path, payload, 0o644) // want `disk write without integrity\.Wrap`
}

// badFile goes through an *os.File handle (the write-then-rename idiom's
// temp-file half).
func badFile(f *os.File, payload []byte) error {
	_, err := f.Write(payload) // want `disk write without integrity\.Wrap`
	return err
}

// goodFile wraps before handing bytes to the handle: clean.
func goodFile(f *os.File, payload []byte) error {
	_, err := f.Write(integrity.Wrap(payload))
	return err
}

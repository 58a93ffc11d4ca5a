// Package integrity implements the self-describing checksum envelope that
// wraps every result-cache blob at rest, and the hex digest
// carried by the X-Idyll-Checksum header on peer fills.
//
// Envelope layout (41-byte header + payload):
//
//	offset 0  8 bytes  magic "IDYLLSUM"
//	offset 8  1 byte   format version (currently 1)
//	offset 9  32 bytes SHA-256 of the payload
//	offset 41          payload
//
// Unwrap is strict: a blob without the magic is ErrNotEnvelope and a blob
// whose digest disagrees is ErrChecksum. Callers treat both as "this entry
// does not exist" — quarantine the file and recompute — because every blob
// the stack writes is wrapped, so anything else on disk is damage.
package integrity

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

var magic = []byte("IDYLLSUM")

// Version is the current envelope format version.
const Version = 1

const headerLen = 8 + 1 + sha256.Size

var (
	// ErrNotEnvelope marks a blob that does not carry the envelope header.
	ErrNotEnvelope = errors.New("integrity: not a checksum envelope")
	// ErrChecksum marks a blob whose payload disagrees with its digest.
	ErrChecksum = errors.New("integrity: checksum mismatch")
)

// Wrap prefixes payload with the envelope header.
func Wrap(payload []byte) []byte {
	out := make([]byte, 0, headerLen+len(payload))
	out = append(out, magic...)
	out = append(out, Version)
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// Unwrap verifies blob and returns its payload. The payload aliases blob's
// backing array; copy it if blob will be reused.
func Unwrap(blob []byte) ([]byte, error) {
	if len(blob) < headerLen || !bytes.Equal(blob[:len(magic)], magic) {
		return nil, ErrNotEnvelope
	}
	if v := blob[len(magic)]; v != Version {
		return nil, fmt.Errorf("%w: unknown version %d", ErrNotEnvelope, v)
	}
	payload := blob[headerLen:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], blob[len(magic)+1:headerLen]) {
		return nil, ErrChecksum
	}
	return payload, nil
}

// SumHex returns the lowercase hex SHA-256 of payload, the wire form used
// by the X-Idyll-Checksum header.
func SumHex(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// VerifyHex reports whether payload matches a hex digest from the wire.
func VerifyHex(payload []byte, sumHex string) bool {
	return SumHex(payload) == strings.ToLower(strings.TrimSpace(sumHex))
}

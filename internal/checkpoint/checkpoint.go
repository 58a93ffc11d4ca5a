// Package checkpoint defines the versioned, deterministic binary format the
// simulator's warmup checkpoints are written in. A checkpoint is the full
// simulator state at a quiescent point — the engine clocks, every TLB and
// page-walk-cache line in recency order, the page tables with their in-PTE
// directory bits, the IRMB, the driver's residency and frame-allocation
// state, per-link interconnect state, and the run's one stats collector — so a
// run restored from it and a run that never checkpointed are byte-identical
// from that point on.
//
// The codec is deliberately primitive: fixed-width little-endian integers and
// length-prefixed byte strings, appended in a fixed order that each
// component's SaveState/RestoreState pair owns. There is no field tagging and
// no skipping — any layout change is a new format version, and readers reject
// versions they do not understand (see DESIGN.md "Checkpoint format &
// forking" for the version policy). Determinism of the byte stream follows
// from determinism of the serialization order: every component iterates its
// state in a canonical order (sorted map keys, fixed component order,
// MRU-first cache ways), never in Go's randomized map order.
//
// The package is part of the deterministic core (idyllvet CorePackages):
// encoding must not consult wall time, global rand, goroutines, or unordered
// map iteration. The concurrent content-addressed store that caches encoded
// checkpoints is internal/blobstore, outside the core contract.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// magic identifies a checkpoint byte stream.
const magic = "IDYLLCKP"

// Version is the current format version. Readers accept exactly this
// version: the format has no compatibility machinery, because checkpoints
// are content-addressed cache entries — a version bump simply misses the
// cache and regenerates, it never needs to migrate old bytes.
const Version = 4

// Writer appends values to a checkpoint byte stream. The zero Writer is not
// usable; NewWriter stamps the magic/version header.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the format header already written.
func NewWriter() *Writer {
	w := &Writer{buf: make([]byte, 0, 4096)}
	w.buf = append(w.buf, magic...)
	w.U32(Version)
	return w
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as an int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes appends a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Finish returns the completed byte stream.
func (w *Writer) Finish() []byte { return w.buf }

// Len reports the current stream length in bytes.
func (w *Writer) Len() int { return len(w.buf) }

// Reader consumes a checkpoint byte stream written by Writer. Errors are
// sticky: after the first decode failure every subsequent read returns the
// zero value, so RestoreState implementations can decode unconditionally and
// check Err once at the end. All reads are bounds-checked against the
// remaining input before consuming anything, so truncated or corrupt streams
// (including hostile length fields) fail cleanly without allocating.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader validates the header and returns a Reader positioned after it.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("checkpoint: stream too short (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:len(magic)], []byte(magic)) {
		return nil, fmt.Errorf("checkpoint: bad magic %q", data[:len(magic)])
	}
	v := binary.LittleEndian.Uint32(data[len(magic):])
	if v != Version {
		return nil, fmt.Errorf("checkpoint: format version %d, want %d", v, Version)
	}
	return &Reader{buf: data, off: len(magic) + 4}, nil
}

// need reserves n bytes of input, setting the sticky error on truncation.
func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.err = fmt.Errorf("checkpoint: truncated stream at offset %d (need %d of %d bytes)",
			r.off, n, len(r.buf)-r.off)
		return false
	}
	return true
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written with Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads a bool. Any byte other than 0 or 1 is a decode error.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Failf("invalid bool encoding")
		return false
	}
}

// Bytes reads a length-prefixed byte string. The returned slice aliases the
// input buffer; callers that retain it must copy.
func (r *Reader) Bytes() []byte {
	n := int(r.U32())
	if !r.need(n) {
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Count reads a u32 element count and validates it against the remaining
// input, assuming each element occupies at least minBytes. This bounds the
// slices RestoreState implementations pre-allocate, so a corrupt count field
// cannot trigger a huge allocation.
func (r *Reader) Count(minBytes int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n < 0 || n > (len(r.buf)-r.off)/minBytes {
		r.Failf("element count %d exceeds remaining input", n)
		return 0
	}
	return n
}

// Failf records a semantic decode error (bad invariant, mismatched
// configuration) with the same sticky behaviour as a truncation.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

// Err reports the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Finish reports the first decode error, or an error if the stream was not
// fully consumed — a layout mismatch between SaveState and RestoreState
// always fails loudly rather than silently misaligning.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("checkpoint: %d trailing bytes after decode", len(r.buf)-r.off)
	}
	return nil
}

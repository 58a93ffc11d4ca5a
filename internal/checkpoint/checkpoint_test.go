package checkpoint

import (
	"encoding/binary"
	"strings"
	"testing"
)

// Every primitive the codec offers must round-trip through a Writer/Reader
// pair in order, with Finish confirming full consumption.
func TestRoundTrip(t *testing.T) {
	w := NewWriter()
	w.U8(0xab)
	w.U16(0xcdef)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.I64(-42)
	w.Int(-7)
	w.Bool(true)
	w.Bool(false)
	w.Bytes([]byte{1, 2, 3})
	w.Bytes(nil)
	w.String("idyll")
	w.String("")

	r, err := NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if v := r.U8(); v != 0xab {
		t.Fatalf("U8 = %#x", v)
	}
	if v := r.U16(); v != 0xcdef {
		t.Fatalf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %#x", v)
	}
	if v := r.U64(); v != 0x0123456789abcdef {
		t.Fatalf("U64 = %#x", v)
	}
	if v := r.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := r.Int(); v != -7 {
		t.Fatalf("Int = %d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round-trip failed")
	}
	if v := r.Bytes(); string(v) != "\x01\x02\x03" {
		t.Fatalf("Bytes = %v", v)
	}
	if v := r.Bytes(); len(v) != 0 {
		t.Fatalf("empty Bytes = %v", v)
	}
	if v := r.String(); v != "idyll" {
		t.Fatalf("String = %q", v)
	}
	if v := r.String(); v != "" {
		t.Fatalf("empty String = %q", v)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(nil); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, err := NewReader([]byte("NOTMAGIC\x01\x00\x00\x00")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader([]byte("IDYLLCKP\xff\x00\x00\x00")); err == nil {
		t.Fatal("future version accepted")
	}
	stale := binary.LittleEndian.AppendUint32([]byte(magic), Version-1)
	if _, err := NewReader(stale); err == nil {
		t.Fatal("previous version accepted")
	}
}

// The sticky error contract: the first failure poisons every later read, and
// reads after failure return zero values without advancing.
func TestReaderStickyError(t *testing.T) {
	w := NewWriter()
	w.U8(7)
	r, err := NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if r.U8() != 7 {
		t.Fatal("first read wrong")
	}
	if r.U64() != 0 || r.Err() == nil {
		t.Fatal("read past end must fail")
	}
	first := r.Err()
	if r.U32() != 0 || r.Bool() || r.String() != "" {
		t.Fatal("poisoned reads must return zero values")
	}
	if r.Err() != first {
		t.Fatal("later failures overwrote the first error")
	}
	if r.Finish() != first {
		t.Fatal("Finish must surface the first error")
	}
}

func TestReaderRejectsTrailingBytes(t *testing.T) {
	w := NewWriter()
	w.U8(1)
	w.U8(2)
	r, err := NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	r.U8()
	if err := r.Finish(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

func TestReaderRejectsBadBool(t *testing.T) {
	w := NewWriter()
	w.U8(2)
	r, err := NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if r.Bool() || r.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

// A hostile count or length field must fail the decode without allocating
// anything near the claimed size.
func TestReaderBoundsHostileLengths(t *testing.T) {
	w := NewWriter()
	w.U32(1 << 30) // claimed element count, nothing behind it
	r, err := NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Count(8); n != 0 || r.Err() == nil {
		t.Fatalf("hostile count passed: n=%d err=%v", n, r.Err())
	}

	w = NewWriter()
	w.U32(1 << 30) // claimed byte-string length
	r, err = NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if b := r.Bytes(); b != nil || r.Err() == nil {
		t.Fatal("hostile Bytes length passed")
	}
}

// FuzzReader drives the decoder with arbitrary bytes through the same access
// pattern RestoreState implementations use: decode unconditionally, check the
// sticky error at the end. Nothing may panic, loops are bounded by Count, and
// a failed reader must stay failed.
func FuzzReader(f *testing.F) {
	w := NewWriter()
	w.U8(1)
	w.U16(2)
	w.U32(3)
	w.U64(4)
	w.I64(-5)
	w.Int(6)
	w.Bool(true)
	w.Bytes([]byte("abc"))
	w.String("def")
	w.U32(2) // a valid count for the Count/U64 loop below
	w.U64(7)
	w.U64(8)
	f.Add(w.Finish())
	f.Add(NewWriter().Finish()) // header only
	f.Add([]byte("IDYLLCKP"))   // truncated header

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(data)
		if err != nil {
			return
		}
		_ = r.U8()
		_ = r.U16()
		_ = r.U32()
		_ = r.U64()
		_ = r.I64()
		_ = r.Int()
		_ = r.Bool()
		_ = r.Bytes()
		_ = r.String()
		n := r.Count(8)
		for i := 0; i < n; i++ {
			_ = r.U64()
		}
		if r.Err() != nil {
			if r.U64() != 0 || r.U8() != 0 || r.Bool() || r.Bytes() != nil {
				t.Fatal("poisoned reader returned non-zero values")
			}
			if r.Err() == nil {
				t.Fatal("sticky error cleared itself")
			}
		}
		_ = r.Finish()
	})
}

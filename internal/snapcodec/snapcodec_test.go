package snapcodec

import (
	"bytes"
	"net/netip"
	"testing"
	"time"
)

func TestRoundTrip(t *testing.T) {
	w := NewAppendWriter(nil)
	w.Uvarint(0)
	w.Uvarint(1 << 60)
	w.Varint(-42)
	w.U8(7)
	w.u64(1 << 63)
	w.Bool(true)
	w.Bool(false)
	w.F64(3.25)
	w.Duration(-5 * time.Second)
	w.Time(time.Unix(123, 456).UTC())
	w.Bytes([]byte("hello"))
	w.Bytes(nil)
	w.String("world")
	w.Prefix(netip.MustParsePrefix("10.1.0.0/16"))
	w.Prefix(netip.MustParsePrefix("2001:db8::/32"))

	r := NewReader(w.Appended())
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("uvarint = %d", got)
	}
	if got := r.Uvarint(); got != 1<<60 {
		t.Fatalf("uvarint = %d", got)
	}
	if got := r.Varint(); got != -42 {
		t.Fatalf("varint = %d", got)
	}
	if got := r.U8(); got != 7 {
		t.Fatalf("u8 = %d", got)
	}
	if got := r.u64(); got != 1<<63 {
		t.Fatalf("u64 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools")
	}
	if got := r.F64(); got != 3.25 {
		t.Fatalf("f64 = %v", got)
	}
	if got := r.Duration(); got != -5*time.Second {
		t.Fatalf("duration = %v", got)
	}
	if got := r.Time(); !got.Equal(time.Unix(123, 456)) {
		t.Fatalf("time = %v", got)
	}
	if got := r.Bytes(); string(got) != "hello" {
		t.Fatalf("bytes = %q", got)
	}
	if got := r.Bytes(); got != nil {
		t.Fatalf("nil bytes = %q", got)
	}
	if got := r.String(); got != "world" {
		t.Fatalf("string = %q", got)
	}
	if got := r.Prefix(); got != netip.MustParsePrefix("10.1.0.0/16") {
		t.Fatalf("prefix = %v", got)
	}
	if got := r.Prefix(); got != netip.MustParsePrefix("2001:db8::/32") {
		t.Fatalf("prefix = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedLength is the OOM guard: a length prefix claiming more
// bytes than the section holds must fail before any allocation.
func TestOversizedLength(t *testing.T) {
	w := NewAppendWriter(nil)
	w.Uvarint(1 << 40) // forged length, only a few bytes follow
	w.U8(1)
	r := NewReader(w.Appended())
	if got := r.Bytes(); got != nil {
		t.Fatalf("bytes = %v, want nil", got)
	}
	if r.Err() != errShortBuffer {
		t.Fatalf("err = %v, want errShortBuffer", r.Err())
	}
	// Sticky: everything after the failure is a zero-valued no-op.
	if got := r.u64(); got != 0 {
		t.Fatalf("post-error u64 = %d", got)
	}
}

func TestTruncation(t *testing.T) {
	w := NewAppendWriter(nil)
	w.u64(12345)
	w.String("payload")
	full := w.Appended()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		_ = r.u64()
		_ = r.String()
		if err := r.Done(); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestLeftoverBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.U8()
	if err := r.Done(); err != errRange {
		t.Fatalf("err = %v, want errRange", err)
	}
}

func TestBadBool(t *testing.T) {
	r := NewReader([]byte{2})
	r.Bool()
	if r.Err() != errRange {
		t.Fatalf("err = %v, want errRange", r.Err())
	}
}

func TestCount(t *testing.T) {
	w := NewAppendWriter(nil)
	w.Uvarint(1 << 50)
	r := NewReader(w.Appended())
	if n := r.Count(8); n != 0 || r.Err() != errShortBuffer {
		t.Fatalf("count = %d err = %v", n, r.Err())
	}
}

// TestBlockWriterMatchesAppend: a block Writer's blocks, joined, are the
// bytes an append Writer encodes for the same fields, across block
// boundaries and for a field larger than the largest block; and View
// reads a string in place.
func TestBlockWriterMatchesAppend(t *testing.T) {
	big := bytes.Repeat([]byte{0xab}, maxBlock+3)
	fill := func(w *Writer) {
		for i := 0; i < 100_000; i++ {
			w.Uvarint(uint64(i) << (i % 50))
			w.u64(uint64(i))
			w.String("border")
			w.Prefix(netip.MustParsePrefix("2001:db8::/32"))
			if i == 50_000 {
				w.Bytes(big)
			}
		}
	}
	a, b := NewAppendWriter(nil), NewBlockWriter()
	fill(a)
	fill(b)
	blocks := b.Blocks()
	if len(blocks) < 3 {
		t.Fatalf("%d blocks for %d bytes", len(blocks), len(a.Appended()))
	}
	for _, blk := range blocks {
		if cap(blk) > maxBlock && cap(blk) != len(big) {
			t.Fatalf("a block of %d bytes: only the %d-byte field may exceed %d", cap(blk), len(big), maxBlock)
		}
	}
	if got := bytes.Join(blocks, nil); !bytes.Equal(got, a.Appended()) {
		t.Fatalf("joined blocks (%d bytes) differ from the appended bytes (%d)", len(got), len(a.Appended()))
	}

	r := NewReader(a.Appended())
	r.Uvarint()
	r.u64()
	if v := r.View(); string(v) != "border" {
		t.Fatalf("View = %q, want %q", v, "border")
	}
}

// Package snapcodec is the little-endian binary codec shared by every
// layer's Checkpoint/Restore seam (netsim, topology, bgp, core, wire) and by the internal/snapshot container that frames their
// payloads into a versioned, checksummed image.
//
// Design rules, chosen for a crash-consistency format:
//
//   - Sticky errors. The Reader latches the first error and turns every
//     later call into a no-op, so seam code reads as a straight-line
//     field list with a single Err() check at the end. The Writer only
//     appends to a byte slice (or a series of blocks) and cannot fail.
//   - Bounded reads. A Reader decodes from an in-memory section whose
//     checksum has already been verified; every length prefix is
//     checked against the bytes actually remaining before any
//     allocation, so a forged multi-gigabyte length fails with
//     errShortBuffer instead of an OOM.
//   - No reflection, no interfaces, stdlib only. The format is a flat
//     field list; versioning happens one level up, in the snapshot
//     container.
package snapcodec

import (
	"encoding/binary"
	"errors"
	"math"
	"net/netip"
	"time"
)

// errShortBuffer is returned (via Reader.Err) when a decode runs past
// the end of the section, including a length prefix larger than the
// bytes remaining.
var errShortBuffer = errors.New("snapcodec: truncated section")

// errRange is returned when a decoded value is structurally impossible
// (e.g. a varint that does not terminate, or an invalid prefix).
var errRange = errors.New("snapcodec: value out of range")

// Writer encodes fields by appending them to one byte slice or, made
// by NewBlockWriter, to a series of blocks.
type Writer struct {
	out []byte
	// Block mode: full holds the filled blocks, out the one being filled.
	blocks bool
	full   [][]byte
}

// NewAppendWriter returns a Writer that appends to b (nil, or a reused
// buffer's b[:0]); Appended returns the result. The Writer itself does
// not escape, so encoding into a reused buffer allocates only to grow it.
func NewAppendWriter(b []byte) *Writer { return &Writer{out: b} }

// Appended returns everything an append Writer encoded so far.
func (w *Writer) Appended() []byte { return w.out }

// Block sizes: each block is twice its predecessor, within these bounds;
// a field larger than the bound gets a block of its own size.
const (
	minBlock = 4 << 10
	maxBlock = 1 << 20
)

// NewBlockWriter returns a Writer that fills a series of blocks instead
// of growing one slice, so encoding n bytes allocates about n bytes:
// growing a slice by append allocates and copies about five times what
// it ends up holding. Blocks returns the result.
func NewBlockWriter() *Writer { return &Writer{blocks: true} }

// Blocks returns everything a block Writer encoded so far, in order.
func (w *Writer) Blocks() [][]byte {
	if len(w.out) == 0 {
		return w.full
	}
	return append(w.full[:len(w.full):len(w.full)], w.out)
}

// room makes sure a block Writer's current block has room for n more
// bytes.
func (w *Writer) room(n int) {
	if w.blocks && cap(w.out)-len(w.out) < n {
		w.nextBlock(n)
	}
}

func (w *Writer) nextBlock(n int) {
	if len(w.out) > 0 {
		w.full = append(w.full, w.out)
	}
	w.out = make([]byte, 0, max(min(2*cap(w.out), maxBlock), minBlock, n))
}

// Uvarint writes v with variable-length encoding.
func (w *Writer) Uvarint(v uint64) {
	w.room(binary.MaxVarintLen64)
	w.out = binary.AppendUvarint(w.out, v)
}

// Varint writes v with zig-zag variable-length encoding.
func (w *Writer) Varint(v int64) {
	w.room(binary.MaxVarintLen64)
	w.out = binary.AppendVarint(w.out, v)
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	w.room(1)
	w.out = append(w.out, v)
}

// u64 writes a fixed-width little-endian uint64.
func (w *Writer) u64(v uint64) {
	w.room(8)
	w.out = binary.LittleEndian.AppendUint64(w.out, v)
}

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 writes a float64 as its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.u64(math.Float64bits(v)) }

// Duration writes a time.Duration (netsim.Time).
func (w *Writer) Duration(d time.Duration) { w.Varint(int64(d)) }

// Time writes an absolute wall-clock instant as UnixNano.
func (w *Writer) Time(t time.Time) { w.Varint(t.UnixNano()) }

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.room(len(b))
	w.out = append(w.out, b...)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.room(len(s))
	w.out = append(w.out, s...)
}

// Prefix writes a netip.Prefix as addr-length, addr bytes, mask bits.
func (w *Writer) Prefix(p netip.Prefix) {
	w.room(18)
	if p.Addr().Is4() {
		b := p.Addr().As4()
		w.out = append(append(w.out, 4), b[:]...)
	} else {
		b := p.Addr().As16()
		w.out = append(append(w.out, 16), b[:]...)
	}
	w.out = append(w.out, uint8(p.Bits()))
}

// Reader decodes fields from an in-memory section with a sticky error.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps a fully-buffered section payload.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode error encountered.
func (r *Reader) Err() error { return r.err }

// remaining returns the number of undecoded bytes.
func (r *Reader) remaining() int { return len(r.b) - r.off }

// Done returns r.Err(), or errRange if undecoded bytes remain — a
// section must be consumed exactly.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return errRange
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.remaining() < n {
		r.err = errShortBuffer
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// Uvarint decodes a variable-length uint64.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		if n == 0 {
			r.err = errShortBuffer
		} else {
			r.err = errRange
		}
		return 0
	}
	r.off += n
	return v
}

// Varint decodes a zig-zag variable-length int64.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		if n == 0 {
			r.err = errShortBuffer
		} else {
			r.err = errRange
		}
		return 0
	}
	r.off += n
	return v
}

// U8 decodes one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// u64 decodes a fixed-width little-endian uint64.
func (r *Reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Bool decodes a boolean; any byte other than 0 or 1 is errRange.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if r.err == nil {
			r.err = errRange
		}
		return false
	}
}

// F64 decodes an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.u64()) }

// Duration decodes a time.Duration.
func (r *Reader) Duration() time.Duration { return time.Duration(r.Varint()) }

// Time decodes an absolute wall-clock instant written by Writer.Time.
func (r *Reader) Time() time.Time {
	ns := r.Varint()
	if r.err != nil {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// length decodes a length prefix and validates it against the bytes
// remaining, so callers can pre-size slices without trusting input.
func (r *Reader) length() int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.remaining()) {
		r.err = errShortBuffer
		return 0
	}
	return int(v)
}

// Count decodes a count prefix for fixed-size records of at least
// perItem bytes each, bounding it by the bytes remaining.
func (r *Reader) Count(perItem int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if perItem < 1 {
		perItem = 1
	}
	if v > uint64(r.remaining()/perItem) {
		r.err = errShortBuffer
		return 0
	}
	return int(v)
}

// Bytes decodes a length-prefixed byte slice (copied out).
func (r *Reader) Bytes() []byte {
	n := r.length()
	b := r.take(n)
	if b == nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// View decodes a length-prefixed byte string as a slice of the section
// itself, valid while the section is: a comparison or a map lookup
// with it copies nothing.
func (r *Reader) View() []byte {
	return r.take(r.length())
}

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	n := r.length()
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Prefix decodes a netip.Prefix written by Writer.Prefix.
func (r *Reader) Prefix() netip.Prefix {
	alen := r.U8()
	var addr netip.Addr
	switch alen {
	case 4:
		b := r.take(4)
		if b == nil {
			return netip.Prefix{}
		}
		addr = netip.AddrFrom4([4]byte(b))
	case 16:
		b := r.take(16)
		if b == nil {
			return netip.Prefix{}
		}
		addr = netip.AddrFrom16([16]byte(b))
	default:
		if r.err == nil {
			r.err = errRange
		}
		return netip.Prefix{}
	}
	bits := int(r.U8())
	if r.err != nil {
		return netip.Prefix{}
	}
	p := netip.PrefixFrom(addr, bits)
	if !p.IsValid() {
		r.err = errRange
		return netip.Prefix{}
	}
	return p
}

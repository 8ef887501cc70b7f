// Package transport carries controller frames between DISCS nodes
// over real sockets: stdlib TCP+TLS with length-prefixed frames and
// per-peer asynchronous send workers (bounded queues, coalesced writes,
// drop-on-error with backoff redial), for running DISCS as a
// multi-process service.
//
// Its delivery contract is that of the securechan record layer: frames
// may be lost or arrive late, but arrive intact and at most once per
// send. Nothing here retries — the controller state machines already
// re-drive idempotent exchanges on loss (they were built for a
// fault-injecting simulator), so the transport is allowed to drop a
// frame whenever a connection is down and simply report it.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame is one transport unit: a frame kind (the core control plane
// defines the values — handshake hellos, protected records, data-plane
// payloads), the sender's controller name, and an opaque payload.
type Frame struct {
	Kind uint8
	From string
	Data []byte
}

// Handler consumes inbound frames. TCP invokes it from its connection
// goroutines; serialization onto the controller's event loop is the
// host's responsibility.
type Handler func(Frame)

// Stream framing shared by the TCP implementation and its tests:
// a 4-byte big-endian payload length, then kind (1 byte), sender-name
// length (1 byte), sender name, and the payload bytes.

// maxFrameSize caps the payload length a reader accepts, so a
// misbehaving peer cannot make a node allocate unbounded memory from
// a forged length prefix.
const maxFrameSize = 1 << 20

// maxFromLen bounds the sender-name field of the wire format.
const maxFromLen = 255

// errFrameTooBig reports a frame exceeding maxFrameSize (or a name
// exceeding maxFromLen) on either the write or the read side.
var errFrameTooBig = errors.New("transport: frame too big")

// AppendFrame appends the wire encoding of f to dst and returns the
// extended slice.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if len(f.From) > maxFromLen {
		return dst, fmt.Errorf("sender name %d bytes: %w", len(f.From), errFrameTooBig)
	}
	n := 2 + len(f.From) + len(f.Data)
	if n > maxFrameSize {
		return dst, fmt.Errorf("frame payload %d bytes: %w", n, errFrameTooBig)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(n))
	dst = append(dst, hdr[:]...)
	dst = append(dst, f.Kind, byte(len(f.From)))
	dst = append(dst, f.From...)
	dst = append(dst, f.Data...)
	return dst, nil
}

// frameReader reads one connection's frame stream. Buffering means a
// train of coalesced frames is pulled from the kernel in one read
// instead of two syscalls per frame; the length header is read into
// reused storage, and the sender name is kept from frame to frame, so
// a connection carrying one peer's frames allocates only the payloads.
type frameReader struct {
	r    io.Reader
	hdr  [4]byte
	from string
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// ReadFrame reads one frame from r, enforcing maxFrameSize.
func ReadFrame(r io.Reader) (Frame, error) {
	fr := frameReader{r: r}
	return fr.next()
}

// next reads the stream's next frame, enforcing maxFrameSize.
func (fr *frameReader) next() (Frame, error) {
	hdr := fr.hdr[:]
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrameSize {
		return Frame{}, fmt.Errorf("frame payload %d bytes: %w", n, errFrameTooBig)
	}
	if n < 2 {
		return Frame{}, fmt.Errorf("transport: frame payload %d bytes, want >= 2", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		return Frame{}, err
	}
	fromLen := int(buf[1])
	if 2+fromLen > len(buf) {
		return Frame{}, fmt.Errorf("transport: sender name %d bytes overruns %d-byte payload", fromLen, n)
	}
	if name := buf[2 : 2+fromLen]; string(name) != fr.from {
		fr.from = string(name)
	}
	return Frame{
		Kind: buf[0],
		From: fr.from,
		Data: buf[2+fromLen:],
	}, nil
}

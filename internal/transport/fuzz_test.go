package transport

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzReadFrame: ReadFrame parses bytes straight off a peer's socket.
// Whatever arrives, it must not panic, and it must not allocate more
// than maxFrameSize on the way to rejecting a forged length or a
// sender name that overruns its payload. A frame it accepts re-encodes
// to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	good, err := AppendFrame(nil, Frame{Kind: 0x81, From: "ctrl.as1", Data: []byte("train")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-1])             // truncated payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // forged length
	f.Add([]byte{0, 0x10, 0, 0, 1, 0})    // maxFrameSize claimed, 2 bytes sent
	f.Add([]byte{0, 0, 0, 2, 9, 200})     // sender name overruns the payload
	f.Add([]byte{0, 0, 0, 1, 0})          // payload below the 2-byte minimum
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr, err := ReadFrame(r)
		runtime.ReadMemStats(&after)
		// The slack covers the error value and the sender-name string.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxFrameSize+4096 {
			t.Fatalf("ReadFrame allocated %d bytes, bound %d", grew, maxFrameSize)
		}
		if err != nil {
			return
		}
		wire, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(wire, consumed) {
			t.Fatalf("re-encoding %x, consumed %x", wire, consumed)
		}
	})
}

// FuzzFrameRoundTrip: every frame AppendFrame encodes decodes back to
// the original, consuming exactly its encoding.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(0), "ctrl.as1", []byte("hello"))
	f.Add(uint8(0xff), "", []byte{})
	f.Add(uint8(0x80), "x", bytes.Repeat([]byte{0xaa}, 4096))

	f.Fuzz(func(t *testing.T, kind uint8, from string, data []byte) {
		want := Frame{Kind: kind, From: from, Data: data}
		wire, err := AppendFrame(nil, want)
		if err != nil {
			return // over maxFromLen or maxFrameSize
		}
		r := bytes.NewReader(wire)
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("encoded frame does not decode: %v", err)
		}
		if got.Kind != want.Kind || got.From != want.From || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("decoded %+v, want %+v", got, want)
		}
		if r.Len() != 0 {
			t.Fatalf("%d bytes left after one frame", r.Len())
		}
	})
}

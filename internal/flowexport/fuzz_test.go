package flowexport

import (
	"testing"
	"time"
)

// FuzzUnmarshal: arbitrary export datagrams must never panic, and
// accepted ones must re-marshal byte-identically.
func FuzzUnmarshal(f *testing.F) {
	recs := []Record{{
		Key:     key("10.0.0.1", "192.0.2.9", 17, 64500),
		Packets: 12, Bytes: 3400,
		First: time.Unix(100, 0).UTC(), Last: time.Unix(107, 0).UTC(),
	}}
	b, _ := marshal(recs)
	f.Add(b)
	f.Add([]byte("DFX1\x00\x00"))
	f.Add([]byte("nope"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := unmarshal(data)
		if err != nil {
			return
		}
		out, err := marshal(got)
		if err != nil {
			t.Fatalf("decoded records fail to marshal: %v", err)
		}
		again, err := unmarshal(out)
		if err != nil {
			t.Fatalf("re-marshal fails to unmarshal: %v", err)
		}
		if len(again) != len(got) {
			t.Fatal("record count changed across round trip")
		}
	})
}

package bgp

import (
	"bytes"
	"testing"
)

// FuzzDecodeDISCSAd holds the DISCS-Ad attribute decoder, which parses
// data carried Internet-wide (§IV-B), to its contract: no input
// panics, an input of at least four bytes (the origin ASN) decodes and
// re-encodes to itself, and a shorter one is an error.
func FuzzDecodeDISCSAd(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 3})
	f.Add(DISCSAd{Origin: 64500, Controller: "ctrl.as64500"}.encode())
	f.Add(DISCSAd{Origin: 1}.encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		ad, err := decodeDISCSAd(b)
		if len(b) < 4 {
			if err == nil {
				t.Fatalf("decodeDISCSAd(%x) = %+v, want an error", b, ad)
			}
			return
		}
		if err != nil {
			t.Fatalf("decodeDISCSAd(%x): %v", b, err)
		}
		if got := ad.encode(); !bytes.Equal(got, b) {
			t.Fatalf("decodeDISCSAd(%x) re-encodes to %x", b, got)
		}
	})
}

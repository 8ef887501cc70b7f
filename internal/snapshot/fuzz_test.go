package snapshot

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"

	"discs/internal/bgp"
)

// FuzzRead: arbitrary bytes through the image decoder must never
// panic or allocate unboundedly — corruption surfaces as a typed
// error. Valid images must decode and restore cleanly. Seeded like
// the core ctrl-frame corpus: one valid image plus the classic
// corruptions (truncation, bit flip, forged giant length prefix).
func FuzzRead(f *testing.F) {
	good := encode(f, buildWorld(f, 0, 0))
	f.Add(good)
	f.Add(good[:len(good)/3])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	forged := append([]byte(nil), good...)
	for i := 0; i < 8; i++ {
		forged[14+i] = 0xff // first section's length prefix → ~2^64
	}
	f.Add(forged)
	f.Add([]byte("DISCSNAP"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A structurally valid image must restore or fail cleanly —
		// Restore validates cross-section invariants with typed
		// errors, never a panic.
		world, err := Restore(img, Options{})
		if err != nil {
			return
		}
		if world.Eng != nil {
			world.Eng.Close()
		}
	})
}

// FuzzRestoreBGP: arbitrary bytes as the bgp section of an otherwise
// valid sharded image. Restore must refuse them with *formatError —
// never a panic, never an allocation beyond the section's size — or
// build a world whose routing still runs: a link fails and recovers.
func FuzzRestoreBGP(f *testing.F) {
	world := buildWorld(f, 2, 1)
	ad := bgp.NewDISCSAdAttr(bgp.DISCSAd{Origin: 4, Controller: "ctrl.as4"})
	if err := world.Net.Speakers[4].ReOriginate(netip.MustParsePrefix("10.4.0.0/16"), ad); err != nil {
		f.Fatal(err)
	}
	if err := world.Net.Converge(); err != nil {
		f.Fatal(err)
	}
	img, err := Read(bytes.NewReader(encode(f, world)))
	if err != nil {
		f.Fatal(err)
	}
	if w, err := Restore(img, Options{Workers: 1}); err != nil {
		f.Fatalf("the unmodified image does not restore: %v", err)
	} else {
		w.Eng.Close()
	}
	good := img.raw(secBGP)
	f.Add(good)
	f.Add(good[:len(good)/2])
	for _, at := range []int{0, 7, len(good) / 3, len(good) - 9} {
		bad := append([]byte(nil), good...)
		bad[at] ^= 0x55
		f.Add(bad)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sections := make(map[uint16][]byte, len(img.sections))
		for k, v := range img.sections {
			sections[k] = v
		}
		sections[secBGP] = data
		w, err := Restore(&Image{Version: img.Version, sections: sections}, Options{Workers: 1})
		if err != nil {
			var fe *formatError
			if !errors.As(err, &fe) {
				t.Fatalf("err = %v, want *formatError", err)
			}
			return
		}
		defer w.Eng.Close()
		for _, restore := range []bool{false, true} {
			if restore {
				w.Net.RestoreLink(4, 2)
			} else {
				w.Net.FailLink(4, 2)
			}
			if err := w.Net.Converge(); err != nil {
				t.Fatal(err)
			}
		}
		for _, sp := range w.Net.Speakers {
			for _, p := range sp.Routes() {
				if _, ok := sp.LocRib(p); !ok {
					t.Fatalf("AS%d lists %v without a Loc-RIB entry", sp.ASN, p)
				}
			}
			sp.KnownAds()
		}
	})
}

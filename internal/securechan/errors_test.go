package securechan

import (
	"errors"
	"slices"
	"testing"
)

// TestErrorChains pins the sentinel wrapped by every error path of the
// handshake, resumption and record layers, so transport code can rely
// on errors.Is across refactors.
func TestErrorChains(t *testing.T) {
	alice, err := NewIdentity("ctrl.as1", detRand(1))
	if err != nil {
		t.Fatal(err)
	}
	bob, err := NewIdentity("ctrl.as2", detRand(2))
	if err != nil {
		t.Fatal(err)
	}

	// Handshake frame-length errors.
	if _, _, err := Respond(bob, alice.Public(), make([]byte, helloLen-1), detRand(3)); !errors.Is(err, errBadFrame) {
		t.Fatalf("short hello: err = %v, want errBadFrame", err)
	}
	ini, err := NewInitiator(alice, bob.Public(), detRand(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ini.Finish(make([]byte, ReplyLen+1)); !errors.Is(err, errBadFrame) {
		t.Fatalf("long reply: err = %v, want errBadFrame", err)
	}

	// Handshake authentication: a reply MACed by the wrong responder
	// identity fails with errAuth.
	mallory, err := NewIdentity("ctrl.evil", detRand(5))
	if err != nil {
		t.Fatal(err)
	}
	forged, _, err := Respond(mallory, alice.Public(), ini.Hello(), detRand(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ini.Finish(forged); !errors.Is(err, errAuth) {
		t.Fatalf("forged reply: err = %v, want errAuth", err)
	}

	// A static key that is not 32 bytes is a malformed frame.
	if _, err := NewInitiator(alice, bob.Public()[:31], detRand(10)); !errors.Is(err, errBadFrame) {
		t.Fatalf("short peer static key: err = %v, want errBadFrame", err)
	}
	if _, _, err := Respond(bob, append(alice.Public(), 0), ini.Hello(), detRand(11)); !errors.Is(err, errBadFrame) {
		t.Fatalf("long initiator static key: err = %v, want errBadFrame", err)
	}

	// A low-order peer key fails authentication, whichever of a side's
	// multiplications meets it: the client's ephemeral key (Respond's
	// second and third), the initiator's static key (Respond's fourth),
	// the server's ephemeral key (Finish's second) and the responder's
	// static key (Finish's first and third).
	low := mustHex32(t, lowOrderPoints[2])[:]
	for _, c := range []struct {
		what string
		err  func() error
	}{
		{"low-order client ephemeral", func() error {
			_, _, err := Respond(bob, alice.Public(), append(slices.Clone(low), ini.Hello()[32:]...), detRand(12))
			return err
		}},
		{"low-order initiator static", func() error {
			_, _, err := Respond(bob, low, ini.Hello(), detRand(13))
			return err
		}},
		{"low-order server ephemeral", func() error {
			i, err := NewInitiator(alice, bob.Public(), detRand(14))
			if err != nil {
				return err
			}
			reply, _, err := Respond(bob, alice.Public(), i.Hello(), detRand(15))
			if err != nil {
				return err
			}
			_, err = i.Finish(append(slices.Clone(low), reply[32:]...))
			return err
		}},
		{"low-order responder static", func() error {
			i, err := NewInitiator(alice, low, detRand(16))
			if err != nil {
				return err
			}
			_, err = i.Finish(make([]byte, ReplyLen))
			return err
		}},
	} {
		if err := c.err(); !errors.Is(err, errAuth) {
			t.Fatalf("%s: err = %v, want errAuth", c.what, err)
		}
	}

	// Record layer: truncated, replayed, and corrupted records.
	client, server := handshake(t)
	if _, err := server.Open(make([]byte, overhead-1)); !errors.Is(err, errBadFrame) {
		t.Fatalf("short record: err = %v, want errBadFrame", err)
	}
	rec := client.Seal([]byte("campaign"))
	if _, err := server.Open(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Open(rec); !errors.Is(err, errReplay) {
		t.Fatalf("replayed record: err = %v, want errReplay", err)
	}
	bad := append([]byte(nil), client.Seal([]byte("campaign 2"))...)
	bad[len(bad)-1] ^= 0x80
	if _, err := server.Open(bad); !errors.Is(err, errAuth) {
		t.Fatalf("corrupted record: err = %v, want errAuth", err)
	}

	// Resumption: frame lengths and a responder without the secret.
	secret := client.ResumptionSecret()
	if _, _, err := ResumeRespond(secret, make([]byte, ResumeHelloLen+3), detRand(7)); !errors.Is(err, errBadFrame) {
		t.Fatalf("bad resume hello: err = %v, want errBadFrame", err)
	}
	res, err := NewResumer(secret, detRand(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Finish(make([]byte, resumeReplyLen-2)); !errors.Is(err, errBadFrame) {
		t.Fatalf("bad resume reply: err = %v, want errBadFrame", err)
	}
	var stale [16]byte
	stale[0] = 0xff
	reply, _, err := ResumeRespond(stale, res.Hello(), detRand(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Finish(reply); !errors.Is(err, errAuth) {
		t.Fatalf("stale-secret resumption: err = %v, want errAuth", err)
	}

	// The sentinels are distinct classes: no accidental wrapping of one
	// in another.
	for _, e := range []error{errBadFrame, errAuth, errReplay} {
		n := 0
		for _, other := range []error{errBadFrame, errAuth, errReplay} {
			if errors.Is(e, other) {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("sentinel %v matches %d sentinels, want 1", e, n)
		}
	}
}

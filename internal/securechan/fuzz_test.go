package securechan

import "testing"

// FuzzOpen: arbitrary records against an established session must
// never panic and never be accepted (the only valid records come from
// the peer's Seal, which the fuzzer cannot forge without the key).
func FuzzOpen(f *testing.F) {
	client, server := handshakePair(f)
	valid := client.Seal([]byte("seed"))
	f.Add(valid)
	f.Add([]byte{})
	f.Add(make([]byte, overhead))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Fresh receiving state per input so sequence numbers do not
		// couple inputs: re-handshake cheaply via resumption.
		r, err := NewResumer(server.ResumptionSecret(), detRand(1))
		if err != nil {
			t.Fatal(err)
		}
		reply, srv, err := ResumeRespond(server.ResumptionSecret(), r.Hello(), detRand(2))
		if err != nil {
			t.Fatal(err)
		}
		cli, err := r.Finish(reply)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Open(data); err == nil {
			// Only a record sealed by cli can open; the fuzzer would
			// need the session key to construct one.
			if plain, err2 := srv.Open(cli.Seal([]byte("x"))); err2 != nil || string(plain) != "x" {
				t.Fatal("session broken after accepting forged record")
			}
			t.Fatalf("forged record accepted: %x", data)
		}
	})
}

// FuzzHandshakeFrames: junk hello/reply frames must never panic the
// handshake functions.
func FuzzHandshakeFrames(f *testing.F) {
	alice, _ := NewIdentity("a", detRand(1))
	bob, _ := NewIdentity("b", detRand(2))
	ini, _ := NewInitiator(alice, bob.Public(), detRand(3))
	f.Add(ini.Hello())
	reply, _, _ := Respond(bob, alice.Public(), ini.Hello(), detRand(4))
	f.Add(reply)
	f.Fuzz(func(t *testing.T, data []byte) {
		Respond(bob, alice.Public(), data, detRand(5))
		ini2, _ := NewInitiator(alice, bob.Public(), detRand(6))
		ini2.Finish(data)
	})
}

// handshakePair is a fuzz-friendly variant of the test helper.
func handshakePair(f *testing.F) (*Session, *Session) {
	alice, err := NewIdentity("a", detRand(1))
	if err != nil {
		f.Fatal(err)
	}
	bob, err := NewIdentity("b", detRand(2))
	if err != nil {
		f.Fatal(err)
	}
	ini, err := NewInitiator(alice, bob.Public(), detRand(3))
	if err != nil {
		f.Fatal(err)
	}
	reply, srv, err := Respond(bob, alice.Public(), ini.Hello(), detRand(4))
	if err != nil {
		f.Fatal(err)
	}
	cli, err := ini.Finish(reply)
	if err != nil {
		f.Fatal(err)
	}
	return cli, srv
}

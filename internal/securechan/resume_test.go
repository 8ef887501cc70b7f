package securechan

import (
	"bytes"
	"testing"
)

// fullHandshake establishes a full session pair for resumption tests.
func fullHandshake(t testing.TB) (client, server *Session) {
	alice, err := NewIdentity("a", detRand(1))
	if err != nil {
		t.Fatal(err)
	}
	bob, err := NewIdentity("b", detRand(2))
	if err != nil {
		t.Fatal(err)
	}
	ini, err := NewInitiator(alice, bob.Public(), detRand(3))
	if err != nil {
		t.Fatal(err)
	}
	reply, srv, err := Respond(bob, alice.Public(), ini.Hello(), detRand(4))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := ini.Finish(reply)
	if err != nil {
		t.Fatal(err)
	}
	return cli, srv
}

func TestResumptionSecretShared(t *testing.T) {
	cli, srv := fullHandshake(t)
	if cli.ResumptionSecret() != srv.ResumptionSecret() {
		t.Fatal("ends derived different resumption secrets")
	}
	if cli.ResumptionSecret() == ([16]byte{}) {
		t.Fatal("resumption secret is zero")
	}
}

func TestResumeRoundTrip(t *testing.T) {
	cli, _ := fullHandshake(t)
	secret := cli.ResumptionSecret()

	r, err := NewResumer(secret, detRand(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hello()) != ResumeHelloLen {
		t.Fatalf("hello len = %d", len(r.Hello()))
	}
	reply, srv2, err := ResumeRespond(secret, r.Hello(), detRand(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) != resumeReplyLen {
		t.Fatalf("reply len = %d", len(reply))
	}
	cli2, err := r.Finish(reply)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("resumed record")
	got, err := srv2.Open(cli2.Seal(msg))
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("resumed session broken: %q %v", got, err)
	}
	back, err := cli2.Open(srv2.Seal([]byte("reply")))
	if err != nil || string(back) != "reply" {
		t.Fatalf("reverse direction broken: %q %v", back, err)
	}
}

func TestResumeWrongSecretFails(t *testing.T) {
	cli, _ := fullHandshake(t)
	secret := cli.ResumptionSecret()
	var wrong [16]byte
	wrong[0] = ^secret[0]

	r, _ := NewResumer(secret, detRand(10))
	reply, _, err := ResumeRespond(wrong, r.Hello(), detRand(11))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finish(reply); err == nil {
		t.Fatal("resumption with wrong responder secret accepted")
	}
}

func TestResumeFrameLengthValidation(t *testing.T) {
	cli, _ := fullHandshake(t)
	secret := cli.ResumptionSecret()
	if _, _, err := ResumeRespond(secret, make([]byte, 5), detRand(1)); err == nil {
		t.Fatal("short hello accepted")
	}
	r, _ := NewResumer(secret, detRand(2))
	if _, err := r.Finish(make([]byte, 3)); err == nil {
		t.Fatal("short reply accepted")
	}
}

func TestResumedSessionsAreFresh(t *testing.T) {
	cli, _ := fullHandshake(t)
	secret := cli.ResumptionSecret()
	mk := func(seedA, seedB int64) (*Session, *Session) {
		r, _ := NewResumer(secret, detRand(seedA))
		reply, srv, err := ResumeRespond(secret, r.Hello(), detRand(seedB))
		if err != nil {
			t.Fatal(err)
		}
		c, err := r.Finish(reply)
		if err != nil {
			t.Fatal(err)
		}
		return c, srv
	}
	c1, _ := mk(20, 21)
	c2, s2 := mk(30, 31)
	// Different nonces → different record keys: a record from session 1
	// must not open in session 2 (cross-session replay protection).
	rec := c1.Seal([]byte("same plaintext"))
	if _, err := s2.Open(rec); err == nil {
		t.Fatal("cross-session record accepted")
	}
	rec2 := c2.Seal([]byte("same plaintext"))
	if bytes.Equal(rec[8:], rec2[8:]) {
		t.Fatal("two resumed sessions produced identical ciphertext")
	}
	// Chained resumption: a resumed session yields its own secret.
	if c2.ResumptionSecret() == secret {
		t.Fatal("resumed session reuses the old secret")
	}
}

// BenchmarkResume vs BenchmarkHandshake quantifies the §VI-C session
// cache: resumption skips all ECDH operations.
func BenchmarkResume(b *testing.B) {
	cli, _ := fullHandshake(b)
	secret := cli.ResumptionSecret()
	rnd := detRand(5)
	for i := 0; i < b.N; i++ {
		r, err := NewResumer(secret, rnd)
		if err != nil {
			b.Fatal(err)
		}
		reply, _, err := ResumeRespond(secret, r.Hello(), rnd)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Finish(reply); err != nil {
			b.Fatal(err)
		}
	}
}

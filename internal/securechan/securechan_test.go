package securechan

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// detRand returns a deterministic entropy source for tests.
func detRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func handshake(t *testing.T) (*Session, *Session) {
	t.Helper()
	alice, err := NewIdentity("ctrl.as1", detRand(1))
	if err != nil {
		t.Fatal(err)
	}
	bob, err := NewIdentity("ctrl.as2", detRand(2))
	if err != nil {
		t.Fatal(err)
	}
	ini, err := NewInitiator(alice, bob.Public(), detRand(3))
	if err != nil {
		t.Fatal(err)
	}
	reply, serverSess, err := Respond(bob, alice.Public(), ini.Hello(), detRand(4))
	if err != nil {
		t.Fatal(err)
	}
	clientSess, err := ini.Finish(reply)
	if err != nil {
		t.Fatal(err)
	}
	return clientSess, serverSess
}

func TestHandshakeAndRecords(t *testing.T) {
	client, server := handshake(t)
	msg := []byte("invoke (v=10.0.0.0/24, f=DP, duration=24h)")
	rec := client.Seal(msg)
	if len(rec) != len(msg)+overhead {
		t.Fatalf("record len = %d, want %d", len(rec), len(msg)+overhead)
	}
	got, err := server.Open(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	// Reverse direction.
	rec2 := server.Seal([]byte("accepted"))
	got2, err := client.Open(rec2)
	if err != nil {
		t.Fatal(err)
	}
	if string(got2) != "accepted" {
		t.Fatalf("got %q", got2)
	}
}

func TestRecordConfidentiality(t *testing.T) {
	client, _ := handshake(t)
	msg := []byte("secret key material 0123456789abcdef")
	rec := client.Seal(msg)
	if bytes.Contains(rec, msg[:16]) {
		t.Fatal("plaintext visible in record")
	}
}

func TestRecordTamperDetected(t *testing.T) {
	client, server := handshake(t)
	rec := client.Seal([]byte("hello"))
	rec[9] ^= 1
	if _, err := server.Open(rec); err == nil {
		t.Fatal("tampered record accepted")
	}
}

func TestReplayRejected(t *testing.T) {
	client, server := handshake(t)
	rec := client.Seal([]byte("one"))
	if _, err := server.Open(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Open(rec); err == nil {
		t.Fatal("replayed record accepted")
	}
}

func TestGapSkippedAndStaleRejected(t *testing.T) {
	// Loss tolerance: a record arriving after a gap (its predecessor
	// lost in the network) must open, and the predecessor — now behind
	// the receive window — must be rejected as a replay.
	client, server := handshake(t)
	r1 := client.Seal([]byte("one"))
	r2 := client.Seal([]byte("two"))
	got, err := server.Open(r2)
	if err != nil || string(got) != "two" {
		t.Fatalf("record after a gap rejected: %v", err)
	}
	if _, err := server.Open(r1); err == nil {
		t.Fatal("stale record accepted after the window advanced")
	}
	// The channel keeps working past the gap.
	r3 := client.Seal([]byte("three"))
	if got, err := server.Open(r3); err != nil || string(got) != "three" {
		t.Fatalf("channel dead after gap: %v", err)
	}
}

func TestShortRecordRejected(t *testing.T) {
	_, server := handshake(t)
	if _, err := server.Open(make([]byte, 5)); err == nil {
		t.Fatal("short record accepted")
	}
}

func TestWrongStaticKeyFailsAuth(t *testing.T) {
	alice, _ := NewIdentity("a", detRand(1))
	bob, _ := NewIdentity("b", detRand(2))
	mallory, _ := NewIdentity("m", detRand(66))
	// Mallory initiates pretending to be Alice (sends Alice's expected
	// identity to Bob but uses her own static key).
	ini, err := NewInitiator(mallory, bob.Public(), detRand(3))
	if err != nil {
		t.Fatal(err)
	}
	// Bob believes he is talking to Alice.
	reply, _, err := Respond(bob, alice.Public(), ini.Hello(), detRand(4))
	if err != nil {
		t.Fatal(err) // Respond cannot detect this yet
	}
	// Mallory cannot finish: the static-static DH mismatches so the
	// transcript MAC fails.
	if _, err := ini.Finish(reply); err == nil {
		t.Fatal("impersonation succeeded")
	}
}

func TestWrongResponderDetected(t *testing.T) {
	alice, _ := NewIdentity("a", detRand(1))
	bob, _ := NewIdentity("b", detRand(2))
	eve, _ := NewIdentity("e", detRand(99))
	// Alice initiates to Bob; Eve intercepts and answers.
	ini, _ := NewInitiator(alice, bob.Public(), detRand(3))
	reply, _, err := Respond(eve, alice.Public(), ini.Hello(), detRand(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ini.Finish(reply); err == nil {
		t.Fatal("MITM responder accepted")
	}
}

func TestHandshakeFrameLengths(t *testing.T) {
	alice, _ := NewIdentity("a", detRand(1))
	bob, _ := NewIdentity("b", detRand(2))
	ini, _ := NewInitiator(alice, bob.Public(), detRand(3))
	if len(ini.Hello()) != helloLen {
		t.Fatalf("hello len = %d", len(ini.Hello()))
	}
	reply, _, err := Respond(bob, alice.Public(), ini.Hello(), detRand(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) != ReplyLen {
		t.Fatalf("reply len = %d", len(reply))
	}
	// Bad frame lengths rejected.
	if _, _, err := Respond(bob, alice.Public(), reply, detRand(5)); err == nil {
		t.Fatal("Respond accepted wrong-length hello")
	}
	if _, err := ini.Finish(ini.Hello()); err == nil {
		t.Fatal("Finish accepted wrong-length reply")
	}
}

func TestSessionsDiffer(t *testing.T) {
	// Two handshakes between the same identities with different
	// ephemerals must produce different record keys (forward secrecy).
	alice, _ := NewIdentity("a", detRand(1))
	bob, _ := NewIdentity("b", detRand(2))
	mk := func(seedI, seedR int64) *Session {
		ini, _ := NewInitiator(alice, bob.Public(), detRand(seedI))
		reply, _, err := Respond(bob, alice.Public(), ini.Hello(), detRand(seedR))
		if err != nil {
			t.Fatal(err)
		}
		s, err := ini.Finish(reply)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := mk(10, 11)
	s2 := mk(20, 21)
	r1 := s1.Seal([]byte("same message"))
	r2 := s2.Seal([]byte("same message"))
	if bytes.Equal(r1[8:], r2[8:]) {
		t.Fatal("two sessions produced identical ciphertexts")
	}
}

func TestByteCounters(t *testing.T) {
	client, server := handshake(t)
	rec := client.Seal(make([]byte, 100))
	server.Open(rec)
	if client.BytesSealed != uint64(len(rec)) || server.BytesOpened != uint64(len(rec)) {
		t.Fatalf("counters: sealed %d opened %d", client.BytesSealed, server.BytesOpened)
	}
}

// Property: Seal/Open round-trips arbitrary payloads in order.
func TestPropertySealOpen(t *testing.T) {
	client, server := handshake(t)
	f := func(msgs [][]byte) bool {
		if len(msgs) > 20 {
			msgs = msgs[:20]
		}
		for _, m := range msgs {
			got, err := server.Open(client.Seal(m))
			if err != nil || !bytes.Equal(got, m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSeal1KB(b *testing.B) {
	alice, _ := NewIdentity("a", detRand(1))
	bob, _ := NewIdentity("b", detRand(2))
	ini, _ := NewInitiator(alice, bob.Public(), detRand(3))
	reply, _, _ := Respond(bob, alice.Public(), ini.Hello(), detRand(4))
	sess, _ := ini.Finish(reply)
	msg := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		sess.Seal(msg)
	}
}

func BenchmarkHandshake(b *testing.B) {
	// Connection-setup rate underpins the §VI-C "147 SSL connections
	// per second" controller sizing.
	alice, _ := NewIdentity("a", detRand(1))
	bob, _ := NewIdentity("b", detRand(2))
	rnd := detRand(3)
	for i := 0; i < b.N; i++ {
		ini, err := NewInitiator(alice, bob.Public(), rnd)
		if err != nil {
			b.Fatal(err)
		}
		reply, _, err := Respond(bob, alice.Public(), ini.Hello(), rnd)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ini.Finish(reply); err != nil {
			b.Fatal(err)
		}
	}
}

// errReader fails after n bytes, driving the entropy-error paths.
type errReader struct{ n int }

func (r *errReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, errEntropy
	}
	take := len(p)
	if take > r.n {
		take = r.n
	}
	r.n -= take
	return take, nil
}

var errEntropy = &entropyErr{}

type entropyErr struct{}

func (*entropyErr) Error() string { return "entropy exhausted" }

func TestEntropyFailurePaths(t *testing.T) {
	if _, err := NewIdentity("x", &errReader{}); err == nil {
		t.Fatal("NewIdentity with dead entropy should fail")
	}
	alice, _ := NewIdentity("a", detRand(1))
	bob, _ := NewIdentity("b", detRand(2))
	if _, err := NewInitiator(alice, bob.Public(), &errReader{}); err == nil {
		t.Fatal("NewInitiator with dead entropy should fail")
	}
	// Enough entropy for the ephemeral key but not the nonce.
	if _, err := NewInitiator(alice, bob.Public(), &errReader{n: 32}); err == nil {
		t.Fatal("NewInitiator with partial entropy should fail")
	}
	ini, _ := NewInitiator(alice, bob.Public(), detRand(3))
	if _, _, err := Respond(bob, alice.Public(), ini.Hello(), &errReader{}); err == nil {
		t.Fatal("Respond with dead entropy should fail")
	}
	if _, err := NewResumer([16]byte{}, &errReader{}); err == nil {
		t.Fatal("NewResumer with dead entropy should fail")
	}
	if _, _, err := ResumeRespond([16]byte{}, make([]byte, ResumeHelloLen), &errReader{}); err == nil {
		t.Fatal("ResumeRespond with dead entropy should fail")
	}
}

func TestBadPeerKeys(t *testing.T) {
	alice, _ := NewIdentity("a", detRand(1))
	if _, err := NewInitiator(alice, []byte("short"), detRand(2)); err == nil {
		t.Fatal("bad peer static key accepted")
	}
	bob, _ := NewIdentity("b", detRand(3))
	ini, _ := NewInitiator(alice, bob.Public(), detRand(4))
	if _, _, err := Respond(bob, []byte("short"), ini.Hello(), detRand(5)); err == nil {
		t.Fatal("bad initiator static key accepted")
	}
	// Corrupted ephemeral key in the hello (wrong length).
	if _, _, err := Respond(bob, alice.Public(), make([]byte, helloLen-1), detRand(6)); err == nil {
		t.Fatal("short hello accepted")
	}
}

// TestHandshakeAllocs bounds the allocations of one full handshake,
// NewInitiator + Respond + Finish. It made 70 when every X25519 key and
// secret was a crypto/ecdh object and the key schedule hashed through
// heap buffers; the fallback path, which still builds crypto/ecdh keys,
// must stay under that, and the kernel path, whose keys and secrets are
// arrays, makes 29.
func TestHandshakeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	alice, _ := NewIdentity("a", detRand(1))
	bob, _ := NewIdentity("b", detRand(2))
	apub, bpub := alice.Public(), bob.Public()
	rnd := detRand(3)
	var err error
	n := testing.AllocsPerRun(100, func() {
		var ini *Initiator
		var reply []byte
		if ini, err = NewInitiator(alice, bpub, rnd); err != nil {
			return
		}
		if reply, _, err = Respond(bob, apub, ini.Hello(), rnd); err != nil {
			return
		}
		_, err = ini.Finish(reply)
	})
	if err != nil {
		t.Fatal(err)
	}
	limit := 70.0
	if useKernel {
		limit = 29
	}
	if n > limit {
		t.Fatalf("%v allocations per handshake (kernel %v), want at most %v", n, useKernel, limit)
	}
}

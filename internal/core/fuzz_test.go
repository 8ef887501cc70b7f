package core

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"discs/internal/netsim"
	"discs/internal/securechan"
	"discs/internal/topology"
)

// FuzzDecodeControlMsg: arbitrary bytes through the controller message
// decoder must never panic; a message that decodes re-encodes to one
// that decodes equal; and the framing is strict — an unknown type, a
// trailing byte or a truncation of a valid encoding is refused, no
// decoded count exceeds what the input could hold, and a key-deploy
// always carries a 16-byte key.
func FuzzDecodeControlMsg(f *testing.F) {
	for _, g := range goldenMsgs {
		b, _ := g.m.appendBinary(nil)
		f.Add(b)
	}
	f.Add([]byte{byte(msgInvoke), 7, 1, 200})
	f.Add([]byte(`{"type":"key-deploy","from":1,"key":"AAAA","serial":3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMsg(data)
		if err != nil {
			return
		}
		if m.Type == msgKeyDeploy && len(m.Key) != keyLen {
			t.Fatalf("key-deploy decoded with a %d-byte key", len(m.Key))
		}
		if len(m.Invocations) > len(data)/minInvocationLen {
			t.Fatalf("%d invocations from %d bytes", len(m.Invocations), len(data))
		}
		out, err := m.appendBinary(nil)
		if err != nil {
			t.Fatalf("decoded message fails to encode: %v", err)
		}
		again, err := decodeMsg(out)
		if err != nil {
			t.Fatalf("re-encode fails to decode: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip changed the message: %+v vs %+v", again, m)
		}
		if _, err := decodeMsg(append(out, 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
		for n := 0; n < len(out); n++ {
			if _, err := decodeMsg(out[:n]); err == nil {
				t.Fatalf("truncation to %d of %d bytes accepted", n, len(out))
			}
		}
		for _, bad := range []byte{0, byte(numMsgTypes), 0xff} {
			out[0] = bad
			if _, err := decodeMsg(out); err == nil {
				t.Fatalf("type %d accepted", bad)
			}
		}
		// Validation must be total on decoded invocations.
		for _, inv := range m.Invocations {
			_ = inv.validate()
		}
	})
}

// FuzzParseInvocation: the operator syntax parser must never panic and
// accepted invocations must re-parse from their String form.
func FuzzParseInvocation(f *testing.F) {
	f.Add("10.0.0.0/24:DP")
	f.Add("10.0.0.0/24+10.1.0.0/24:CDP:1h:alarm")
	f.Add("2001:db8::/48:CSP:30m")
	f.Add(":::::")
	f.Fuzz(func(t *testing.T, s string) {
		inv, err := parseInvocation(s)
		if err != nil {
			return
		}
		again, err := parseInvocation(inv.String())
		if err != nil {
			t.Fatalf("String() form %q does not re-parse: %v", inv.String(), err)
		}
		if again.Function != inv.Function || again.Duration != inv.Duration {
			t.Fatalf("round trip changed invocation: %v vs %v", again, inv)
		}
	})
}

// fuzzEnv is a minimal controller with an established inbound session
// from a fake peer, for injecting hand-crafted transport frames. The
// whole setup is deterministic, so the session keys are identical
// across the seed builder and every fuzz iteration — a record sealed
// while building the corpus decrypts inside the fuzz body and reaches
// the control-plane dispatcher.
type fuzzEnv struct {
	c     *Controller
	sim   *netsim.Simulator
	sess  *securechan.Session // peer→controller sealing side
	hello []byte              // a well-formed handshake hello
}

func newFuzzEnv(tb testing.TB) *fuzzEnv {
	tb.Helper()
	sim := netsim.New()
	na, err := sim.AddNode("ctrl.a")
	if err != nil {
		tb.Fatal(err)
	}
	nb, err := sim.AddNode("ctrl.b")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sim.Connect(na, nb, time.Millisecond); err != nil {
		tb.Fatal(err)
	}
	dir := NewDirectory()
	c, err := NewControllerWithOptions(ControllerOptions{
		AS: 1, Name: "ctrl.a", Sim: sim, Node: na, Dir: dir,
		Topo: topology.New(), Config: DefaultConfig(), Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	prng := rand.New(rand.NewSource(2))
	peerID, err := securechan.NewIdentity("ctrl.b", prng)
	if err != nil {
		tb.Fatal(err)
	}
	if err := dir.Register(&DirEntry{Name: "ctrl.b", ASN: 2, Pub: peerID.Public(), node: nb}); err != nil {
		tb.Fatal(err)
	}
	// Run a real handshake from the fake peer: inject its hello, catch
	// the controller's reply at the peer node, finish the session.
	var reply []byte
	nb.SetHandler(netsim.HandlerFunc(func(_ *netsim.Node, _ *netsim.Link, m netsim.Message) {
		if f, ok := m.(*ctrlFrame); ok && f.Kind == frameReply {
			reply = f.Data
		}
	}))
	ini, err := securechan.NewInitiator(peerID, c.id.Public(), prng)
	if err != nil {
		tb.Fatal(err)
	}
	c.receive(nil, nil, &ctrlFrame{Kind: frameHello, From: "ctrl.b", Data: ini.Hello()})
	if _, err := sim.RunAll(); err != nil {
		tb.Fatal(err)
	}
	if reply == nil {
		tb.Fatal("controller never replied to the handshake hello")
	}
	sess, err := ini.Finish(reply)
	if err != nil {
		tb.Fatal(err)
	}
	return &fuzzEnv{c: c, sim: sim, sess: sess, hello: ini.Hello()}
}

// FuzzCtrlFrame: arbitrary transport frames — any kind, any payload —
// injected into a live controller must never panic it. The corpus
// seeds the shapes the fault injector produces in practice: truncated
// frames and netsim.CorruptBytes bit-flips, for every frame kind.
func FuzzCtrlFrame(f *testing.F) {
	env := newFuzzEnv(f)
	rec := env.sess.Seal(mustEncode(&controlMsg{
		Type: msgInvoke, From: 2, Serial: 1,
		Invocations: []Invocation{{
			Prefixes: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/24")},
			Function: DP, Duration: time.Hour,
		}},
	}))
	f.Add(uint8(frameRecord), append([]byte(nil), rec...)) // decrypts, reaches handleMsg
	f.Add(uint8(frameRecord), rec[:len(rec)/2])            // truncated mid-record
	f.Add(uint8(frameRecord), netsim.CorruptBytes(append([]byte(nil), rec...), 0xdecafbad))
	f.Add(uint8(frameHello), append([]byte(nil), env.hello...))
	f.Add(uint8(frameHello), env.hello[:len(env.hello)-1]) // truncated hello
	f.Add(uint8(frameHello), netsim.CorruptBytes(append([]byte(nil), env.hello...), 7))
	f.Add(uint8(frameReply), make([]byte, securechan.ReplyLen)) // forged reply
	f.Add(uint8(frameResumeHello), make([]byte, securechan.ResumeHelloLen))
	f.Add(uint8(frameResumeReply), []byte{})
	f.Add(uint8(frameResumeReject), []byte("junk"))
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		env := newFuzzEnv(t)
		frame := &ctrlFrame{Kind: frameKind(kind % uint8(numFrameKinds)), From: "ctrl.b", Data: data}
		env.c.receive(nil, nil, frame)
		// Frames from unknown senders must be equally inert.
		env.c.receive(nil, nil, &ctrlFrame{Kind: frame.Kind, From: "nobody", Data: data})
		if _, err := env.sim.RunAll(); err != nil {
			t.Fatal(err)
		}
	})
}

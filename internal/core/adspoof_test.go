package core

import (
	"testing"

	"discs/internal/bgp"
)

// §IV-B notes that DAS discovery rides BGP and inherits its (in)security
// until RPKI/S-BGP close it. These tests show what a forged DISCS-Ad
// can and cannot achieve against the authenticated controller channel:
// the directory (the RPKI/DNS trust anchor) pins controller names to
// static keys, and every control message carries the sender's
// authenticated identity.

// TestSpoofedAdUnknownController: an attacker injects an Ad pointing
// victims at a controller name that is not registered. Peering simply
// never establishes — no crash, no half-open state beyond
// "discovered".
func TestSpoofedAdUnknownController(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001)
	c := s.Controllers[1001]
	c.HandleAd(bgp.DISCSAd{Origin: 300, Controller: "ctrl.evil.example"})
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	st, ok := c.PeerStatusOf(300)
	if !ok {
		t.Fatal("Ad ignored entirely; expected discovered state")
	}
	if st == peerEstablished {
		t.Fatal("peering established with an unregistered controller")
	}
}

// TestSpoofedAdControllerConfusion: the attacker advertises AS300 but
// points at AS1004's legitimate controller. The handshake succeeds
// (the controller is real), but every message it sends carries
// From=1004, which does not match the peer record for AS300 — so no
// state transition can be attributed to AS300.
func TestSpoofedAdControllerConfusion(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	c := s.Controllers[1001]
	legit := s.Controllers[1004]

	// Inject the confusion Ad: AS300 claims 1004's controller.
	c.HandleAd(bgp.DISCSAd{Origin: 300, Controller: legit.name})
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.PeerStatusOf(300); st == peerEstablished {
		t.Fatal("AS300 became a peer through a borrowed controller")
	}
	// The legitimate peering with AS1004 is unharmed.
	if st, _ := c.PeerStatusOf(1004); st != peerEstablished {
		t.Fatalf("legitimate peering damaged: %v", st)
	}
	if !c.KeysReadyWith(1004) {
		t.Fatal("legitimate keys damaged")
	}
	// And no key state was created for AS300.
	if hasKeyV(s.Router(1001).Tables.Keys, 300) {
		t.Fatal("verify key installed for the spoofed AS")
	}
}

// TestAdRenameTracksController: a DAS legitimately changing its
// controller name (new Ad) keeps working — the rename path must not be
// confusable with the attacks above.
func TestAdRenameTracksController(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	c1 := s.Controllers[1001]
	// 1004 re-advertises with the same name (steady state).
	c1.HandleAd(s.Controllers[1004].ad())
	s.Settle()
	if st, _ := c1.PeerStatusOf(1004); st != peerEstablished {
		t.Fatalf("status after refresh = %v", st)
	}
}

package core

import (
	"encoding/hex"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"discs/internal/snapcodec"
	"discs/internal/topology"
)

// decodeMsg parses b into a fresh message.
func decodeMsg(b []byte) (*controlMsg, error) {
	var m controlMsg
	if err := m.decode(b); err != nil {
		return nil, err
	}
	return &m, nil
}

func mustEncode(m *controlMsg) []byte {
	b, err := m.appendBinary(nil)
	if err != nil {
		panic(err)
	}
	return b
}

var testKey = []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// goldenMsgs is one message of every type with its wire bytes.
var goldenMsgs = []struct {
	m   controlMsg
	hex string
}{
	{controlMsg{Type: msgPeeringRequest, From: 7}, "0107"},
	{controlMsg{Type: msgPeeringAccept, From: 7}, "0207"},
	{controlMsg{Type: msgPeeringReject, From: 7, Reason: "blacklisted"}, "03070b" + hex.EncodeToString([]byte("blacklisted"))},
	{controlMsg{Type: msgKeyDeploy, From: 7, Key: testKey, Serial: 3}, "04070310000102030405060708090a0b0c0d0e0f"},
	{controlMsg{Type: msgKeyAck, From: 7, Serial: 3}, "050703"},
	{controlMsg{Type: msgInvoke, From: 300, Serial: 2, Invocations: []Invocation{{
		Prefixes: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/24")},
		Function: CDP, Duration: time.Hour, Alarm: true,
	}}}, "06ac02020101040a00000018" + "01" + "8080c58bc6d101" + "01"},
	{controlMsg{Type: msgInvokeAck, From: 7, Serial: 2}, "070702"},
	{controlMsg{Type: msgInvokeReject, From: 7, Serial: 2, Reason: "not a peer"}, "0807020a" + hex.EncodeToString([]byte("not a peer"))},
	{controlMsg{Type: msgQuitAlarm, From: 7}, "0907"},
	{controlMsg{Type: msgHeartbeat, From: 7}, "0a07"},
	{controlMsg{Type: msgHeartbeatAck, From: 7}, "0b07"},
}

// TestControlMsgGolden pins the wire bytes of every message type and
// decodes them back.
func TestControlMsgGolden(t *testing.T) {
	seen := map[msgType]bool{}
	for _, g := range goldenMsgs {
		b, err := g.m.appendBinary(nil)
		if err != nil {
			t.Fatalf("%v: %v", g.m.Type, err)
		}
		if got := hex.EncodeToString(b); got != g.hex {
			t.Errorf("%v encodes to %s, want %s", g.m.Type, got, g.hex)
		}
		back, err := decodeMsg(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", g.m.Type, err)
		}
		if !reflect.DeepEqual(*back, g.m) {
			t.Errorf("%v round trip = %+v, want %+v", g.m.Type, *back, g.m)
		}
		seen[g.m.Type] = true
	}
	for mt := msgType(1); mt < numMsgTypes; mt++ {
		if !seen[mt] {
			t.Errorf("no golden message for %v", mt)
		}
	}
}

// TestControlMsgDecodeRejects: the decoder refuses what the layout does
// not allow, before allocating anything sized by the input.
func TestControlMsgDecodeRejects(t *testing.T) {
	deploy, _ := (&controlMsg{Type: msgKeyDeploy, From: 7, Key: testKey, Serial: 3}).appendBinary(nil)
	short := append(append([]byte{}, deploy[:3]...), 15)
	short = append(short, testKey[:15]...)
	long := append(append([]byte{}, deploy[:3]...), 17)
	long = append(long, append(testKey, 16)...)
	for name, b := range map[string][]byte{
		"empty":             {},
		"type 0":            {0, 7},
		"unknown type":      {byte(numMsgTypes), 7},
		"type 0xff":         {0xff, 7},
		"no sender":         {byte(msgHeartbeat)},
		"sender > 32 bits":  {byte(msgHeartbeat), 0x80, 0x80, 0x80, 0x80, 0x10},
		"trailing byte":     append(append([]byte{}, deploy...), 0),
		"truncated key":     deploy[:len(deploy)-1],
		"15-byte key":       short,
		"17-byte key":       long,
		"empty key":         {byte(msgKeyDeploy), 7, 3, 0},
		"count > input":     {byte(msgInvoke), 7, 1, 200},
		"huge count":        {byte(msgInvoke), 7, 1, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"prefixes > input":  {byte(msgInvoke), 7, 1, 1, 100, 1, 1, 0},
		"reason > input":    {byte(msgPeeringReject), 7, 5, 'a'},
		"bad alarm flag":    {byte(msgInvoke), 7, 1, 1, 0, 1, 2, 2},
		"invalid prefix":    {byte(msgInvoke), 7, 1, 1, 1, 4, 10, 0, 0, 0, 33, 1, 2, 0},
		"json of the past":  []byte(`{"type":"heartbeat","from":7}`),
		"heartbeat + field": {byte(msgHeartbeat), 7, 0},
	} {
		if m, err := decodeMsg(b); err == nil {
			t.Errorf("%s: %x decoded to %+v", name, b, m)
		}
	}
}

// TestControlMsgEncodeRejects: nothing set on a message is dropped on
// the wire without an error.
func TestControlMsgEncodeRejects(t *testing.T) {
	for name, m := range map[string]controlMsg{
		"unknown type":         {Type: numMsgTypes, From: 7},
		"zero type":            {From: 7},
		"serial on heartbeat":  {Type: msgHeartbeat, From: 7, Serial: 1},
		"reason on key-ack":    {Type: msgKeyAck, From: 7, Reason: "x"},
		"key on invoke":        {Type: msgInvoke, From: 7, Key: testKey},
		"invocations on quit":  {Type: msgQuitAlarm, From: 7, Invocations: []Invocation{}},
		"8-byte key":           {Type: msgKeyDeploy, From: 7, Key: testKey[:8], Serial: 1},
		"key-deploy, no key":   {Type: msgKeyDeploy, From: 7, Serial: 1},
		"reason on peering-ok": {Type: msgPeeringAccept, From: 7, Reason: "y"},
	} {
		if b, err := m.appendBinary(nil); err == nil {
			t.Errorf("%s: encoded to %x", name, b)
		}
	}
}

// TestControlMsgEncodeAllocs: encoding appends into the caller's
// buffer; the Writer stays on the stack.
func TestControlMsgEncodeAllocs(t *testing.T) {
	m := goldenMsgs[5].m // an invocation
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := m.appendBinary(buf[:0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendBinary: %v allocs, want 0", n)
	}
}

// TestJournalCheckpointGolden: the campaign journal's bytes are pinned
// (its invocation encoding is the control codec's), so a checkpoint
// image's core section does not change with the control wire format.
func TestJournalCheckpointGolden(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	victim := s.Controllers[1004]
	pfx := []netip.Prefix{netip.MustParsePrefix("172.16.4.0/24")}
	if _, err := victim.Invoke(
		Invocation{Prefixes: pfx, Function: DP, Duration: time.Hour},
		Invocation{Prefixes: pfx, Function: CDP, Duration: 2 * time.Hour, Alarm: true},
	); err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	w := snapcodec.NewAppendWriter(nil)
	if err := victim.checkpointJournal(w); err != nil {
		t.Fatal(err)
	}
	const want = "01010186e1becdafa803020104ac10040018008080c58bc6d101000104ac100400180180808a978ca3030101e90710a6cf1161fe0cf7657f3f7bd744edf5e1"
	if got := hex.EncodeToString(w.Appended()); got != want {
		t.Errorf("journal = %s\n want %s", got, want)
	}
	restored := &Controller{resumeCache: map[topology.ASN][16]byte{}}
	if err := restored.restoreJournal(snapcodec.NewReader(w.Appended())); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.campaigns, victim.campaigns) || restored.campaignSerial != victim.campaignSerial {
		t.Fatalf("restored journal %+v, want %+v", restored.campaigns, victim.campaigns)
	}
}

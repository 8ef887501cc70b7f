// Package securechan implements the secure controller-to-controller
// channel of DISCS (the "con-con channel", §IV-B of the paper).
//
// The paper secures this channel with SSL. Running a full TLS stack
// over the in-memory network simulator is out of scope, so this package
// provides a small authenticated-encryption channel with the same
// round-trip profile (one request/response handshake, then protected
// records) built from stdlib crypto:
//
//   - X25519 for key agreement: each controller holds a static identity
//     key (vouched for out of band, e.g. by RPKI), and both sides
//     contribute ephemeral keys for forward secrecy. The multiplications
//     run assembly kernels where the CPU allows (each side's batched in
//     one 4-lane call where it has AVX-512 IFMA) and crypto/ecdh
//     elsewhere, with the same bytes either way (x25519.go).
//   - SHA-256 for key derivation over the handshake transcript.
//   - AES-128-CTR for record encryption and AES-CMAC for record
//     authentication, with strictly increasing sequence numbers for
//     replay protection.
//
// The handshake is expressed as a synchronous state machine producing
// and consuming byte frames, so it can run over any transport
// (netsim links in this repository).
package securechan

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"

	"discs/internal/obs"
	"io"

	"discs/internal/cmac"
)

// Identity is a controller's static key pair plus a display name.
type Identity struct {
	Name string
	key  keyPair
}

// NewIdentity generates a static identity key from the given entropy
// source (crypto/rand.Reader in production; a seeded reader in tests).
func NewIdentity(name string, rand io.Reader) (*Identity, error) {
	id := &Identity{Name: name}
	if err := genKey(&id.key, rand); err != nil {
		return nil, err
	}
	return id, nil
}

// Public returns a copy of the identity's public key bytes (32 bytes).
func (id *Identity) Public() []byte { return append([]byte(nil), id.key.pub[:]...) }

// genKey reads a 32-byte X25519 scalar from rand into k and computes its
// public key. It deliberately avoids ecdh's GenerateKey: that calls
// randutil.MaybeReadByte, which consumes 0 or 1 bytes from rand
// NON-deterministically — poison for the simulator's seeded RNG
// streams and the repo-wide reproducibility contract.
func genKey(k *keyPair, rand io.Reader) error {
	if _, err := io.ReadFull(rand, k.priv[:]); err != nil {
		return err
	}
	return x25519Base(k)
}

const (
	pubLen   = 32
	nonceLen = 16
	macLen   = 16
)

// helloLen is the wire size of a handshake hello frame.
const helloLen = pubLen + nonceLen

// ReplyLen is the wire size of a handshake reply frame.
const ReplyLen = pubLen + nonceLen + macLen

// Initiator is the client side of a handshake in progress.
type Initiator struct {
	id        *Identity
	peerPub   [pubLen]byte
	eph       keyPair
	nonce     [nonceLen]byte
	helloSent []byte
}

// NewInitiator starts a handshake toward a peer whose static public
// key is known (learned from the DISCS-Ad / RPKI layer).
func NewInitiator(id *Identity, peerStaticPub []byte, rand io.Reader) (*Initiator, error) {
	if len(peerStaticPub) != pubLen {
		return nil, errPubLen
	}
	ini := &Initiator{id: id, peerPub: [pubLen]byte(peerStaticPub)}
	if err := genKey(&ini.eph, rand); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(rand, ini.nonce[:]); err != nil {
		return nil, err
	}
	return ini, nil
}

// Hello produces the client hello frame: ephemeral public key + nonce.
func (ini *Initiator) Hello() []byte {
	if ini.helloSent == nil {
		b := make([]byte, 0, helloLen)
		b = append(b, ini.eph.pub[:]...)
		b = append(b, ini.nonce[:]...)
		ini.helloSent = b
	}
	return ini.helloSent
}

// Respond processes a client hello on the server side and produces the
// reply frame plus the established session. initiatorStaticPub must be
// the expected static key of the initiator.
func Respond(id *Identity, initiatorStaticPub, hello []byte, rand io.Reader) (reply []byte, sess *Session, err error) {
	if len(hello) != helloLen {
		return nil, nil, fmt.Errorf("hello length %d, want %d: %w", len(hello), helloLen, errBadFrame)
	}
	if len(initiatorStaticPub) != pubLen {
		return nil, nil, errPubLen
	}
	clientEph := (*[pubLen]byte)(hello[:pubLen])
	clientStatic := (*[pubLen]byte)(initiatorStaticPub)
	// Both draws come before the four multiplications, which run as one
	// batch: the seeded stream is read in the same order on every path.
	var eph keyPair
	if _, err := io.ReadFull(rand, eph.priv[:]); err != nil {
		return nil, nil, err
	}
	var nonce [nonceLen]byte
	if _, err := io.ReadFull(rand, nonce[:]); err != nil {
		return nil, nil, err
	}
	var dh [4][32]byte
	if err := x25519Batch(&dh, []mul{
		{k: &eph},                        // ephemeral public key
		{k: &id.key, peer: clientEph},    // server static × client eph
		{k: &eph, peer: clientEph},       // server eph × client eph
		{k: &id.key, peer: clientStatic}, // static × static (mutual auth)
	}); err != nil {
		return nil, nil, err
	}
	ee, eph2, ss := &dh[1], &dh[2], &dh[3]
	keys := deriveKeys(eph2[:], ee[:], ss[:], hello, eph.pub[:], nonce[:])
	// Server proves key possession with a MAC over the transcript.
	mac, err := transcriptMAC(keys.macKey[:], hello, eph.pub[:], nonce[:])
	if err != nil {
		return nil, nil, err
	}
	reply = make([]byte, 0, ReplyLen)
	reply = append(reply, eph.pub[:]...)
	reply = append(reply, nonce[:]...)
	reply = append(reply, mac...)
	sess, err = newSession(keys, false)
	if err != nil {
		return nil, nil, err
	}
	return reply, sess, nil
}

// Finish processes the server reply on the client side and returns the
// established session.
func (ini *Initiator) Finish(reply []byte) (*Session, error) {
	if len(reply) != ReplyLen {
		return nil, fmt.Errorf("reply length %d, want %d: %w", len(reply), ReplyLen, errBadFrame)
	}
	serverEph := (*[pubLen]byte)(reply[:pubLen])
	serverNonce := reply[pubLen : pubLen+nonceLen]
	mac := reply[pubLen+nonceLen:]

	var dh [4][32]byte
	if err := x25519Batch(&dh, []mul{
		{k: &ini.eph, peer: &ini.peerPub},    // client eph × server static
		{k: &ini.eph, peer: serverEph},       // client eph × server eph
		{k: &ini.id.key, peer: &ini.peerPub}, // static × static
	}); err != nil {
		return nil, err
	}
	ee, eph2, ss := &dh[0], &dh[1], &dh[2]
	hello := ini.Hello()
	keys := deriveKeys(eph2[:], ee[:], ss[:], hello, reply[:pubLen], serverNonce)
	want, err := transcriptMAC(keys.macKey[:], hello, reply[:pubLen], serverNonce)
	if err != nil {
		return nil, err
	}
	if subtle.ConstantTimeCompare(mac, want) == 0 {
		return nil, fmt.Errorf("handshake: %w", errAuth)
	}
	return newSession(keys, true)
}

type sessionKeys struct {
	encKeyAB, encKeyBA [16]byte // initiator→responder, responder→initiator
	macKey             [16]byte
	resume             [16]byte // session-cache secret (see resume.go)
}

// deriveKeys hashes the three DH secrets and the transcript into
// directional record keys plus a handshake MAC key.
func deriveKeys(ephEph, ephStatic, staticStatic, hello, serverEph, serverNonce []byte) sessionKeys {
	var buf [256]byte // holds the whole input: no allocation
	in := append(buf[:0], "discs-securechan-v1"...)
	for _, p := range [][]byte{ephEph, ephStatic, staticStatic, hello, serverEph, serverNonce} {
		in = append(in, p...)
	}
	return expandKeys(sha256.Sum256(in))
}

// expandKeys derives the session's four keys from its master secret:
// key i is the first 16 bytes of SHA-256(master || i).
func expandKeys(master [sha256.Size]byte) sessionKeys {
	var in [sha256.Size + 1]byte
	copy(in[:], master[:])
	expand := func(label byte) (k [16]byte) {
		in[sha256.Size] = label
		hh := sha256.Sum256(in[:])
		copy(k[:], hh[:16])
		return k
	}
	return sessionKeys{
		encKeyAB: expand(1),
		encKeyBA: expand(2),
		macKey:   expand(3),
		resume:   expand(4),
	}
}

func transcriptMAC(key []byte, parts ...[]byte) ([]byte, error) {
	c, err := cmac.New(key)
	if err != nil {
		return nil, err
	}
	var msg []byte
	for _, p := range parts {
		msg = append(msg, p...)
	}
	m := c.Sum(msg)
	return m[:], nil
}

// Session is an established record channel. Each direction has its own
// key and sequence counter; frames are AES-128-CTR encrypted and
// CMAC-authenticated. Delivery may be lossy — see Open for the
// forward-window semantics.
type Session struct {
	sendBlock, recvBlock cipher.Block
	mac                  *cmac.CMAC
	sendSeq, recvSeq     uint64
	// Counter and keystream scratch per direction (see ctrXOR); they
	// live here so that a record costs no allocation beyond its output.
	sendCTR, recvCTR ctrScratch
	resume           [16]byte
	// Overhead counters for the §VI-C cost model.
	BytesSealed, BytesOpened uint64
	// Optional registry mirrors of the byte counters (see SetMeter).
	sealedMeter, openedMeter *obs.Counter
}

// SetMeter mirrors the session's byte counters into registry counters
// (both nil-safe), so a controller can aggregate con-con channel
// overhead across sessions. Bytes already accumulated are carried into
// the counters at attach time.
func (s *Session) SetMeter(sealed, opened *obs.Counter) {
	s.sealedMeter, s.openedMeter = sealed, opened
	if sealed != nil {
		sealed.Add(s.BytesSealed)
	}
	if opened != nil {
		opened.Add(s.BytesOpened)
	}
}

func newSession(keys sessionKeys, initiator bool) (*Session, error) {
	sendKey, recvKey := keys.encKeyAB, keys.encKeyBA
	if !initiator {
		sendKey, recvKey = keys.encKeyBA, keys.encKeyAB
	}
	sb, err := aes.NewCipher(sendKey[:])
	if err != nil {
		return nil, err
	}
	rb, err := aes.NewCipher(recvKey[:])
	if err != nil {
		return nil, err
	}
	m, err := cmac.New(keys.macKey[:])
	if err != nil {
		return nil, err
	}
	return &Session{sendBlock: sb, recvBlock: rb, mac: m, resume: keys.resume}, nil
}

// overhead is the per-record byte overhead: 8-byte sequence + 16-byte
// MAC.
const overhead = 8 + macLen

// ctrScratch holds one direction's AES-CTR counter block and keystream
// block.
type ctrScratch struct {
	ctr, ks [aes.BlockSize]byte
}

// ctrXOR XORs src with the AES-CTR keystream of record seq into dst
// (len(dst) >= len(src); they must not overlap unless equal). The
// counter is the 128-bit big-endian integer whose initial value is seq,
// incremented per block with the carry running into the high half —
// byte for byte what cipher.NewCTR produces from the IV
// 0^64 || BE64(seq), without its per-record allocations.
func ctrXOR(b cipher.Block, sc *ctrScratch, seq uint64, dst, src []byte) {
	hi, lo := uint64(0), seq
	for len(src) > 0 {
		binary.BigEndian.PutUint64(sc.ctr[:8], hi)
		binary.BigEndian.PutUint64(sc.ctr[8:], lo)
		b.Encrypt(sc.ks[:], sc.ctr[:])
		n := subtle.XORBytes(dst, src, sc.ks[:])
		dst, src = dst[n:], src[n:]
		if lo++; lo == 0 {
			hi++
		}
	}
}

// Seal encrypts and authenticates a plaintext record.
func (s *Session) Seal(plaintext []byte) []byte {
	out := make([]byte, 8+len(plaintext)+macLen)
	binary.BigEndian.PutUint64(out[:8], s.sendSeq)
	ctrXOR(s.sendBlock, &s.sendCTR, s.sendSeq, out[8:8+len(plaintext)], plaintext)
	tag := s.mac.Sum(out[:8+len(plaintext)])
	copy(out[8+len(plaintext):], tag[:])
	s.sendSeq++
	s.BytesSealed += uint64(len(out))
	if s.sealedMeter != nil {
		s.sealedMeter.Add(uint64(len(out)))
	}
	return out
}

// Open verifies and decrypts a record. The sequence number may jump
// forward — records lost by the network are skipped, DTLS-style, so
// one lost frame does not deafen the rest of the session — but a
// record at or behind the receive window is rejected as a replay.
// (Reordered records therefore count as lost; the control plane's
// retry machinery re-drives them.)
func (s *Session) Open(record []byte) ([]byte, error) {
	if len(record) < overhead {
		return nil, fmt.Errorf("record length %d, want >= %d: %w", len(record), overhead, errBadFrame)
	}
	seq := binary.BigEndian.Uint64(record[:8])
	if seq < s.recvSeq {
		return nil, fmt.Errorf("record sequence %d, want >= %d: %w", seq, s.recvSeq, errReplay)
	}
	body := record[:len(record)-macLen]
	tag := record[len(record)-macLen:]
	if !s.mac.Verify(body, tag) {
		return nil, fmt.Errorf("record: %w", errAuth)
	}
	plaintext := make([]byte, len(body)-8)
	ctrXOR(s.recvBlock, &s.recvCTR, seq, plaintext, body[8:])
	s.recvSeq = seq + 1
	s.BytesOpened += uint64(len(record))
	if s.openedMeter != nil {
		s.openedMeter.Add(uint64(len(record)))
	}
	return plaintext, nil
}

package securechan

import (
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"io"
)

// Session resumption. The §VI-C cost model assumes the con-con channel
// uses a session cache ("each connection consumes 1.5kB data with SSL
// session cache"): a controller re-contacting a peer skips the
// asymmetric key agreement and derives fresh record keys from a cached
// resumption secret plus fresh nonces. Both sides obtain the secret
// from the full handshake (ResumptionSecret); either may initiate the
// abbreviated two-frame exchange.

// ResumeHelloLen is the wire size of a resumption hello.
const ResumeHelloLen = nonceLen

// resumeReplyLen is the wire size of a resumption reply.
const resumeReplyLen = nonceLen + macLen

// ResumptionSecret returns the cached secret shared by the two ends of
// an established session. It is directionless: both ends of one full
// handshake return the same value.
func (s *Session) ResumptionSecret() [16]byte { return s.resume }

// Resumer is the initiator side of an abbreviated handshake.
type Resumer struct {
	secret [16]byte
	nonce  [nonceLen]byte
}

// NewResumer starts an abbreviated handshake from a cached secret.
func NewResumer(secret [16]byte, rand io.Reader) (*Resumer, error) {
	r := &Resumer{secret: secret}
	if _, err := io.ReadFull(rand, r.nonce[:]); err != nil {
		return nil, err
	}
	return r, nil
}

// Hello returns the resumption hello frame (the client nonce).
func (r *Resumer) Hello() []byte { return r.nonce[:] }

// ResumeRespond processes a resumption hello with the cached secret
// and returns the reply frame plus the responder's session.
func ResumeRespond(secret [16]byte, hello []byte, rand io.Reader) (reply []byte, sess *Session, err error) {
	if len(hello) != ResumeHelloLen {
		return nil, nil, fmt.Errorf("resume hello length %d, want %d: %w", len(hello), ResumeHelloLen, errBadFrame)
	}
	var nonce [nonceLen]byte
	if _, err := io.ReadFull(rand, nonce[:]); err != nil {
		return nil, nil, err
	}
	keys := deriveResumedKeys(secret, hello, nonce[:])
	mac, err := transcriptMAC(keys.macKey[:], hello, nonce[:])
	if err != nil {
		return nil, nil, err
	}
	reply = append(append([]byte{}, nonce[:]...), mac...)
	sess, err = newSession(keys, false)
	if err != nil {
		return nil, nil, err
	}
	return reply, sess, nil
}

// Finish processes the resumption reply and returns the initiator's
// session. A responder that does not hold the secret cannot produce a
// valid transcript MAC.
func (r *Resumer) Finish(reply []byte) (*Session, error) {
	if len(reply) != resumeReplyLen {
		return nil, fmt.Errorf("resume reply length %d, want %d: %w", len(reply), resumeReplyLen, errBadFrame)
	}
	serverNonce := reply[:nonceLen]
	mac := reply[nonceLen:]
	keys := deriveResumedKeys(r.secret, r.nonce[:], serverNonce)
	want, err := transcriptMAC(keys.macKey[:], r.nonce[:], serverNonce)
	if err != nil {
		return nil, err
	}
	if subtle.ConstantTimeCompare(mac, want) == 0 {
		return nil, fmt.Errorf("resumption: %w", errAuth)
	}
	return newSession(keys, true)
}

// deriveResumedKeys expands (secret, cnonce, snonce) into fresh
// directional keys. Fresh nonces give each resumed session unique
// record keys, so replaying old records across sessions fails.
func deriveResumedKeys(secret [16]byte, clientNonce, serverNonce []byte) sessionKeys {
	var buf [128]byte // holds the whole input: no allocation
	in := append(buf[:0], "discs-securechan-resume-v1"...)
	in = append(in, secret[:]...)
	in = append(in, clientNonce...)
	in = append(in, serverNonce...)
	return expandKeys(sha256.Sum256(in))
}

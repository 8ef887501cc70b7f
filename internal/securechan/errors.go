package securechan

import "errors"

// Sentinel errors for the failure classes of a frame. Every error
// returned by the handshake, resumption and record paths wraps one of
// these (or is an I/O error from the entropy source), so the class is
// found with errors.Is instead of string matching:
//
//   - errBadFrame: a frame whose shape is wrong — truncated record,
//     hello/reply of the wrong length. The peer implementation is
//     broken or the bytes were mangled in transit; retrying the same
//     frame is pointless but re-driving the exchange is fine.
//   - errAuth: a frame that is well-formed but fails cryptographic
//     authentication — forged, corrupted, or keyed differently (e.g. a
//     resumption against a stale secret). The session or handshake it
//     belongs to cannot proceed.
//   - errReplay: a record at or behind the receive window. One
//     authentic record is delivered at most once; duplicates and
//     reordered stragglers surface here.
var (
	errBadFrame = errors.New("securechan: malformed frame")
	errAuth     = errors.New("securechan: authentication failed")
	errReplay   = errors.New("securechan: replay")
)

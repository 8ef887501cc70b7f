// Package snapshot is the crash-consistent checkpoint/restore layer:
// it frames every subsystem's Checkpoint seam (topology, bgp, netsim,
// core, wire, obs) into one versioned, length-prefixed,
// checksummed binary image, and restores an image into a runnable
// world.
//
// # Format
//
//	magic    [8]byte  "DISCSNAP"
//	version  uint16   little-endian (currently 3)
//	flags    uint16   reserved, must be zero
//	sections, repeated until EOF:
//	  kind    uint16   little-endian (Sec* constants)
//	  length  uint64   little-endian payload length
//	  payload [length]byte
//	  crc     uint32   CRC-32C (Castagnoli) over kind, length, payload
//
// Every structural defect maps to a typed error — errBadMagic,
// *versionError, errTruncated, *checksumError, *formatError — and the
// decoder never allocates ahead of the bytes it has actually read, so
// a forged multi-gigabyte length prefix fails with errTruncated
// instead of an OOM. WriteFile is atomic: the image is written to a
// temp file, synced, and renamed over the target, so a crash
// mid-checkpoint leaves the previous image intact.
//
// # Checkpoint points
//
// Two world shapes serialize, distinguished by which sections exist:
//
//   - Converged network (no secCore): topology + RIBs + clocks. This
//     is the bit-identity restore point — the event queue is empty, so
//     restore reproduces the exact pre-deploy state and any program
//     run afterwards (deploy, attack, crash campaigns) is
//     bit-identical to a straight-through run.
//
//   - Deployed system (secCore present): additionally the deploy
//     ledger, campaign journals, resumption secrets and router
//     function tables. Restore rebuilds controllers from durable state
//     only and composes with the existing crash-recovery machinery:
//     call System.RestartAll + Settle to re-drive journal replay, then
//     run scenario cells from the warm image.
//
// Checkpoints require foreground quiescence (netsim.ErrNotQuiescent
// otherwise) and drop pending background events with crash semantics;
// the restart path re-arms heartbeats and purge timers.
package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"discs/internal/bgp"
	"discs/internal/core"
	"discs/internal/netsim"
	"discs/internal/obs"
	"discs/internal/snapcodec"
	"discs/internal/topology"
	"discs/internal/wire"
)

// formatVersion is the current image format version. Version 3 carries the
// engine's lane state (shard count, per-lane clocks, creation counters
// and fault-stream positions) at the head of the netsim section, where
// version 2 had a separate parsim section that only engine-driven
// worlds wrote. Version 2 stored the bgp section as the RIB's slabs
// (prefix, attribute-set and AS-path tables, then per-speaker rows and
// Adj-RIB-In vectors). Older images are refused.
const formatVersion = 3

var magic = [8]byte{'D', 'I', 'S', 'C', 'S', 'N', 'A', 'P'}

// Section kinds.
const (
	secMeta   uint16 = 1
	secTopo   uint16 = 2
	secBGP    uint16 = 3
	secNetsim uint16 = 4
	secObs    uint16 = 6
	secCore   uint16 = 7
	secWire   uint16 = 8
)

// maxSectionLen rejects absurd length prefixes outright; anything
// below it is still read incrementally, so memory is bounded by the
// actual input size either way.
const maxSectionLen = 1 << 34

// Typed decode errors. Every way an image can be bad maps to one of
// these — a corrupt or truncated image is always a clean error, never
// a panic or a silently diverging world.
var (
	// errBadMagic: the input is not a DISCS snapshot at all.
	errBadMagic = errors.New("snapshot: bad magic")
	// errTruncated: the input ends mid-header or mid-section.
	errTruncated = errors.New("snapshot: truncated image")
)

// versionError reports an image written by an incompatible format
// version.
type versionError struct{ Got uint16 }

func (e *versionError) Error() string {
	return fmt.Sprintf("snapshot: format version %d, this build reads %d", e.Got, formatVersion)
}

// checksumError reports a section whose CRC-32C does not match — a
// bit-flipped or otherwise corrupted image.
type checksumError struct{ Kind uint16 }

func (e *checksumError) Error() string {
	return fmt.Sprintf("snapshot: section %d checksum mismatch", e.Kind)
}

// formatError reports a structurally malformed image or section.
type formatError struct {
	Section string
	Err     error
}

func (e *formatError) Error() string {
	return fmt.Sprintf("snapshot: malformed %s section: %v", e.Section, e.Err)
}
func (e *formatError) Unwrap() error { return e.Err }

func secName(kind uint16) string {
	switch kind {
	case secMeta:
		return "meta"
	case secTopo:
		return "topology"
	case secBGP:
		return "bgp"
	case secNetsim:
		return "netsim"
	case secObs:
		return "obs"
	case secCore:
		return "core"
	case secWire:
		return "wire"
	}
	return fmt.Sprintf("kind-%d", kind)
}

// World is the set of live objects a checkpoint covers. Net is
// required; Sys and Data are optional and control which sections the
// image carries. Eng is the engine Restore re-laned the network with;
// Write ignores it (the netsim section always carries the lanes).
type World struct {
	Net  *bgp.Network
	Eng  *netsim.Engine
	Sys  *core.System  // deployed system, nil for network-only images
	Data *wire.DataNet // packet data plane, nil when absent
}

// Image is a decoded container: version plus verified raw sections.
type Image struct {
	Version  uint16
	sections map[uint16][]byte
}

// raw returns the raw payload of a section kind, or nil.
func (img *Image) raw(kind uint16) []byte { return img.sections[kind] }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// section serializes one layer seam into an in-memory payload, a
// series of blocks (snapcodec.NewBlockWriter) so that the payload costs
// about its own size in allocations.
func section(fill func(*snapcodec.Writer) error) ([][]byte, error) {
	w := snapcodec.NewBlockWriter()
	if err := fill(w); err != nil {
		return nil, err
	}
	return w.Blocks(), nil
}

func writeSection(w io.Writer, kind uint16, payload [][]byte) error {
	var hdr [10]byte
	hdr[0], hdr[1] = byte(kind), byte(kind>>8)
	n := 0
	for _, b := range payload {
		n += len(b)
	}
	for i := 0; i < 8; i++ {
		hdr[2+i] = byte(uint64(n) >> (8 * i))
	}
	crc := crc32.Checksum(hdr[:], castagnoli)
	for _, b := range payload {
		crc = crc32.Update(crc, castagnoli, b)
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, b := range payload {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	var tail [4]byte
	for i := 0; i < 4; i++ {
		tail[i] = byte(crc >> (8 * i))
	}
	_, err := w.Write(tail[:])
	return err
}

// linkDelayOf picks a representative link delay for rebuilding the
// network skeleton; per-link delays are restored exactly by the netsim
// section afterwards.
func linkDelayOf(net *bgp.Network) time.Duration {
	if links := net.Sim.Links(); len(links) > 0 {
		return links[0].Delay
	}
	return time.Millisecond
}

// Write serializes the world into w. The world must be foreground-
// quiescent (run Settle/RunAll first); netsim.ErrNotQuiescent
// otherwise. Write does not mutate the world — the live run can simply
// continue afterwards.
func Write(w io.Writer, world *World) error {
	if world == nil || world.Net == nil {
		return errors.New("snapshot: nil world or network")
	}
	type sec struct {
		kind uint16
		fill func(*snapcodec.Writer) error
	}
	secs := []sec{
		{secMeta, func(sw *snapcodec.Writer) error {
			sw.Duration(linkDelayOf(world.Net))
			sw.Bool(world.Sys != nil)
			sw.Bool(world.Data != nil)
			return nil
		}},
		{secTopo, world.Net.Topo.Checkpoint},
		{secBGP, world.Net.Checkpoint},
	}
	if world.Sys != nil {
		secs = append(secs, sec{secCore, world.Sys.Checkpoint})
	}
	if world.Data != nil {
		secs = append(secs, sec{secWire, world.Data.Checkpoint})
	}
	secs = append(secs, sec{secNetsim, world.Net.Sim.Checkpoint})
	reg := world.Net.Sim.Registry()
	if world.Sys != nil {
		reg = world.Sys.Registry()
	}
	secs = append(secs, sec{secObs, func(sw *snapcodec.Writer) error {
		writeObs(sw, reg.Snapshot())
		return nil
	}})

	// Quiescence is checked by the netsim seam; build every
	// payload before emitting the first byte so a refused checkpoint
	// writes nothing.
	payloads := make([][][]byte, len(secs))
	for i, s := range secs {
		p, err := section(s.fill)
		if err != nil {
			return err
		}
		payloads[i] = p
	}

	var hdr [12]byte
	copy(hdr[:8], magic[:])
	hdr[8], hdr[9] = byte(formatVersion), byte(formatVersion>>8)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for i, s := range secs {
		if err := writeSection(w, s.kind, payloads[i]); err != nil {
			return err
		}
	}
	return nil
}

// writeFailpoint, when non-nil, injects a failure between writing the
// temp file and renaming it into place — the white-box hook the
// crash-mid-checkpoint test uses to prove the previous image survives.
var writeFailpoint func() error

// WriteFile writes the image atomically: temp file in the same
// directory, fsync, rename. A crash (or injected failure) at any point
// leaves any previous image at path untouched.
func WriteFile(path string, world *World) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := Write(tmp, world); err != nil {
		tmp.Close()
		return err
	}
	if writeFailpoint != nil {
		if err := writeFailpoint(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Read decodes and verifies a container: magic, version, and every
// section's length and checksum. It does not touch any live state;
// pass the result to Restore.
func Read(r io.Reader) (*Image, error) { return read(r, -1) }

// read is Read of an input with left bytes, or of unknown length where
// left is negative. Where the length is known, a section that claims
// more bytes than are left is errTruncated before anything is
// allocated, and one that fits is read whole into a buffer of its
// size; otherwise sections are copied incrementally.
func read(r io.Reader, left int64) (*Image, error) {
	// The fixed-size fields share one allocation: read through an
	// interface, each would otherwise escape on its own.
	fixed := new(struct {
		hdr  [12]byte
		shdr [10]byte
		tail [4]byte
	})
	hdr := &fixed.hdr
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, errTruncated
	}
	left -= int64(len(hdr))
	if [8]byte(hdr[:8]) != magic {
		return nil, errBadMagic
	}
	version := uint16(hdr[8]) | uint16(hdr[9])<<8
	if version != formatVersion {
		return nil, &versionError{Got: version}
	}
	if hdr[10] != 0 || hdr[11] != 0 {
		return nil, &formatError{Section: "header", Err: errors.New("nonzero reserved flags")}
	}

	img := &Image{Version: version, sections: make(map[uint16][]byte, 8)}
	shdr, tail := &fixed.shdr, &fixed.tail
	for {
		if _, err := io.ReadFull(r, shdr[:]); err != nil {
			if err == io.EOF {
				return img, nil
			}
			return nil, errTruncated
		}
		left -= int64(len(shdr))
		kind := uint16(shdr[0]) | uint16(shdr[1])<<8
		var length uint64
		for i := 0; i < 8; i++ {
			length |= uint64(shdr[2+i]) << (8 * i)
		}
		if length > maxSectionLen {
			return nil, &formatError{Section: secName(kind), Err: fmt.Errorf("length %d exceeds limit", length)}
		}
		if _, dup := img.sections[kind]; dup {
			return nil, &formatError{Section: secName(kind), Err: errors.New("duplicate section")}
		}
		var data []byte
		if left >= 0 {
			if length+4 > uint64(left) {
				return nil, errTruncated
			}
			left -= int64(length) + 4
			data = make([]byte, length)
			if _, err := io.ReadFull(r, data); err != nil {
				return nil, errTruncated
			}
		} else {
			// Incremental copy: allocation grows with bytes actually
			// read, so a forged length on a short input fails as
			// errTruncated without a large up-front allocation.
			var buf bytes.Buffer
			if n, err := io.CopyN(&buf, r, int64(length)); err != nil || uint64(n) != length {
				return nil, errTruncated
			}
			data = buf.Bytes()
		}
		if _, err := io.ReadFull(r, tail[:]); err != nil {
			return nil, errTruncated
		}
		want := uint32(tail[0]) | uint32(tail[1])<<8 | uint32(tail[2])<<16 | uint32(tail[3])<<24
		crc := crc32.Checksum(shdr[:], castagnoli)
		crc = crc32.Update(crc, castagnoli, data)
		if crc != want {
			return nil, &checksumError{Kind: kind}
		}
		img.sections[kind] = data
	}
}

// ReadFile reads and verifies an image from disk. A regular file's size
// bounds every section, so each is read with one exact-size read.
func ReadFile(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !st.Mode().IsRegular() {
		return Read(f)
	}
	return read(f, st.Size())
}

// Options parameterizes Restore with the state that is scenario code,
// not world state: worker count, and — for system images — the same
// core.Config the original run used (configs carry callbacks and
// registries, so they do not serialize; bit-identity requires passing
// the same one).
type Options struct {
	// Workers drives the restored engine (the shard count comes from
	// the image; determinism is worker-count independent).
	Workers int
	// Config is the system configuration for images carrying a core
	// section. Zero value = core.DefaultConfig().
	Config *core.Config
	// Wire is the data-plane configuration for images carrying a wire
	// section. Zero value = wire.DefaultConfig().
	Wire *wire.Config
}

// Restore rebuilds a runnable world from a verified image. For system
// images, complete recovery with world.Sys.RestartAll() followed by
// Settle — the same journal-replay path a crashed controller takes. The
// world is built the way a fresh one is (topology, bgp.BuildNetwork,
// AssignShards, Relane) and the image's state is then loaded into it.
// On an error, the engine it had started is closed.
func Restore(img *Image, opt Options) (*World, error) {
	need := func(kind uint16) (*snapcodec.Reader, error) {
		b := img.raw(kind)
		if b == nil {
			return nil, &formatError{Section: secName(kind), Err: errors.New("section missing")}
		}
		return snapcodec.NewReader(b), nil
	}

	mr, err := need(secMeta)
	if err != nil {
		return nil, err
	}
	linkDelay := mr.Duration()
	hasSys := mr.Bool()
	hasData := mr.Bool()
	if err := mr.Done(); err != nil {
		return nil, &formatError{Section: "meta", Err: err}
	}
	if linkDelay < 0 {
		return nil, &formatError{Section: "meta", Err: errors.New("negative link delay")}
	}

	tr, err := need(secTopo)
	if err != nil {
		return nil, err
	}
	topo, warm, err := topology.RestoreTopology(tr)
	if err != nil {
		return nil, &formatError{Section: "topology", Err: err}
	}
	if err := tr.Done(); err != nil {
		return nil, &formatError{Section: "topology", Err: err}
	}
	// Re-warm the route-tree cache before any metrics are published,
	// so warming does not perturb restored hit/miss counters. A nil
	// warm list means the cache did not exist at checkpoint time, and
	// WarmRoutes would instantiate it — skip, so the capacity gauge
	// stays identical to a run that never touched the cache.
	if warm != nil {
		topo.WarmRoutes(warm, 0)
	}

	net, err := bgp.BuildNetwork(topo, linkDelay)
	if err != nil {
		return nil, err
	}

	// Peek the shard count now — the engine must exist (and shard
	// assignment be final) before the deploy replay creates nodes —
	// but consume the full section later, once the world is built.
	nr, err := need(secNetsim)
	if err != nil {
		return nil, err
	}
	shards := int(nr.Uvarint())
	if nr.Err() != nil || shards <= 0 || shards > netsim.MaxShards {
		return nil, &formatError{Section: "netsim", Err: errors.New("invalid shard count")}
	}
	net.AssignShards(shards)
	eng, err := net.Sim.Relane(netsim.Options{Shards: shards, Workers: opt.Workers})
	if err != nil {
		return nil, err
	}
	built := false
	defer func() {
		if !built {
			eng.Close()
		}
	}()
	world := &World{Net: net, Eng: eng}

	br, err := need(secBGP)
	if err != nil {
		return nil, err
	}
	if err := net.RestoreCheckpoint(br); err != nil {
		return nil, &formatError{Section: "bgp", Err: err}
	}
	if err := br.Done(); err != nil {
		return nil, &formatError{Section: "bgp", Err: err}
	}

	if hasSys {
		cfg := core.DefaultConfig()
		if opt.Config != nil {
			cfg = *opt.Config
		}
		sys, err := core.NewSystemWithOptions(core.SystemOptions{Net: net, Config: cfg})
		if err != nil {
			return nil, err
		}
		cr, err := need(secCore)
		if err != nil {
			return nil, err
		}
		if err := sys.RestoreCheckpoint(cr); err != nil {
			return nil, &formatError{Section: "core", Err: err}
		}
		if err := cr.Done(); err != nil {
			return nil, &formatError{Section: "core", Err: err}
		}
		world.Sys = sys
	}

	if hasData {
		if world.Sys == nil {
			return nil, &formatError{Section: "wire", Err: errors.New("wire section without core section")}
		}
		wcfg := wire.DefaultConfig()
		if opt.Wire != nil {
			wcfg = *opt.Wire
		}
		dn, err := wire.New(world.Sys, wcfg)
		if err != nil {
			return nil, err
		}
		wr, err := need(secWire)
		if err != nil {
			return nil, err
		}
		if err := dn.RestoreCheckpoint(wr); err != nil {
			return nil, &formatError{Section: "wire", Err: err}
		}
		if err := wr.Done(); err != nil {
			return nil, &formatError{Section: "wire", Err: err}
		}
		world.Data = dn
	}

	// Node and link tables are complete now; restore clocks, RNG
	// positions and per-link state.
	nr = snapcodec.NewReader(img.raw(secNetsim))
	if err := net.Sim.RestoreCheckpoint(nr); err != nil {
		return nil, &formatError{Section: "netsim", Err: err}
	}
	if err := nr.Done(); err != nil {
		return nil, &formatError{Section: "netsim", Err: err}
	}

	or, err := need(secObs)
	if err != nil {
		return nil, err
	}
	snap, err := readObs(or)
	if err != nil {
		return nil, &formatError{Section: "obs", Err: err}
	}
	reg := net.Sim.Registry()
	if world.Sys != nil {
		reg = world.Sys.Registry()
	}
	reg.Absorb(snap)
	built = true
	return world, nil
}

// engineMetrics is the namespace of the event engine's scheduling
// metrics (worker stall time, events per worker), which vary from run
// to run of one seeded world. writeObs leaves it out, so that a world
// writes the same image every time; Restore still absorbs it from
// images that carry it.
const engineMetrics = "parsim."

// writeObs serializes a metrics snapshot (counters and gauges, sorted,
// the engine's scheduling metrics left out; histograms are
// diagnostic-only and restart empty).
func writeObs(w *snapcodec.Writer, s obs.Snapshot) {
	cnames := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		if !strings.HasPrefix(name, engineMetrics) {
			cnames = append(cnames, name)
		}
	}
	gnames := make([]string, 0, len(s.Gauges))
	for name := range s.Gauges {
		if !strings.HasPrefix(name, engineMetrics) {
			gnames = append(gnames, name)
		}
	}
	sort.Strings(cnames)
	sort.Strings(gnames)
	w.Uvarint(uint64(len(cnames)))
	for _, name := range cnames {
		w.String(name)
		w.Uvarint(s.Counters[name])
	}
	w.Uvarint(uint64(len(gnames)))
	for _, name := range gnames {
		w.String(name)
		w.Varint(s.Gauges[name])
	}
}

func readObs(r *snapcodec.Reader) (obs.Snapshot, error) {
	s := obs.Snapshot{Counters: make(map[string]uint64)}
	nc := r.Count(2)
	for i := 0; i < nc; i++ {
		name := r.String()
		s.Counters[name] = r.Uvarint()
	}
	ng := r.Count(2)
	if ng > 0 {
		s.Gauges = make(map[string]int64, ng)
	}
	for i := 0; i < ng; i++ {
		name := r.String()
		s.Gauges[name] = r.Varint()
	}
	if err := r.Done(); err != nil {
		return obs.Snapshot{}, err
	}
	return s, nil
}

package flowexport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"
)

// Label is the ground-truth class of a flow record in a scenario
// dataset export. Unlike the live NetFlow-style path (which only sees
// packets), the scenario engine knows what every flow *was*, so
// exported datasets carry supervised labels for offline analysis and
// detector training.
type Label uint8

const (
	LabelBenign Label = iota // legitimate traffic
	LabelDDoS                // direct spoofing (d-DDoS)
	LabelSDDoS               // reflective spoofing (s-DDoS requests)
	LabelProbe               // adaptive-attacker path probes
)

func (l Label) String() string {
	switch l {
	case LabelBenign:
		return "benign"
	case LabelDDoS:
		return "ddos"
	case LabelSDDoS:
		return "sddos"
	case LabelProbe:
		return "probe"
	}
	return fmt.Sprintf("Label(%d)", uint8(l))
}

// LabeledRecord is a flow record annotated with its scenario
// provenance and ground truth: which scenario and phase generated it,
// what it really was, and what the defense did to it.
type LabeledRecord struct {
	Record
	// Scenario and Phase name the generating campaign step.
	Scenario string
	Phase    string
	PhaseIdx uint16
	Label    Label
	// Delivered and Dropped are the ground-truth packet fates across
	// the whole flow (unsampled — the engine sees every packet).
	Delivered uint64
	Dropped   uint64
}

// --- wire format v2 --------------------------------------------------------

// The labeled export datagram extends DFX1 with a scenario header and
// per-record label/fate fields:
//
//	header:  magic "DFX2" | u8 scenario-len | scenario bytes | u16 count
//	record:  DFX1 record | u16 phase-idx | u8 label |
//	         u8 phase-len | phase bytes | u64 delivered | u64 dropped

var magic2 = [4]byte{'D', 'F', 'X', '2'}

const labeledFixedLen = recordLen + 2 + 1 + 1 + 8 + 8

// MarshalLabeled encodes labeled records (all from one scenario) into
// one export datagram.
func MarshalLabeled(scenario string, records []LabeledRecord) ([]byte, error) {
	if len(scenario) > 0xff {
		return nil, fmt.Errorf("flowexport: scenario name %d bytes exceeds 255", len(scenario))
	}
	if len(records) > 0xffff {
		return nil, fmt.Errorf("flowexport: %d records exceed datagram capacity", len(records))
	}
	buf := bytes.NewBuffer(make([]byte, 0, 7+len(scenario)+len(records)*(labeledFixedLen+16)))
	buf.Write(magic2[:])
	buf.WriteByte(byte(len(scenario)))
	buf.WriteString(scenario)
	binary.Write(buf, binary.BigEndian, uint16(len(records)))
	for _, r := range records {
		base, err := marshal([]Record{r.Record})
		if err != nil {
			return nil, err
		}
		buf.Write(base[6:]) // strip the DFX1 header, keep the record
		if len(r.Phase) > 0xff {
			return nil, fmt.Errorf("flowexport: phase name %d bytes exceeds 255", len(r.Phase))
		}
		binary.Write(buf, binary.BigEndian, r.PhaseIdx)
		buf.WriteByte(byte(r.Label))
		buf.WriteByte(byte(len(r.Phase)))
		buf.WriteString(r.Phase)
		binary.Write(buf, binary.BigEndian, r.Delivered)
		binary.Write(buf, binary.BigEndian, r.Dropped)
	}
	return buf.Bytes(), nil
}

// unmarshalLabeled decodes a labeled export datagram.
func unmarshalLabeled(b []byte) (scenario string, records []LabeledRecord, err error) {
	if len(b) < 5 || !bytes.Equal(b[:4], magic2[:]) {
		return "", nil, errors.New("flowexport: bad labeled magic")
	}
	off := 4
	nameLen := int(b[off])
	off++
	if len(b) < off+nameLen+2 {
		return "", nil, errors.New("flowexport: truncated labeled header")
	}
	scenario = string(b[off : off+nameLen])
	off += nameLen
	count := int(binary.BigEndian.Uint16(b[off : off+2]))
	off += 2
	records = make([]LabeledRecord, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < off+recordLen {
			return "", nil, fmt.Errorf("flowexport: record %d truncated", i)
		}
		// Reuse the DFX1 record decoder by prepending a 1-record header.
		hdr := append(append([]byte{}, magic[:]...), 0, 1)
		base, err := unmarshal(append(hdr, b[off:off+recordLen]...))
		if err != nil {
			return "", nil, err
		}
		off += recordLen
		if len(b) < off+2+1+1 {
			return "", nil, fmt.Errorf("flowexport: record %d label truncated", i)
		}
		var r LabeledRecord
		r.Record = base[0]
		r.Scenario = scenario
		r.PhaseIdx = binary.BigEndian.Uint16(b[off : off+2])
		off += 2
		r.Label = Label(b[off])
		off++
		phaseLen := int(b[off])
		off++
		if len(b) < off+phaseLen+16 {
			return "", nil, fmt.Errorf("flowexport: record %d phase truncated", i)
		}
		r.Phase = string(b[off : off+phaseLen])
		off += phaseLen
		r.Delivered = binary.BigEndian.Uint64(b[off : off+8])
		r.Dropped = binary.BigEndian.Uint64(b[off+8 : off+16])
		off += 16
		records = append(records, r)
	}
	if off != len(b) {
		return "", nil, fmt.Errorf("flowexport: %d trailing bytes", len(b)-off)
	}
	return scenario, records, nil
}

// WriteLabeledCSV writes records as a CSV with a header row — the
// offline-analysis form of the dataset (one row per labeled flow).
// Times are nanoseconds of simulated time.
func WriteLabeledCSV(w io.Writer, records []LabeledRecord) error {
	if _, err := io.WriteString(w,
		"scenario,phase_idx,phase,label,src,dst,proto,src_as,packets,bytes,first_ns,last_ns,delivered,dropped\n"); err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, r := range records {
		buf.Reset()
		buf.WriteString(csvQuote(r.Scenario))
		buf.WriteByte(',')
		buf.WriteString(strconv.FormatUint(uint64(r.PhaseIdx), 10))
		buf.WriteByte(',')
		buf.WriteString(csvQuote(r.Phase))
		buf.WriteByte(',')
		buf.WriteString(r.Label.String())
		buf.WriteByte(',')
		buf.WriteString(r.Src.String())
		buf.WriteByte(',')
		buf.WriteString(r.Dst.String())
		buf.WriteByte(',')
		buf.WriteString(strconv.FormatUint(uint64(r.Proto), 10))
		buf.WriteByte(',')
		buf.WriteString(strconv.FormatUint(uint64(r.SrcAS), 10))
		buf.WriteByte(',')
		buf.WriteString(strconv.FormatUint(r.Packets, 10))
		buf.WriteByte(',')
		buf.WriteString(strconv.FormatUint(r.Bytes, 10))
		buf.WriteByte(',')
		buf.WriteString(strconv.FormatInt(r.First.UnixNano(), 10))
		buf.WriteByte(',')
		buf.WriteString(strconv.FormatInt(r.Last.UnixNano(), 10))
		buf.WriteByte(',')
		buf.WriteString(strconv.FormatUint(r.Delivered, 10))
		buf.WriteByte(',')
		buf.WriteString(strconv.FormatUint(r.Dropped, 10))
		buf.WriteByte('\n')
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// csvQuote quotes a field when it contains CSV metacharacters.
func csvQuote(s string) string {
	if !bytes.ContainsAny([]byte(s), ",\"\n\r") {
		return s
	}
	return `"` + string(bytes.ReplaceAll([]byte(s), []byte(`"`), []byte(`""`))) + `"`
}

// SimTime converts a simulated-clock offset to the dataset's absolute
// time base (the same Unix-epoch mapping core.System.Now uses), for
// dataset builders that stamp records from a simulated clock.
func SimTime(at time.Duration) time.Time { return time.Unix(0, 0).UTC().Add(at) }

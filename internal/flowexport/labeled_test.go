package flowexport

import (
	"strings"
	"testing"
	"time"
)

func labeledFixture() []LabeledRecord {
	return []LabeledRecord{
		{
			Record: Record{
				Key:     key("10.4.0.9", "10.3.1.1", 17, 4),
				Packets: 8, Bytes: 512,
				First: time.Unix(10, 0).UTC(), Last: time.Unix(12, 0).UTC(),
			},
			Scenario: "pulsewave", Phase: "pre", PhaseIdx: 0,
			Label: LabelDDoS, Delivered: 8, Dropped: 0,
		},
		{
			Record: Record{
				Key:     key("10.3.0.2", "10.6.9.9", 17, 3),
				Packets: 3, Bytes: 210,
				First: time.Unix(40, 0).UTC(), Last: time.Unix(41, 0).UTC(),
			},
			Scenario: "pulsewave", Phase: "post, \"quoted\"", PhaseIdx: 2,
			Label: LabelSDDoS, Delivered: 1, Dropped: 2,
		},
	}
}

func TestLabeledRoundTrip(t *testing.T) {
	recs := labeledFixture()
	b, err := MarshalLabeled("pulsewave", recs)
	if err != nil {
		t.Fatal(err)
	}
	name, got, err := unmarshalLabeled(b)
	if err != nil {
		t.Fatal(err)
	}
	if name != "pulsewave" || len(got) != 2 {
		t.Fatalf("decoded %q, %d records", name, len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestLabeledErrors(t *testing.T) {
	recs := labeledFixture()
	b, err := MarshalLabeled("s", recs)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation point must fail cleanly, not panic.
	for n := 0; n < len(b); n++ {
		if _, _, err := unmarshalLabeled(b[:n]); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
	if _, _, err := unmarshalLabeled(append(b, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, _, err := unmarshalLabeled([]byte("DFX1")); err == nil {
		t.Error("v1 magic accepted")
	}
	if _, err := MarshalLabeled(strings.Repeat("x", 256), nil); err == nil {
		t.Error("oversized scenario name accepted")
	}
	long := recs[:1]
	long[0].Phase = strings.Repeat("p", 256)
	if _, err := MarshalLabeled("s", long); err == nil {
		t.Error("oversized phase name accepted")
	}
}

func TestWriteLabeledCSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteLabeledCSV(&sb, labeledFixture()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines: %d\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "scenario,phase_idx,phase,label,") {
		t.Errorf("header: %s", lines[0])
	}
	if !strings.Contains(lines[1], ",ddos,") || !strings.Contains(lines[2], ",sddos,") {
		t.Errorf("labels missing:\n%s", sb.String())
	}
	// The phase name with a comma and quotes must arrive CSV-escaped.
	if !strings.Contains(lines[2], `"post, ""quoted"""`) {
		t.Errorf("quoting: %s", lines[2])
	}
}

func TestLabelString(t *testing.T) {
	for l, want := range map[Label]string{
		LabelBenign: "benign", LabelDDoS: "ddos", LabelSDDoS: "sddos",
		LabelProbe: "probe", Label(9): "Label(9)",
	} {
		if l.String() != want {
			t.Errorf("%d: %q", l, l.String())
		}
	}
}

// FuzzUnmarshalLabeled: arbitrary labeled datagrams must never panic,
// and accepted ones must survive a marshal/unmarshal round trip.
func FuzzUnmarshalLabeled(f *testing.F) {
	b, _ := MarshalLabeled("pulsewave", labeledFixture())
	f.Add(b)
	f.Add([]byte("DFX2\x00\x00\x00"))
	f.Add([]byte("DFX1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		name, recs, err := unmarshalLabeled(data)
		if err != nil {
			return
		}
		out, err := MarshalLabeled(name, recs)
		if err != nil {
			t.Fatalf("decoded records fail to marshal: %v", err)
		}
		name2, recs2, err := unmarshalLabeled(out)
		if err != nil {
			t.Fatalf("re-marshal fails to unmarshal: %v", err)
		}
		if name2 != name || len(recs2) != len(recs) {
			t.Fatal("round trip changed the dataset")
		}
	})
}

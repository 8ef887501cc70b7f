package core

import "testing"

// opsOf returns the operations of function f that peer DASes
// (atPeer) or the victim DAS install, keyed by table: Table I read off
// the anatomy rows.
func opsOf(atPeer bool, f Function) map[TableKind]OpSet {
	out := make(map[TableKind]OpSet)
	for _, row := range anatomy[f] {
		if row.AtPeer == atPeer {
			out[row.Table] = out[row.Table].Add(row.Op)
		}
	}
	return out
}

// TestTableIAnatomy verifies the function decomposition against
// Table I of the paper, row by row.
func TestTableIAnatomy(t *testing.T) {
	// DP: a single peer-side filter on Out-Dst.
	peer := opsOf(true, DP)
	if len(peer) != 1 || !peer[TableOutDst].Has(OpDPFilter) {
		t.Errorf("DP peer ops = %v", peer)
	}
	if len(opsOf(false, DP)) != 0 {
		t.Errorf("DP victim ops = %v, want none", opsOf(false, DP))
	}

	// CDP: peer stamps on Out-Dst; victim verifies on In-Dst.
	peer = opsOf(true, CDP)
	if len(peer) != 1 || !peer[TableOutDst].Has(OpCDPStamp) {
		t.Errorf("CDP peer ops = %v", peer)
	}
	victim := opsOf(false, CDP)
	if len(victim) != 1 || !victim[TableInDst].Has(OpCDPVerify) {
		t.Errorf("CDP victim ops = %v", victim)
	}

	// SP: a single peer-side filter on Out-Src.
	peer = opsOf(true, SP)
	if len(peer) != 1 || !peer[TableOutSrc].Has(OpSPFilter) {
		t.Errorf("SP peer ops = %v", peer)
	}
	if len(opsOf(false, SP)) != 0 {
		t.Errorf("SP victim ops = %v, want none", opsOf(false, SP))
	}

	// CSP: victim stamps on Out-Src; peer verifies on In-Src.
	victim = opsOf(false, CSP)
	if len(victim) != 1 || !victim[TableOutSrc].Has(OpCSPStamp) {
		t.Errorf("CSP victim ops = %v", victim)
	}
	peer = opsOf(true, CSP)
	if len(peer) != 1 || !peer[TableInSrc].Has(OpCSPVerify) {
		t.Errorf("CSP peer ops = %v", peer)
	}
}

// TestPossibleOpsPerTable checks §V-A: the sets of possible functions
// for In-Src, In-Dst, Out-Src and Out-Dst are {CSP-verify},
// {CDP-verify}, {SP, CSP-stamp} and {DP, CDP-stamp}.
func TestPossibleOpsPerTable(t *testing.T) {
	perTable := map[TableKind]OpSet{}
	for f := DP; f < numFunctions; f++ {
		for table, ops := range opsOf(true, f) {
			perTable[table] |= ops
		}
		for table, ops := range opsOf(false, f) {
			perTable[table] |= ops
		}
	}
	want := map[TableKind]OpSet{
		TableInSrc:  OpSet(OpCSPVerify),
		TableInDst:  OpSet(OpCDPVerify),
		TableOutSrc: OpSet(OpSPFilter) | OpSet(OpCSPStamp),
		TableOutDst: OpSet(OpDPFilter) | OpSet(OpCDPStamp),
	}
	for table, ops := range want {
		if perTable[table] != ops {
			t.Errorf("%v possible ops = %v, want %v", table, perTable[table], ops)
		}
	}
}

func TestParseFunction(t *testing.T) {
	cases := map[string]Function{"DP": DP, "cdp": CDP, " SP ": SP, "Csp": CSP}
	for in, want := range cases {
		got, err := ParseFunction(in)
		if err != nil || got != want {
			t.Errorf("ParseFunction(%q) = %v %v", in, got, err)
		}
	}
	if _, err := ParseFunction("XYZ"); err == nil {
		t.Error("ParseFunction(XYZ) should fail")
	}
}

func TestFunctionString(t *testing.T) {
	for f, want := range map[Function]string{DP: "DP", CDP: "CDP", SP: "SP", CSP: "CSP"} {
		if f.String() != want {
			t.Errorf("%d.String() = %q", f, f.String())
		}
	}
}

func TestOpSetString(t *testing.T) {
	if OpSet(0).String() != "∅" {
		t.Error("empty OpSet string")
	}
	s := OpSet(OpDPFilter) | OpSet(OpCDPStamp)
	if s.String() != "DP-filter+CDP-stamp" {
		t.Errorf("OpSet string = %q", s.String())
	}
}

func TestTableKindString(t *testing.T) {
	names := map[TableKind]string{
		TableInSrc: "In-Src", TableInDst: "In-Dst",
		TableOutSrc: "Out-Src", TableOutDst: "Out-Dst",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

// TestSixBitsSuffice verifies the §VI-C2 claim that 6 bits store the
// function table state: 1 bit In-Src, 1 bit In-Dst, 2 bits Out-Src,
// 2 bits Out-Dst.
func TestSixBitsSuffice(t *testing.T) {
	all := OpSet(OpDPFilter | OpCDPStamp | OpCDPVerify | OpSPFilter | OpCSPStamp | OpCSPVerify)
	if all >= 1<<6 {
		t.Fatalf("op bits exceed 6: %08b", all)
	}
}

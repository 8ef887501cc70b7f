package core

import (
	"testing"
	"time"
)

func TestParseInvocationBasic(t *testing.T) {
	inv, err := parseInvocation("10.0.0.0/24:DP")
	if err != nil {
		t.Fatal(err)
	}
	if inv.Function != DP || inv.Duration != DefaultDuration || inv.Alarm {
		t.Fatalf("inv = %+v", inv)
	}
	if len(inv.Prefixes) != 1 || inv.Prefixes[0].String() != "10.0.0.0/24" {
		t.Fatalf("prefixes = %v", inv.Prefixes)
	}
}

func TestParseInvocationFull(t *testing.T) {
	inv, err := parseInvocation("10.0.0.0/24+10.1.0.0/24:cdp:90m:alarm")
	if err != nil {
		t.Fatal(err)
	}
	if inv.Function != CDP || inv.Duration != 90*time.Minute || !inv.Alarm {
		t.Fatalf("inv = %+v", inv)
	}
	if len(inv.Prefixes) != 2 {
		t.Fatalf("prefixes = %v", inv.Prefixes)
	}
}

func TestParseInvocationIPv6(t *testing.T) {
	inv, err := parseInvocation("2001:db8::/48:CSP:30m")
	if err != nil {
		t.Fatal(err)
	}
	if inv.Function != CSP || inv.Duration != 30*time.Minute {
		t.Fatalf("inv = %+v", inv)
	}
	if inv.Prefixes[0].String() != "2001:db8::/48" {
		t.Fatalf("prefix = %v", inv.Prefixes[0])
	}
}

func TestParseInvocationMasksHostBits(t *testing.T) {
	inv, err := parseInvocation("10.0.0.7/24:SP")
	if err != nil {
		t.Fatal(err)
	}
	if inv.Prefixes[0].String() != "10.0.0.0/24" {
		t.Fatalf("prefix = %v", inv.Prefixes[0])
	}
}

func TestParseInvocationErrors(t *testing.T) {
	bad := []string{
		"",                      // empty
		"DP",                    // no prefix
		"10.0.0.0/24",           // no function
		"10.0.0.0/24:XX",        // unknown function
		"zz/24:DP",              // bad prefix
		"10.0.0.0/24:DP:xyz",    // bad duration
		"10.0.0.0/24:DP:-5m",    // negative duration (Validate)
		"10.0.0.0/24+zz/8:CDP",  // bad second prefix
		"10.0.0.0/24:DP:1h:wat", // trailing junk
	}
	for _, s := range bad {
		if _, err := parseInvocation(s); err == nil {
			t.Errorf("ParseInvocation(%q) should fail", s)
		}
	}
}

func TestParseInvocations(t *testing.T) {
	invs, err := ParseInvocations("10.0.0.0/24:DP, 10.0.0.0/24:CDP:2h")
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 2 || invs[0].Function != DP || invs[1].Duration != 2*time.Hour {
		t.Fatalf("invs = %+v", invs)
	}
	if _, err := ParseInvocations(" , "); err == nil {
		t.Fatal("empty list should fail")
	}
	if _, err := ParseInvocations("10.0.0.0/24:DP,bad"); err == nil {
		t.Fatal("bad element should fail")
	}
}

func TestInvocationStringRoundTrip(t *testing.T) {
	for _, s := range []string{
		"10.0.0.0/24:DP:24h0m0s",
		"10.0.0.0/24+10.1.0.0/24:CDP:1h30m0s:alarm",
		"2001:db8::/48:CSP:30m0s",
	} {
		inv, err := parseInvocation(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		again, err := parseInvocation(inv.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", inv.String(), err)
		}
		if again.Function != inv.Function || again.Duration != inv.Duration ||
			again.Alarm != inv.Alarm || len(again.Prefixes) != len(inv.Prefixes) {
			t.Fatalf("round trip %q -> %q -> %+v", s, inv.String(), again)
		}
	}
}

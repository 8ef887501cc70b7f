package topology

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/netip"
	"sort"
	"strings"
	"testing"
	"time"
)

func addr(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatalf("ParseAddr(%q): %v", s, err)
	}
	return a
}

func smallGen(t *testing.T, n int, seed int64) *Topology {
	t.Helper()
	tp, err := GenerateInternet(GenConfig{
		NumASes: n, NumPrefixes: n * 3, ZipfExponent: 1.0, TierOneCount: 5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestGenerateBasics(t *testing.T) {
	tp := smallGen(t, 500, 1)
	if tp.NumASes() != 500 {
		t.Fatalf("NumASes = %d", tp.NumASes())
	}
	// Every AS owns at least one prefix and positive space.
	for _, asn := range tp.ASNs() {
		a := tp.AS(asn)
		if len(a.Prefixes) == 0 || a.AddrSpace == 0 {
			t.Fatalf("AS%d has no space: %+v", asn, a)
		}
	}
	if tp.total == 0 {
		t.Fatal("zero total space")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := smallGen(t, 300, 7)
	b := smallGen(t, 300, 7)
	var bufA, bufB bytes.Buffer
	if err := writePrefix2AS(a, &bufA); err != nil {
		t.Fatal(err)
	}
	if err := writePrefix2AS(b, &bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("same seed produced different topologies")
	}
	c := smallGen(t, 300, 8)
	var bufC bytes.Buffer
	writePrefix2AS(c, &bufC)
	if bytes.Equal(bufA.Bytes(), bufC.Bytes()) {
		t.Fatal("different seeds produced identical topologies")
	}
}

func TestGeneratePrefixesDisjoint(t *testing.T) {
	tp := smallGen(t, 400, 3)
	// Since allocation is sequential, prefixes must not overlap: check
	// that every prefix's base address maps back to its owner.
	for _, asn := range tp.ASNs() {
		for _, p := range tp.AS(asn).Prefixes {
			got, ok := tp.OwnerOf(p.Addr())
			if !ok || got != asn {
				t.Fatalf("prefix %v of AS%d maps to AS%d (%v)", p, asn, got, ok)
			}
		}
	}
}

func TestGenerateHeavyTail(t *testing.T) {
	tp := smallGen(t, 2000, 1)
	order := tp.BySizeDesc()
	// Cumulative share of the top 5% must be well above 5% (heavy
	// tail); with Zipf α≈1 over 2000 ASes the top 100 hold >50%.
	var top float64
	for _, asn := range order[:100] {
		top += tp.Ratio(asn)
	}
	if top < 0.4 {
		t.Fatalf("top-5%% share = %.3f, distribution not heavy-tailed", top)
	}
	// And monotone: BySizeDesc must be sorted.
	for i := 1; i < len(order); i++ {
		if tp.AS(order[i-1]).AddrSpace < tp.AS(order[i]).AddrSpace {
			t.Fatal("BySizeDesc not sorted")
		}
	}
}

func TestGenerateSizesIndependentOfASN(t *testing.T) {
	// The permutation must decouple ASN from rank: the largest AS
	// should not always be AS1.
	hits := 0
	for seed := int64(0); seed < 5; seed++ {
		tp := smallGen(t, 200, seed)
		if tp.BySizeDesc()[0] == 1 {
			hits++
		}
	}
	if hits == 5 {
		t.Fatal("largest AS is always AS1; permutation broken")
	}
}

func TestGenerateGraphConnected(t *testing.T) {
	tp := smallGen(t, 300, 2)
	// Every non-tier-1 AS has at least one provider.
	noProv := 0
	for _, asn := range tp.ASNs() {
		if asn <= 5 {
			continue
		}
		if len(tp.AS(asn).Providers) == 0 {
			noProv++
		}
	}
	if noProv > 0 {
		t.Fatalf("%d ASes without providers", noProv)
	}
	// Valley-free paths exist between random stub pairs.
	miss := 0
	for i := ASN(100); i < 120; i++ {
		if _, ok := tp.Path(i, i+100); !ok {
			miss++
		}
	}
	if miss > 0 {
		t.Fatalf("%d stub pairs unreachable", miss)
	}
}

func TestGenerateSkipLinks(t *testing.T) {
	tp, err := GenerateInternet(GenConfig{NumASes: 100, NumPrefixes: 200, Seed: 1, SkipLinks: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, asn := range tp.ASNs() {
		if tp.AS(asn).Degree() != 0 {
			t.Fatal("SkipLinks should produce no links")
		}
	}
}

func TestGeneratePaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale generation in -short mode")
	}
	cfg := DefaultGenConfig()
	cfg.SkipLinks = true
	tp, err := GenerateInternet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumASes() != 44036 {
		t.Fatalf("NumASes = %d", tp.NumASes())
	}
	if tp.Pfx2AS().Len() < 100_000 {
		t.Fatalf("only %d prefixes", tp.Pfx2AS().Len())
	}
	// The head must be heavy: cumulative share of the 629 largest ASes
	// should be large (the paper's 90%-effectiveness point).
	order := tp.BySizeDesc()
	var cum float64
	for _, asn := range order[:629] {
		cum += tp.Ratio(asn)
	}
	if cum < 0.5 {
		t.Fatalf("top-629 share = %.3f; tail not heavy enough for Fig 7 shape", cum)
	}
}

func TestCarve(t *testing.T) {
	cases := []struct {
		size uint64
		n    int
	}{
		{1, 1}, {255, 1}, {256, 1}, {257, 2}, {65536, 4},
		{16777216, 1}, {50_000_000, 8}, {1, 8},
	}
	for _, c := range cases {
		bits, count := carve(c.size, c.n)
		if count == 0 || count > c.n {
			t.Fatalf("carve(%d,%d) = %d blocks", c.size, c.n, count)
		}
		if bits > 32 || bits < 8 {
			t.Fatalf("carve(%d,%d) produced /%d", c.size, c.n, bits)
		}
		covered := uint64(count) << (32 - bits)
		// Must cover the requested size when expressible.
		max := uint64(c.n) << 24
		want := c.size
		if want > max {
			want = max
		}
		if covered < want {
			t.Fatalf("carve(%d,%d) covers %d < %d", c.size, c.n, covered, want)
		}
	}
}

// TestGenerateSingleTierOne: with one tier-1 AS (TierOneCount 0 or 1),
// the first AS after it has one possible provider. A draw of two used
// to spin forever looking for a second; seed 4 draws two.
func TestGenerateSingleTierOne(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := GenerateInternet(GenConfig{NumASes: 10, Seed: 4})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("GenerateInternet with one tier-1 AS did not return")
	}
}

func TestGenerateConfigValidation(t *testing.T) {
	if _, err := GenerateInternet(GenConfig{NumASes: 0}); err == nil {
		t.Fatal("NumASes 0 should fail")
	}
	// Degenerate values are clamped, not fatal.
	tp, err := GenerateInternet(GenConfig{NumASes: 3, TierOneCount: 99, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumASes() != 3 {
		t.Fatal("clamping broken")
	}
}

func TestLoadPrefix2AS(t *testing.T) {
	in := `# comment
1.0.0.0	24	13335
1.1.0.0	16	4134
2.0.0.0	8	3356
9.9.9.0	24	19281_19282
10.0.0.0	8	1,2
`
	tp, err := loadPrefix2AS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if asn, _ := tp.OwnerOf(addr(t, "1.0.0.5")); asn != 13335 {
		t.Fatalf("owner = %d", asn)
	}
	if asn, _ := tp.OwnerOf(addr(t, "2.200.0.5")); asn != 3356 {
		t.Fatalf("owner = %d", asn)
	}
	// AS-set: space split evenly.
	a1, a2 := tp.AS(19281), tp.AS(19282)
	if a1 == nil || a2 == nil || a1.AddrSpace != 128 || a2.AddrSpace != 128 {
		t.Fatalf("AS-set split wrong: %+v %+v", a1, a2)
	}
	// Multi-origin via comma.
	if tp.AS(1).AddrSpace != 1<<23 || tp.AS(2).AddrSpace != 1<<23 {
		t.Fatal("comma multi-origin split wrong")
	}
	// Total counts each prefix once.
	want := uint64(1<<8 + 1<<16 + 1<<24 + 1<<8 + 1<<24)
	if tp.total != want {
		t.Fatalf("total space = %d, want %d", tp.total, want)
	}
}

func TestLoadPrefix2ASErrors(t *testing.T) {
	bad := []string{
		"1.0.0.0\t24",    // 2 fields
		"zz\t24\t1",      // bad addr
		"1.0.0.0\t99\t1", // bad bits
		"1.0.0.0\t24\tx", // bad ASN
		"1.0.0.0\t24\t0", // ASN 0
	}
	for _, line := range bad {
		if _, err := loadPrefix2AS(strings.NewReader(line)); err == nil {
			t.Errorf("line %q should fail", line)
		}
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	tp := smallGen(t, 100, 4)
	var buf bytes.Buffer
	if err := writePrefix2AS(tp, &buf); err != nil {
		t.Fatal(err)
	}
	tp2, err := loadPrefix2AS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tp2.Pfx2AS().Len() != tp.Pfx2AS().Len() {
		t.Fatalf("prefix count %d != %d", tp2.Pfx2AS().Len(), tp.Pfx2AS().Len())
	}
	// Ratios must agree.
	for _, asn := range tp.ASNs() {
		r1, r2 := tp.Ratio(asn), tp2.Ratio(asn)
		if math.Abs(r1-r2) > 1e-9 {
			t.Fatalf("AS%d ratio %v != %v", asn, r1, r2)
		}
	}
}

func TestRatiosSumToOne(t *testing.T) {
	tp := smallGen(t, 500, 9)
	var sum float64
	for _, asn := range tp.ASNs() {
		sum += tp.Ratio(asn)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ratios sum to %v", sum)
	}
	// Sorted ratios should be heavy-tailed (max >> median).
	var rs []float64
	for _, asn := range tp.ASNs() {
		rs = append(rs, tp.Ratio(asn))
	}
	sort.Float64s(rs)
	if rs[len(rs)-1] < 10*rs[len(rs)/2] {
		t.Fatalf("max ratio %v not >> median %v", rs[len(rs)-1], rs[len(rs)/2])
	}
}

// writePrefix2AS dumps the topology's prefix-to-AS mapping in the
// prefix2as text format, sorted for determinism.
func writePrefix2AS(t *Topology, w io.Writer) error {
	type row struct {
		p   netip.Prefix
		asn ASN
	}
	var rows []row
	t.pfx2as.Walk(func(p netip.Prefix, asn ASN) bool {
		rows = append(rows, row{p, asn})
		return true
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].p.String() < rows[j].p.String() })
	bw := bufio.NewWriter(w)
	for _, r := range rows {
		fmt.Fprintf(bw, "%s\t%d\t%d\n", r.p.Addr(), r.p.Bits(), r.asn)
	}
	return bw.Flush()
}

package securechan

import (
	"bytes"
	"crypto/ecdh"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// The kernel tests call scalarMult and the field ops directly and hold
// them to crypto/ecdh or to math/big. They skip where the kernel cannot
// run, and where the fallback is forced: that run tests crypto/ecdh's
// path through the handshake tests.

func needKernel(tb testing.TB) {
	tb.Helper()
	if !useKernel {
		tb.Skip("X25519 kernel not in use (no BMI2/ADX, another architecture, or the fallback forced)")
	}
}

func mustHex32(tb testing.TB, s string) *[32]byte {
	tb.Helper()
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 32 {
		tb.Fatalf("bad test vector %q", s)
	}
	return (*[32]byte)(b)
}

// stdX25519 is crypto/ecdh's X25519 of scalar and point; ok is false
// where crypto/ecdh refuses the all-zero result.
func stdX25519(tb testing.TB, scalar, point *[32]byte) (out [32]byte, ok bool) {
	tb.Helper()
	priv, err := ecdh.X25519().NewPrivateKey(scalar[:])
	if err != nil {
		tb.Fatal(err)
	}
	pub, err := ecdh.X25519().NewPublicKey(point[:])
	if err != nil {
		tb.Fatal(err)
	}
	s, err := priv.ECDH(pub)
	if err != nil {
		return out, false
	}
	copy(out[:], s)
	return out, true
}

func TestLadderStateLayout(t *testing.T) {
	var st ladderState
	if unsafe.Offsetof(st.x3)-unsafe.Offsetof(st.x2) != 64 || unsafe.Offsetof(st.z3)-unsafe.Offsetof(st.z2) != 64 {
		t.Fatal("the conditional swap needs x3 and z3 64 bytes after x2 and z2")
	}
}

// TestX25519RFC7748 checks the kernel against RFC 7748 §5.2: the two
// test vectors and the iterated function after 1 and 1,000 rounds
// (k, u := X25519(k, u), k from 9, 9).
func TestX25519RFC7748(t *testing.T) {
	needKernel(t)
	for _, v := range []struct{ scalar, u, want string }{
		{"a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
			"e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
			"c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"},
		{"4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
			"e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
			"95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"},
	} {
		var got [32]byte
		scalarMult(&got, mustHex32(t, v.scalar), mustHex32(t, v.u), false)
		if want := mustHex32(t, v.want); got != *want {
			t.Errorf("X25519(%s…, %s…) = %x, want %x", v.scalar[:8], v.u[:8], got, *want)
		}
	}
	k, u := basePoint, basePoint
	for i := 1; i <= 1000; i++ {
		var r [32]byte
		scalarMult(&r, &k, &u, false)
		u, k = k, r
		var want string
		switch i {
		case 1:
			want = "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
		case 1000:
			want = "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
		default:
			continue
		}
		if k != *mustHex32(t, want) {
			t.Fatalf("after %d iterations k = %x, want %s", i, k, want)
		}
	}
}

// lowOrderPoints are the u-coordinates of the points of order 2, 4 and
// 8 (0, 1, p-1 and the two of order 8) and the non-canonical p and p+1;
// X25519 of any scalar with one of them is zero. (With bit 255 masked,
// no other encoding reaches them.)
var lowOrderPoints = []string{
	"0000000000000000000000000000000000000000000000000000000000000000",
	"0100000000000000000000000000000000000000000000000000000000000000",
	"e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
	"5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
	"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	"edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
}

// TestX25519MatchesECDH is the differential: 100,000 seeded (scalar,
// point) pairs, four points to a scalar, among them random points,
// points with bit 255 set, non-canonical points in [p, 2^255) and the
// low-order points (both sides must refuse them), plus each scalar
// times the base point through the x₁ = 9 ladder.
func TestX25519MatchesECDH(t *testing.T) {
	needKernel(t)
	pairs := 100_000
	if testing.Short() || raceEnabled {
		pairs = 2_000
	}
	rng := rand.New(rand.NewSource(7748))
	var scalar, point, got [32]byte
	for i := 0; i < pairs; i += 4 {
		rng.Read(scalar[:])
		priv, err := ecdh.X25519().NewPrivateKey(scalar[:])
		if err != nil {
			t.Fatal(err)
		}
		scalarMult(&got, &scalar, &basePoint, true)
		if want := priv.PublicKey().Bytes(); !bytes.Equal(got[:], want) {
			t.Fatalf("scalar %x: base kernel %x, crypto/ecdh %x", scalar, got, want)
		}
		for kind := range 4 {
			rng.Read(point[:])
			switch kind {
			case 1: // bit 255 set
				point[31] |= 0x80
			case 2: // non-canonical: p plus 0..18, below 2^255
				point = [32]byte{0xed, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
					0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
				point[0] += byte(rng.Intn(19))
			case 3:
				if i%64 == 0 { // low order, now and then
					point = *mustHex32(t, lowOrderPoints[rng.Intn(len(lowOrderPoints))])
				}
			}
			pub, err := ecdh.X25519().NewPublicKey(point[:])
			if err != nil {
				t.Fatal(err)
			}
			want, stdErr := priv.ECDH(pub)
			err = kernelX25519(&got, &scalar, &point)
			if (err == nil) != (stdErr == nil) || stdErr == nil && !bytes.Equal(got[:], want) {
				t.Fatalf("scalar %x point %x: kernel %x (%v), crypto/ecdh %x (%v)", scalar, point, got, err, want, stdErr)
			}
		}
	}
	for _, s := range lowOrderPoints {
		point = *mustHex32(t, s)
		if err := kernelX25519(&got, &scalar, &point); err == nil {
			t.Errorf("low-order point %s accepted", s)
		}
	}
}

// p25519 is 2^255-19.
var p25519 = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))

func feBig(x *fe) *big.Int {
	var b [32]byte
	for i, l := range x {
		for j := range 8 {
			b[31-8*i-j] = byte(l >> (8 * j))
		}
	}
	return new(big.Int).SetBytes(b[:])
}

// edgeLimbs are the limb values whose carries the reductions must get
// right: zero, around 38 (the fold constant), the top bit and the
// values just below 2^64.
var edgeLimbs = []uint64{0, 1, 18, 19, 37, 38, 39, 1 << 63, 1<<63 - 1, 1<<64 - 39, 1<<64 - 38, 1<<64 - 20, 1<<64 - 19, 1<<64 - 2, 1<<64 - 1}

func edgeFe(rng *rand.Rand) fe {
	var x fe
	for i := range x {
		if rng.Intn(4) == 0 {
			x[i] = rng.Uint64()
		} else {
			x[i] = edgeLimbs[rng.Intn(len(edgeLimbs))]
		}
	}
	return x
}

// tightBound is 2^255 + 2^11: every multiplication, squaring and
// constant multiplication leaves its result below it, and the ladder's
// additions and subtractions need their inputs below it.
var tightBound = new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(1<<11))

// tightFe is edgeFe held below tightBound, the edge included.
func tightFe(rng *rand.Rand) fe {
	x := edgeFe(rng)
	if x[3] >= 1<<63 {
		x = fe{uint64(rng.Intn(1 << 11)), 0, 0, 1 << 63}
	}
	return x
}

// TestFieldOpsMatchBig holds feMul, feSqrN, the in-ladder add, sub and
// constant multiply (through one ladder step) and encode to math/big
// mod p, on inputs drawn from edge limbs that random inputs would
// almost never produce.
func TestFieldOpsMatchBig(t *testing.T) {
	needKernel(t)
	rng := rand.New(rand.NewSource(25519))
	mod := func(v *big.Int) *big.Int { return v.Mod(v, p25519) }
	same := func(what string, got *fe, want *big.Int, in ...fe) {
		t.Helper()
		g := feBig(got)
		if mod(new(big.Int).Set(g)).Cmp(mod(want)) != 0 {
			t.Fatalf("%s(%x): got %x, want %x mod p", what, in, g, want)
		}
	}
	tight := func(what string, got *fe, in ...fe) {
		t.Helper()
		if feBig(got).Cmp(tightBound) >= 0 {
			t.Fatalf("%s(%x) = %x, not below 2^255 + 2^11", what, in, *got)
		}
	}
	n := 20_000
	if testing.Short() || raceEnabled {
		n = 2_000
	}
	for range n {
		x, y := edgeFe(rng), edgeFe(rng)
		bx, by := feBig(&x), feBig(&y)
		var z fe
		feMul(&z, &x, &y)
		same("feMul", &z, new(big.Int).Mul(bx, by), x, y)
		tight("feMul", &z, x, y)
		feSqrN(&z, &x, 1)
		same("feSqrN", &z, new(big.Int).Mul(bx, bx), x)
		tight("feSqrN", &z, x)
		feSqrN(&z, &x, 3)
		same("feSqrN^3", &z, new(big.Int).Exp(bx, big.NewInt(8), p25519), x)

		var out [32]byte
		encode(&out, &x)
		want := mod(new(big.Int).Set(bx)).FillBytes(make([]byte, 32))
		for i, j := 0, 31; i < j; i, j = i+1, j-1 {
			want[i], want[j] = want[j], want[i]
		}
		if !bytes.Equal(out[:], want) {
			t.Fatalf("encode(%x) = %x, want %x", x, out, want)
		}

		// One ladder step at bit 0 of a zero scalar runs every
		// operation of the step on chosen (x2, z2, x3, z3) below
		// 2^255 + 2^11; its outputs are checked against the RFC 7748
		// formulas and must stay below that bound for the next step.
		x2, z2, x3, z3 := tightFe(rng), tightFe(rng), tightFe(rng), tightFe(rng)
		x1 := edgeFe(rng)
		for _, base := range []bool{false, true} {
			st := ladderState{x1: x1, x2: x2, z2: z2, x3: x3, z3: z3}
			if base {
				st.base = 1
				st.x1 = fe{9}
			}
			ladder(&st)
			b1 := feBig(&st.x1)
			A := new(big.Int).Add(feBig(&x2), feBig(&z2))
			B := new(big.Int).Sub(feBig(&x2), feBig(&z2))
			C := new(big.Int).Add(feBig(&x3), feBig(&z3))
			D := new(big.Int).Sub(feBig(&x3), feBig(&z3))
			AA, BB := new(big.Int).Mul(A, A), new(big.Int).Mul(B, B)
			E := new(big.Int).Sub(AA, BB)
			DA, CB := new(big.Int).Mul(D, A), new(big.Int).Mul(C, B)
			sum, diff := new(big.Int).Add(DA, CB), new(big.Int).Sub(DA, CB)
			same("step x3", &st.x3, new(big.Int).Mul(sum, sum), x2, z2, x3, z3)
			same("step z3", &st.z3, new(big.Int).Mul(b1, new(big.Int).Mul(diff, diff)), x1, x2, z2, x3, z3)
			same("step x2", &st.x2, new(big.Int).Mul(AA, BB), x2, z2)
			a24E := new(big.Int).Mul(big.NewInt(121665), E)
			same("step z2", &st.z2, new(big.Int).Mul(E, a24E.Add(a24E, AA)), x2, z2)
			for _, out := range []*fe{&st.x2, &st.z2, &st.x3, &st.z3} {
				tight("step", out, x1, x2, z2, x3, z3)
			}
		}
	}
	// encode's folds and final subtraction of p, on the values around
	// p, 2^255, 2p and 2^256 where they decide.
	for _, v := range []*big.Int{
		big.NewInt(0), big.NewInt(18), big.NewInt(19), big.NewInt(38),
		new(big.Int).Sub(p25519, big.NewInt(1)), p25519, new(big.Int).Add(p25519, big.NewInt(1)),
		new(big.Int).Add(p25519, big.NewInt(18)), new(big.Int).Add(p25519, big.NewInt(19)),
		new(big.Int).Add(p25519, big.NewInt(38)),
		new(big.Int).Sub(new(big.Int).Lsh(p25519, 1), big.NewInt(1)), new(big.Int).Lsh(p25519, 1),
		new(big.Int).Add(new(big.Int).Lsh(p25519, 1), big.NewInt(37)),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)),
	} {
		var x fe
		for i := range x {
			x[i] = new(big.Int).Rsh(v, uint(64*i)).Uint64()
		}
		var out [32]byte
		encode(&out, &x)
		want := mod(new(big.Int).Set(v)).FillBytes(make([]byte, 32))
		slices.Reverse(want)
		if !bytes.Equal(out[:], want) {
			t.Errorf("encode(%x) = %x, want %x", v, out, want)
		}
	}
	// 0 has no inverse; invert maps it to 0 as crypto/ecdh's does.
	var zero, inv fe
	invert(&inv, &zero)
	same("invert", &inv, new(big.Int), zero)
	for range 200 {
		x := edgeFe(rng)
		invert(&inv, &x)
		bx := mod(feBig(&x))
		if bx.Sign() == 0 {
			continue
		}
		same("invert", &inv, new(big.Int).ModInverse(bx, p25519), x)
	}
}

// FuzzX25519 holds the kernel to crypto/ecdh on arbitrary scalars and
// points, refusals included.
func FuzzX25519(f *testing.F) {
	needKernel(f)
	f.Add(make([]byte, 32), make([]byte, 32))
	f.Add(bytes.Repeat([]byte{0xff}, 32), bytes.Repeat([]byte{0xff}, 32))
	f.Add(basePoint[:], basePoint[:])
	for _, s := range lowOrderPoints {
		b, _ := hex.DecodeString(s)
		f.Add(basePoint[:], b)
	}
	f.Fuzz(func(t *testing.T, scalar, point []byte) {
		if len(scalar) < 32 || len(point) < 32 {
			return
		}
		k, p := [32]byte(scalar), [32]byte(point)
		want, ok := stdX25519(t, &k, &p)
		var got [32]byte
		if err := kernelX25519(&got, &k, &p); (err == nil) != ok || got != want {
			t.Fatalf("scalar %x point %x: kernel %x (%v), crypto/ecdh %x (ok %v)", k, p, got, err, want, ok)
		}
		var pub [32]byte
		scalarMult(&pub, &k, &basePoint, true)
		if want, _ := stdX25519(t, &k, &basePoint); pub != want {
			t.Fatalf("scalar %x: base kernel %x, crypto/ecdh %x", k, pub, want)
		}
	})
}

var benchSink []byte

// BenchmarkX25519 compares the kernels with crypto/ecdh in one process.
// Each iteration times a batch of variable-point multiplications on
// crypto/ecdh, one on the one-lane kernel, one of base-point
// multiplications on it and, where the 4-lane kernel runs, batches of
// x25519Batch calls of 1, 3 and 4 lanes (a handshake's Finish runs 3,
// its Respond 4, one of them a public key), in an order that reverses
// every iteration, so that a slow spell of a shared host falls on all of
// them. It reports the median time per multiplication or call of each,
// the quartiles of the per-iteration speed-up (crypto/ecdh time over
// kernel time), the 4-lane call's time per multiplication and its
// median cost in one-lane variable-point multiplications.
//
//	go test -run '^$' -bench X25519 -benchtime 40x ./internal/securechan
func BenchmarkX25519(b *testing.B) {
	needKernel(b)
	scalar := *mustHex32(b, "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")
	point := *mustHex32(b, "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c")
	priv, err := ecdh.X25519().NewPrivateKey(scalar[:])
	if err != nil {
		b.Fatal(err)
	}
	pub, err := ecdh.X25519().NewPublicKey(point[:])
	if err != nil {
		b.Fatal(err)
	}
	const batch = 100
	timeBatch := func(f func()) float64 {
		start := time.Now()
		for range batch {
			f()
		}
		return float64(time.Since(start).Nanoseconds()) / batch
	}
	var out [32]byte
	var dh [4][32]byte
	k := keyPair{priv: scalar}
	eph := keyPair{priv: *mustHex32(b, "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d")}
	respond := []mul{{k: &eph}, {k: &k, peer: &point}, {k: &eph, peer: &point}, {k: &k, peer: &point}}
	runs := []struct {
		name string
		f    func()
		t    []float64
	}{
		{name: "ecdh_ns", f: func() { benchSink, _ = priv.ECDH(pub) }},
		{name: "kernel_ns", f: func() { scalarMult(&out, &scalar, &point, false) }},
		{name: "kernel_base_ns", f: func() { scalarMult(&out, &scalar, &basePoint, true) }},
	}
	if useLanes {
		for _, n := range []int{1, 3, 4} {
			ms := respond[4-n:]
			runs = append(runs, struct {
				name string
				f    func()
				t    []float64
			}{name: fmt.Sprintf("lanes%d_ns", n), f: func() { x25519Batch(&dh, ms) }})
		}
	}
	for i := range b.N {
		for j := range runs {
			if i%2 == 1 {
				j = len(runs) - 1 - j
			}
			runs[j].t = append(runs[j].t, timeBatch(runs[j].f))
		}
	}
	q := func(v []float64, f float64) float64 {
		v = slices.Clone(v)
		slices.Sort(v)
		return v[int(f*float64(len(v)-1)+0.5)]
	}
	ratio := func(num, den []float64) []float64 {
		r := make([]float64, len(num))
		for i := range num {
			r[i] = num[i] / den[i]
		}
		return r
	}
	b.ReportMetric(0, "ns/op")
	for _, r := range runs {
		b.ReportMetric(q(r.t, 0.5), r.name)
	}
	std, kern, base := runs[0].t, runs[1].t, runs[2].t
	speedup := ratio(std, kern)
	b.ReportMetric(q(speedup, 0.25), "speedup_p25")
	b.ReportMetric(q(speedup, 0.5), "speedup_p50")
	b.ReportMetric(q(speedup, 0.75), "speedup_p75")
	b.ReportMetric(q(ratio(std, base), 0.5), "base_speedup_p50")
	if useLanes {
		lanes4 := runs[len(runs)-1].t
		b.ReportMetric(q(lanes4, 0.5)/4, "lanes4_ns_per_mul")
		b.ReportMetric(q(ratio(lanes4, kern), 0.5), "lanes4_in_kernel_muls")
	}
}

package securechan

import (
	"bytes"
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// The 4-lane kernel tests hold laneMult and x25519Batch to crypto/ecdh
// and the kernel's field arithmetic to math/big. TestX25519BatchMatchesECDH
// runs on every path (on the fallbacks it checks the lane-by-lane
// batch); the others need the 4-lane kernel.

func needLanes(tb testing.TB) {
	tb.Helper()
	if !useLanes {
		tb.Skip("4-lane X25519 kernel not in use (no AVX-512 IFMA, another architecture, or a fallback forced)")
	}
}

func TestLaneStateLayout(t *testing.T) {
	var st laneState
	if unsafe.Offsetof(st.x3)-unsafe.Offsetof(st.x2) != 320 || unsafe.Offsetof(st.z3)-unsafe.Offsetof(st.z2) != 320 {
		t.Fatal("the 4-lane conditional swap needs x3 and z3 320 bytes after x2 and z2")
	}
}

// lanePoint draws a u-coordinate of the given kind: 0 random, 1 with bit
// 255 set, 2 non-canonical (p plus 0..18, below 2^255), 3 low order, 4
// the base point.
func lanePoint(tb testing.TB, rng *rand.Rand, kind int) (u [32]byte) {
	switch kind {
	case 0:
		rng.Read(u[:])
	case 1:
		rng.Read(u[:])
		u[31] |= 0x80
	case 2:
		u = *mustHex32(tb, lowOrderPoints[5]) // p
		u[0] += byte(rng.Intn(19))
	case 3:
		u = *mustHex32(tb, lowOrderPoints[rng.Intn(len(lowOrderPoints))])
	case 4:
		u = basePoint
	}
	return u
}

// TestX25519BatchMatchesECDH is the batch differential: 100,000 seeded
// lanes in batches of one to four that mix the base point (a public key
// lane), random points, points with bit 255 set, non-canonical points
// and, now and then, low-order points. Every lane before the first
// refused one must equal crypto/ecdh, and the batch's error must be the
// one the lanes run in order would have returned first. Where batches
// run lane by lane, the arithmetic is the one-lane kernel's or
// crypto/ecdh's, which TestX25519MatchesECDH covers, and 2,000 lanes
// check the batch around it.
func TestX25519BatchMatchesECDH(t *testing.T) {
	lanes := 100_000
	if testing.Short() || raceEnabled || !useLanes {
		lanes = 2_000
	}
	rng := rand.New(rand.NewSource(4))
	keys := make([]keyPair, 4)
	points := make([][32]byte, 4)
	for done := 0; done < lanes; {
		n := 1 + rng.Intn(4)
		ms := make([]mul, n)
		for i := range ms {
			rng.Read(keys[i].priv[:])
			if !useKernel { // the crypto/ecdh path agrees through the key's std form
				if err := x25519Base(&keys[i]); err != nil {
					t.Fatal(err)
				}
			}
			kind := rng.Intn(5)
			if kind == 3 && rng.Intn(8) != 0 {
				kind = 0
			}
			points[i] = lanePoint(t, rng, kind)
			ms[i].k = &keys[i]
			if kind == 4 {
				keys[i].pub = [32]byte{}
			} else {
				ms[i].peer = &points[i]
			}
		}
		var out [4][32]byte
		err := x25519Batch(&out, ms)
		var wantErr error
		for i, m := range ms {
			want, ok := stdX25519(t, &m.k.priv, &points[i])
			got := out[i]
			if m.peer == nil {
				got = m.k.pub
			}
			if !ok {
				wantErr = errLowOrder
				break
			}
			if got != want {
				t.Fatalf("lane %d of %d, scalar %x point %x: batch %x, crypto/ecdh %x", i, n, m.k.priv, points[i], got, want)
			}
		}
		if err != wantErr {
			t.Fatalf("batch of %d: error %v, want %v", n, err, wantErr)
		}
		done += n
	}
}

// FuzzX25519Batch holds laneMult to crypto/ecdh on four arbitrary
// (scalar, point) lanes, refusals (all-zero results) included. A seed
// mixes low-order lanes with the base point and an ordinary point: a
// lane whose z is 0 must not disturb the shared inversion of the others.
func FuzzX25519Batch(f *testing.F) {
	needLanes(f)
	seed := make([]byte, 256)
	f.Add(seed)
	for i := range seed {
		seed[i] = 0xff
	}
	f.Add(slices.Clone(seed))
	for l, p := range [][]byte{mustHex32(f, lowOrderPoints[3])[:], basePoint[:], seed[:32], mustHex32(f, lowOrderPoints[0])[:]} {
		copy(seed[64*l+32:], p)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 256 {
			return
		}
		var scalar, point, out [4][32]byte
		for l := range 4 {
			scalar[l] = [32]byte(data[64*l:])
			point[l] = [32]byte(data[64*l+32:])
		}
		laneMult(&out, &scalar, &point)
		for l := range 4 {
			want, _ := stdX25519(t, &scalar[l], &point[l])
			if out[l] != want {
				t.Fatalf("lane %d, scalar %x point %x: kernel %x, crypto/ecdh %x", l, scalar[l], point[l], out[l], want)
			}
		}
	})
}

// fe4Big returns lane l of x as an integer (limbs of any size).
func fe4Big(x *fe4, l int) *big.Int {
	v := new(big.Int)
	for i := 4; i >= 0; i-- {
		v.Lsh(v, 52)
		v.Add(v, new(big.Int).SetUint64(x[i][l]))
	}
	return v
}

// laneLimbs is the limb form of v (below 2^256) that the kernel leaves
// after normalizing: limbs 0-3 below 2^52, limb 4 below 2^48.
func laneLimbs(x *fe4, l int, v *big.Int) {
	for i := range 5 {
		x[i][l] = new(big.Int).And(new(big.Int).Rsh(v, uint(52*i)), big.NewInt(mask52)).Uint64()
	}
	x[4][l] = new(big.Int).Rsh(v, 208).Uint64()
}

// loose52 is a limb below 15·2^52, the bound on the limbs of the
// products the ladder leaves unnormalized; normal52 a limb below 2^52.
// Both favour the values where carries and folds decide.
func loose52(rng *rand.Rand) uint64 {
	switch rng.Intn(6) {
	case 0:
		return 15<<52 - 1 - uint64(rng.Intn(4))
	case 1:
		return 1<<52 + uint64(rng.Intn(3)) - 1
	case 2:
		return uint64(rng.Intn(3))
	default:
		return rng.Uint64() % (15 << 52)
	}
}

func normal52(rng *rand.Rand) uint64 {
	switch rng.Intn(4) {
	case 0:
		return mask52 - uint64(rng.Intn(3))
	case 1:
		return uint64(rng.Intn(3))
	default:
		return rng.Uint64() & mask52
	}
}

// TestLaneFieldOpsMatchBig holds one step of the 4-lane ladder (every
// addition, subtraction, product, square, fold and carry of the kernel)
// to the RFC 7748 formulas in math/big, on (x2, z2, x3, z3) drawn with
// the edge limbs the kernel may leave there, and checks the bounds the
// next step relies on. With z2 = z3 = 0, A and C are x2 and x3 as given,
// so normalized x2 and x3 of all-ones limbs drive every product column
// to its maximum, where the 2^260 ≡ 608 fold carries most. It then
// holds the lane conversions and encode to math/big around p and 2^255.
func TestLaneFieldOpsMatchBig(t *testing.T) {
	needLanes(t)
	rng := rand.New(rand.NewSource(52))
	mod := func(v *big.Int) *big.Int { return new(big.Int).Mod(v, p25519) }
	sq := func(v *big.Int) *big.Int { return new(big.Int).Mul(v, v) }
	maxNormal := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	n := 5_000
	if testing.Short() || raceEnabled {
		n = 500
	}
	for iter := range n {
		var st laneState
		for l := range 4 {
			for i := range 5 {
				st.x2[i][l], st.z2[i][l] = loose52(rng), loose52(rng)
				st.x3[i][l], st.z3[i][l] = loose52(rng), loose52(rng)
				st.x1[i][l] = normal52(rng)
			}
			st.x1[4][l] &= 1<<47 - 1
			if (iter+l)%3 == 0 { // the largest normalized A and C
				laneLimbs(&st.x2, l, maxNormal)
				laneLimbs(&st.x3, l, maxNormal)
				st.z2[0][l], st.z2[1][l], st.z2[2][l], st.z2[3][l], st.z2[4][l] = 0, 0, 0, 0, 0
				st.z3 = st.z2
			}
		}
		in := st
		ladder4(&st) // pos 0 and a zero scalar: one step, no swap
		for l := range 4 {
			x1, x2, z2, x3, z3 := fe4Big(&in.x1, l), fe4Big(&in.x2, l), fe4Big(&in.z2, l), fe4Big(&in.x3, l), fe4Big(&in.z3, l)
			A, B := new(big.Int).Add(x2, z2), new(big.Int).Sub(x2, z2)
			C, D := new(big.Int).Add(x3, z3), new(big.Int).Sub(x3, z3)
			AA, BB := sq(A), sq(B)
			E := new(big.Int).Sub(AA, BB)
			DA, CB := new(big.Int).Mul(D, A), new(big.Int).Mul(C, B)
			a24E := new(big.Int).Mul(big.NewInt(121665), E)
			want := map[string]*big.Int{
				"x3": sq(new(big.Int).Add(DA, CB)),
				"z3": new(big.Int).Mul(x1, sq(new(big.Int).Sub(DA, CB))),
				"x2": new(big.Int).Mul(AA, BB),
				"z2": new(big.Int).Mul(E, a24E.Add(a24E, AA)),
			}
			for name, got := range map[string]*fe4{"x2": &st.x2, "z2": &st.z2, "x3": &st.x3, "z3": &st.z3} {
				if mod(fe4Big(got, l)).Cmp(mod(want[name])) != 0 {
					t.Fatalf("lane %d %s: got %x, want %x mod p (x1 %x, x2 %x, z2 %x, x3 %x, z3 %x)",
						l, name, fe4Big(got, l), mod(want[name]), x1, x2, z2, x3, z3)
				}
				for i := range 5 {
					limit := uint64(15 << 52) // x3, z3: unnormalized products
					if name == "x2" || name == "z2" {
						limit = 1 << 52 // normalized on the way out
						if i == 4 {
							limit = 1 << 48
						}
					} else if i == 4 {
						limit = 1<<56 - 512 // at most limb 4 of 2^9·p, for the next subtraction
					}
					if got[i][l] >= limit {
						t.Fatalf("lane %d %s limb %d = %#x, want below %#x", l, name, i, got[i][l], limit)
					}
				}
			}
		}
	}

	// setLane and laneFe, then encode, around p, 2^255 and 2^256.
	for _, v := range []*big.Int{
		big.NewInt(0), big.NewInt(19), new(big.Int).Sub(p25519, big.NewInt(1)), p25519,
		new(big.Int).Add(p25519, big.NewInt(1)), new(big.Int).Add(p25519, big.NewInt(18)),
		new(big.Int).Add(p25519, big.NewInt(19)), new(big.Int).Lsh(big.NewInt(1), 255),
		new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(37)),
		new(big.Int).Lsh(p25519, 1), maxNormal,
	} {
		var x fe4
		laneLimbs(&x, 2, v)
		f := laneFe(&x, 2)
		var out [32]byte
		encode(&out, &f)
		want := mod(v).FillBytes(make([]byte, 32))
		slices.Reverse(want)
		if !bytes.Equal(out[:], want) {
			t.Errorf("encode(laneFe(%x)) = %x, want %x", v, out, want)
		}
		if v.BitLen() <= 255 {
			var u [32]byte
			v.FillBytes(u[:])
			slices.Reverse(u[:])
			u[31] |= 0x80 // ignored
			var y fe4
			setLane(&y, 1, &u)
			if fe4Big(&y, 1).Cmp(v) != 0 {
				t.Errorf("setLane(%x) = %x", u, fe4Big(&y, 1))
			}
		}
	}
}

package sim

import "testing"

// The splitmix64 output finalizer is invertible; the test inverts it to build
// a state whose next draw it chooses.

func unxorshift(y uint64, s uint) uint64 {
	x := y
	for i := uint(0); i < 64/s+1; i++ {
		x = y ^ (x >> s)
	}
	return x
}

// modInverse returns the inverse of odd c modulo 2^64 (Newton's iteration).
func modInverse(c uint64) uint64 {
	inv := c
	for i := 0; i < 6; i++ {
		inv *= 2 - c*inv
	}
	return inv
}

// stateBefore returns the state whose next Uint64 returns out.
func stateBefore(out uint64) uint64 {
	z := unxorshift(out, 31)
	z *= modInverse(0x94d049bb133111eb)
	z = unxorshift(z, 27)
	z *= modInverse(0xbf58476d1ce4e5b9)
	z = unxorshift(z, 30)
	return z - 0x9e3779b97f4a7c15
}

// k skipped Normal draws and then one draw leave the stream exactly where
// k+1 draws do and return the last of them, on many seeds and on a state
// whose first uniform is zero, which Normal retries.
func TestSkipNormalAdvancesAsNormal(t *testing.T) {
	zero := stateBefore(1) // next Uint64 is 1: its top 53 bits are zero
	if r := NewRand(zero); r.Float64() != 0 {
		t.Fatal("crafted state does not draw a zero uniform")
	}
	seeds := []uint64{zero, stateBefore(2047)}
	for s := uint64(0); s < 500; s++ {
		seeds = append(seeds, s, s*0x9e3779b97f4a7c15)
	}
	for _, seed := range seeds {
		for k := 0; k < 4; k++ {
			skipped, drawn := NewRand(seed), NewRand(seed)
			for i := 0; i < k; i++ {
				skipped.SkipNormal()
				drawn.Normal(0, 1)
			}
			if a, b := skipped.Normal(3, 0.4), drawn.Normal(3, 0.4); a != b {
				t.Fatalf("seed %#x, %d skips: draw %v, want %v", seed, k, a, b)
			}
			if skipped.state != drawn.state {
				t.Fatalf("seed %#x, %d skips: state %#x, want %#x", seed, k, skipped.state, drawn.state)
			}
		}
	}
	// The crafted state's skip takes three draws: the zero, its retry and
	// the second uniform.
	r := NewRand(zero)
	r.SkipNormal()
	golden := uint64(0x9e3779b97f4a7c15)
	if want := zero + 3*golden; r.state != want {
		t.Fatalf("skip over a zero uniform advanced to %#x, want %#x", r.state, want)
	}
}

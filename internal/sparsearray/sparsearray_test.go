package sparsearray

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

// newArray returns an Array of length n with no slot live, sized the way
// the Sampler sizes its own.
func newArray[V any](n int) *Array[V] {
	a := &Array[V]{values: make([]V, n), stamps: make([]uint64, n)}
	a.Reset()
	return a
}

// get reads slot i, or def when it is not live.
func get[V any](a *Array[V], i int, def V) V {
	if a.Live(i) {
		return a.values[i]
	}
	return def
}

func TestNewDefaults(t *testing.T) {
	a := newArray[int](5)
	for i := 0; i < 5; i++ {
		if a.Live(i) {
			t.Errorf("Live(%d) = true before any Set", i)
		}
	}
}

func TestSetGet(t *testing.T) {
	a := newArray[int](4)
	a.Set(2, 42)
	if got := get(a, 2, 0); got != 42 {
		t.Errorf("slot 2 = %d, want 42", got)
	}
	if !a.Live(2) || a.Live(1) {
		t.Errorf("Live(2)=%v Live(1)=%v, want true,false", a.Live(2), a.Live(1))
	}
}

func TestReset(t *testing.T) {
	a := newArray[int](3)
	a.Set(0, 1)
	a.Set(1, 2)
	a.Set(2, 3)
	a.Reset()
	for i := 0; i < 3; i++ {
		if a.Live(i) {
			t.Errorf("after Reset Live(%d) = true", i)
		}
	}
	a.Set(1, 99)
	if got := get(a, 1, 7); got != 99 {
		t.Errorf("Set after Reset: slot 1 = %d, want 99", got)
	}
}

func TestZeroLength(t *testing.T) {
	var a Array[string]
	a.Reset() // must not panic
}

func TestGenerationWrap(t *testing.T) {
	a := newArray[int](2)
	a.Set(0, 1)
	a.gen = ^uint64(0) // force the wrap path on next Reset
	a.Reset()
	if a.gen != 1 {
		t.Fatalf("gen after wrap = %d, want 1", a.gen)
	}
	if a.Live(0) || a.Live(1) {
		t.Fatal("slots live after wrap Reset")
	}
	a.Set(1, 9)
	if got := get(a, 1, 0); got != 9 {
		t.Fatalf("Set after wrap: slot 1 = %d, want 9", got)
	}
}

func TestStringValues(t *testing.T) {
	a := newArray[string](2)
	a.Set(0, "hello")
	if get(a, 0, "empty") != "hello" || get(a, 1, "empty") != "empty" {
		t.Errorf("string values: got %q,%q", get(a, 0, "empty"), get(a, 1, "empty"))
	}
}

// TestQuickAgainstReference drives a random op sequence against a plain-map
// reference model, resetting occasionally.
func TestQuickAgainstReference(t *testing.T) {
	f := func(seed uint64, opsRaw []byte) bool {
		const n = 33
		rng := rand.New(rand.NewPCG(seed, 0))
		a := newArray[int](n)
		ref := make(map[int]int)
		for _, op := range opsRaw {
			i := rng.IntN(n)
			switch op % 3 {
			case 0:
				v := rng.IntN(1000)
				a.Set(i, v)
				ref[i] = v
			case 1:
				want, ok := ref[i]
				if !ok {
					want = -7
				}
				if get(a, i, -7) != want {
					return false
				}
				if a.Live(i) != ok {
					return false
				}
			case 2:
				if op%17 == 2 { // reset rarely
					a.Reset()
					ref = make(map[int]int)
				}
			}
		}
		for i := 0; i < n; i++ {
			want, ok := ref[i]
			if !ok {
				want = -7
			}
			if get(a, i, -7) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkResetVsClear(b *testing.B) {
	const n = 1 << 16
	a := newArray[int](n)
	b.Run("SparseReset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.Set(i%n, i)
			a.Reset()
		}
	})
	b.Run("FullClear", func(b *testing.B) {
		s := make([]int, n)
		for i := 0; i < b.N; i++ {
			s[i%n] = i
			clear(s)
		}
	})
}

// fisherYates is the reference the Sampler emulates: a partial Fisher–Yates
// shuffle of a real identity array that swaps each draw to the end of the
// part still in play. It returns the drawn tail, in the Sampler's order.
func fisherYates(d, k int, rng *rand.Rand) []int32 {
	a := make([]int32, d)
	for i := range a {
		a[i] = int32(i)
	}
	k = min(k, d)
	for t := range k {
		i, tail := rng.IntN(d-t), d-t-1
		a[i], a[tail] = a[tail], a[i]
	}
	return a[d-k:]
}

// TestSamplerMatchesFisherYates runs one Sampler through rising and falling
// degrees beside the reference on a twin RNG. Each sample must equal the
// reference's, and the two RNGs must agree afterwards: the Sampler made
// exactly the reference's min(k, d) calls rng.IntN, with the same bounds.
func TestSamplerMatchesFisherYates(t *testing.T) {
	var s Sampler
	rng := rand.New(rand.NewPCG(3, 9))
	twin := rand.New(rand.NewPCG(3, 9))
	cases := []struct{ d, k int }{
		{0, 3}, {1, 3}, {3, 3}, {5, 3}, {7, 3}, {100, 3}, {100, 100},
		{100, 0}, {4, 9}, {1000, 7}, {33, 32}, {1000, 1000}, {2, 1},
	}
	for _, c := range cases {
		got := s.Sample(c.d, c.k, rng)
		want := fisherYates(c.d, c.k, twin)
		if !slices.Equal(got, want) {
			t.Fatalf("Sample(d=%d, k=%d) = %v, reference %v", c.d, c.k, got, want)
		}
		if len(got) != min(c.k, c.d) {
			t.Fatalf("Sample(d=%d, k=%d) drew %d indices", c.d, c.k, len(got))
		}
		seen := make(map[int32]bool)
		for _, i := range got {
			if i < 0 || int(i) >= c.d || seen[i] {
				t.Fatalf("Sample(d=%d, k=%d) = %v: index out of range or repeated", c.d, c.k, got)
			}
			seen[i] = true
		}
		if a, b := rng.Uint64(), twin.Uint64(); a != b {
			t.Fatalf("after Sample(d=%d, k=%d) the RNG is out of step with the reference's %d draws", c.d, c.k, min(c.k, c.d))
		}
	}
}

// TestSamplerGrowsWithDegree checks that the positions array covers every
// degree drawn from and never shrinks.
func TestSamplerGrowsWithDegree(t *testing.T) {
	var s Sampler
	rng := rand.New(rand.NewPCG(5, 5))
	last := 0
	for _, d := range []int{1, 4, 3, 17, 16, 300, 2, 301, 5000} {
		got := s.Sample(d, 4, rng)
		n := len(s.pos.values)
		if n < d || n < last {
			t.Fatalf("after a draw from d=%d the positions array has %d slots (was %d)", d, n, last)
		}
		last = n
		for _, i := range got {
			if int(i) >= d {
				t.Fatalf("d=%d: drew %d", d, i)
			}
		}
	}
}

// chi2Critical returns the 99.9th percentile of χ² with df degrees of
// freedom, by the Wilson–Hilferty approximation.
func chi2Critical(df int) float64 {
	const z = 3.09
	f := float64(df)
	c := 1 - 2/(9*f) + z*math.Sqrt(2/(9*f))
	return f * c * c * c
}

func chi2(counts []float64, expected float64) float64 {
	s := 0.0
	for _, c := range counts {
		s += (c - expected) * (c - expected) / expected
	}
	return s
}

// TestSamplerLaw pins the law of a Δ-subset draw at the degrees the mark-all
// rule leaves to the sampler: just above Δ and just above the 2Δ threshold,
// where every k-subset must be equally likely, and at 64Δ, where every index
// must be drawn with probability Δ/d.
func TestSamplerLaw(t *testing.T) {
	const delta, trials = 4, 40000
	var s Sampler
	rng := rand.New(rand.NewPCG(17, 1))
	for _, d := range []int{delta + 1, 2*delta + 1} {
		freq := make(map[uint64]float64)
		for range trials {
			mask := uint64(0)
			for _, i := range s.Sample(d, delta, rng) {
				mask |= 1 << i
			}
			freq[mask]++
		}
		subsets := binomial(d, delta)
		counts := make([]float64, 0, subsets)
		for mask, c := range freq {
			if bits.OnesCount64(mask) != delta {
				t.Fatalf("d=%d: a draw of %d distinct indices", d, bits.OnesCount64(mask))
			}
			counts = append(counts, c)
		}
		for len(counts) < subsets {
			counts = append(counts, 0)
		}
		if x, crit := chi2(counts, trials/float64(subsets)), chi2Critical(subsets-1); x > crit {
			t.Errorf("d=%d: χ² of %d-subset frequencies %.1f exceeds %.1f", d, delta, x, crit)
		}
	}
	d := 64 * delta
	counts := make([]float64, d)
	for range trials {
		for _, i := range s.Sample(d, delta, rng) {
			counts[i]++
		}
	}
	if x, crit := chi2(counts, trials*delta/float64(d)), chi2Critical(d-1); x > crit {
		t.Errorf("d=%d: χ² of index frequencies %.1f exceeds %.1f", d, x, crit)
	}
}

func binomial(n, k int) int {
	b := 1
	for i := range k {
		b = b * (n - i) / (i + 1)
	}
	return b
}

func TestSamplerAllocatesNothingWhenWarm(t *testing.T) {
	var s Sampler
	rng := rand.New(rand.NewPCG(1, 2))
	s.Sample(1024, 16, rng)
	allocs := testing.AllocsPerRun(100, func() {
		s.Sample(1024, 16, rng)
		s.Sample(33, 16, rng)
	})
	if allocs != 0 {
		t.Fatalf("warm Sample allocates %.1f times per run", allocs)
	}
}

// BenchmarkSampler draws Δ = 16 indices just above the 2Δ mark-all
// threshold and at 64Δ.
func BenchmarkSampler(b *testing.B) {
	const delta = 16
	for _, d := range []int{2*delta + 1, 64 * delta} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			var s Sampler
			rng := rand.New(rand.NewPCG(1, 1))
			s.Sample(d, delta, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				s.Sample(d, delta, rng)
			}
		})
	}
}

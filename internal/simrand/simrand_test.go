package simrand

import (
	"math"
	"testing"
)

// constructors are the two ways to start a source from a seed; the
// distribution tests run over both.
var constructors = []struct {
	name string
	make func(seed uint64) *Source
}{
	{"New", New},
	{"Stream", Stream},
}

func TestDeterminism(t *testing.T) {
	for _, c := range constructors {
		a := c.make(42)
		b := c.make(42)
		for i := 0; i < 100; i++ {
			if a.Float64() != b.Float64() {
				t.Fatalf("%s: same seed diverged at draw %d", c.name, i)
			}
		}
	}
}

func TestKeyMatchesDerive(t *testing.T) {
	s := New(11)
	for _, l := range []uint64{0, 1, 0xc51, 1 << 63} {
		if got, want := Key(s.Seed(), l), s.Derive(l).Seed(); got != want {
			t.Errorf("Key(%d, %d) = %d, Derive gives %d", s.Seed(), l, got, want)
		}
	}
	if got, want := Key(s.Seed(), 3, 4), s.Derive(3).Derive(4).Seed(); got != want {
		t.Errorf("Key over two labels = %d, chained Derive gives %d", got, want)
	}
	if Key(5) != 5 {
		t.Error("Key with no labels changed the seed")
	}
}

func TestRekeyRestartsStream(t *testing.T) {
	s := Stream(1)
	for i := 0; i < 7; i++ {
		s.Normal(0, 1)
	}
	for _, k := range []uint64{1, 2, 99} {
		s.Rekey(k)
		fresh := Stream(k)
		if s.Seed() != k {
			t.Errorf("Rekey(%d): Seed() = %d", k, s.Seed())
		}
		for i := 0; i < 50; i++ {
			if a, b := s.LogNormalDB(8), fresh.LogNormalDB(8); a != b {
				t.Fatalf("Rekey(%d) diverged from Stream(%d) at draw %d: %g vs %g", k, k, i, a, b)
			}
		}
	}
}

func TestRekeyAllocationFree(t *testing.T) {
	s := Stream(1)
	k := uint64(0)
	if n := testing.AllocsPerRun(100, func() {
		k++
		s.Rekey(Key(k, 7, 9))
		s.LogNormalDB(8)
	}); n != 0 {
		t.Errorf("Rekey + draw allocated %g times per run", n)
	}
}

func TestRekeyRejectsSeededSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Rekey on a New source did not panic")
		}
	}()
	New(1).Rekey(2)
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("seeds 1 and 2 matched %d/100 draws", same)
	}
}

func TestSeedAccessor(t *testing.T) {
	if s := New(77).Seed(); s != 77 {
		t.Errorf("Seed() = %d, want 77", s)
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := New(5)
	a := parent.Derive(1)
	b := parent.Derive(2)
	if a.Seed() == b.Seed() {
		t.Fatal("derived streams share a seed")
	}
	// Derivation is a pure function of (parent seed, label).
	c := New(5).Derive(1)
	if a.Seed() != c.Seed() {
		t.Error("Derive is not deterministic")
	}
	// The parent's own stream is unaffected by derivation.
	p1 := New(5)
	_ = p1.Derive(9)
	p2 := New(5)
	for i := 0; i < 10; i++ {
		if p1.Float64() != p2.Float64() {
			t.Fatal("Derive perturbed the parent stream")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	rng := New(3)
	for i := 0; i < 10000; i++ {
		v := rng.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	rng := New(4)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := rng.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) covered %d values in 1000 draws", len(seen))
	}
}

func TestPerm(t *testing.T) {
	rng := New(5)
	p := rng.Perm(10)
	if len(p) != 10 {
		t.Fatalf("Perm(10) length %d", len(p))
	}
	seen := make(map[int]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Perm(10) = %v is not a permutation", p)
		}
		seen[v] = true
	}
}

func TestShuffle(t *testing.T) {
	rng := New(6)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	sum := 0
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 28 {
		t.Errorf("shuffle lost elements: sum %d", sum)
	}
}

func TestNormalMoments(t *testing.T) {
	for _, c := range constructors {
		rng := c.make(7)
		const n = 50000
		const mean, std = 3.0, 2.0
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := rng.Normal(mean, std)
			sum += v
			sumSq += v * v
		}
		gotMean := sum / n
		gotVar := sumSq/n - gotMean*gotMean
		if math.Abs(gotMean-mean) > 0.05 {
			t.Errorf("%s: normal mean = %g, want %g", c.name, gotMean, mean)
		}
		if math.Abs(math.Sqrt(gotVar)-std) > 0.05 {
			t.Errorf("%s: normal std = %g, want %g", c.name, math.Sqrt(gotVar), std)
		}
	}
}

func TestLogNormalDB(t *testing.T) {
	for _, c := range constructors {
		rng := c.make(8)
		if v := rng.LogNormalDB(0); v != 1 {
			t.Errorf("%s: LogNormalDB(0) = %g, want exactly 1", c.name, v)
		}
		// The dB values of samples must be Gaussian with the requested std.
		const n = 50000
		const stdDB = 8.0
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			db := 10 * math.Log10(rng.LogNormalDB(stdDB))
			sum += db
			sumSq += db * db
		}
		gotMean := sum / n
		gotStd := math.Sqrt(sumSq/n - gotMean*gotMean)
		if math.Abs(gotMean) > 0.15 {
			t.Errorf("%s: shadowing mean = %g dB, want 0", c.name, gotMean)
		}
		if math.Abs(gotStd-stdDB) > 0.15 {
			t.Errorf("%s: shadowing std = %g dB, want %g", c.name, gotStd, stdDB)
		}
	}
}

func TestLogNormalDBPositive(t *testing.T) {
	rng := New(9)
	for i := 0; i < 1000; i++ {
		if v := rng.LogNormalDB(8); v <= 0 {
			t.Fatalf("LogNormalDB produced non-positive factor %g", v)
		}
	}
}

func TestUniformDisc(t *testing.T) {
	rng := New(10)
	const radius = 2.5
	const n = 20000
	inside := 0
	for i := 0; i < n; i++ {
		x, y := rng.UniformDisc(radius)
		r := math.Hypot(x, y)
		if r > radius+1e-12 {
			t.Fatalf("sample (%g,%g) outside radius %g", x, y, radius)
		}
		// Uniform over the disc: half the samples land within r/sqrt(2).
		if r <= radius/math.Sqrt2 {
			inside++
		}
	}
	frac := float64(inside) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("inner-half fraction = %g, want 0.5 (uniform density)", frac)
	}
}

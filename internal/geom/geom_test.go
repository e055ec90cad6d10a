package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointOps(t *testing.T) {
	p := Point{X: 1, Y: 2}
	q := Point{X: 4, Y: 6}
	if got := p.Add(q); got != (Point{X: 5, Y: 8}) {
		t.Errorf("Add = %v", got)
	}
	if got := q.Sub(p); got != (Point{X: 3, Y: 4}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{X: 2, Y: 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dist(q); math.Abs(got-5) > 1e-12 {
		t.Errorf("Dist = %g, want 5", got)
	}
	if s := p.String(); s != "(1.000 km, 2.000 km)" {
		t.Errorf("String = %q", s)
	}
}

func TestHexLayoutCounts(t *testing.T) {
	tests := []struct {
		name string
		n    int
	}{
		{name: "single site", n: 1},
		{name: "paper small net", n: 4},
		{name: "first ring complete", n: 7},
		{name: "paper default", n: 9},
		{name: "two rings complete", n: 19},
		{name: "large", n: 37},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			pts := HexLayout(tt.n, 1)
			if len(pts) != tt.n {
				t.Fatalf("HexLayout(%d) returned %d sites", tt.n, len(pts))
			}
			// All sites distinct.
			for i := range pts {
				for j := i + 1; j < len(pts); j++ {
					if pts[i].Dist(pts[j]) < 1e-9 {
						t.Errorf("sites %d and %d coincide at %v", i, j, pts[i])
					}
				}
			}
		})
	}
}

func TestHexLayoutEmpty(t *testing.T) {
	if pts := HexLayout(0, 1); pts != nil {
		t.Errorf("HexLayout(0) = %v, want nil", pts)
	}
	if pts := HexLayout(-3, 1); pts != nil {
		t.Errorf("HexLayout(-3) = %v, want nil", pts)
	}
}

func TestHexLayoutSpacing(t *testing.T) {
	// In a hexagonal lattice every site's nearest neighbour is exactly
	// one inter-site distance away.
	const spacing = 1.0
	pts := HexLayout(19, spacing)
	for i, p := range pts {
		nearest := math.Inf(1)
		for j, q := range pts {
			if i == j {
				continue
			}
			nearest = math.Min(nearest, p.Dist(q))
		}
		if math.Abs(nearest-spacing) > 1e-9 {
			t.Errorf("site %d nearest neighbour at %g, want %g", i, nearest, spacing)
		}
	}
}

func TestHexLayoutCentreFirst(t *testing.T) {
	pts := HexLayout(9, 2.5)
	if pts[0] != (Point{}) {
		t.Errorf("first site = %v, want origin", pts[0])
	}
	// The 6 first-ring sites follow, each exactly 2.5 km out.
	for i := 1; i <= 6; i++ {
		if d := pts[i].Dist(Point{}); math.Abs(d-2.5) > 1e-9 {
			t.Errorf("ring-1 site %d at distance %g, want 2.5", i, d)
		}
	}
}

func TestNearest(t *testing.T) {
	sites := []Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 0, Y: 3}}
	idx, d := Nearest(Point{X: 1.9, Y: 0.1}, sites)
	if idx != 1 {
		t.Errorf("Nearest index = %d, want 1", idx)
	}
	if math.Abs(d-math.Hypot(0.1, 0.1)) > 1e-12 {
		t.Errorf("Nearest distance = %g", d)
	}
	idx, d = Nearest(Point{}, nil)
	if idx != -1 || !math.IsInf(d, 1) {
		t.Errorf("Nearest of empty = (%d, %g), want (-1, +Inf)", idx, d)
	}
}

func TestHexCircumradius(t *testing.T) {
	if r := HexCircumradius(math.Sqrt(3)); math.Abs(r-1) > 1e-12 {
		t.Errorf("HexCircumradius(sqrt3) = %g, want 1", r)
	}
}

func TestInHexagon(t *testing.T) {
	// Pointy-top orientation: vertices at (0, ±R) and (±√3R/2, ±R/2).
	const r = 1.0
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{name: "centre", p: Point{}, want: true},
		{name: "top vertex inside", p: Point{Y: 0.999}, want: true},
		{name: "above top vertex", p: Point{Y: 1.001}, want: false},
		{name: "right edge inside", p: Point{X: math.Sqrt(3)/2 - 1e-6}, want: true},
		{name: "beyond right edge", p: Point{X: math.Sqrt(3)/2 + 1e-6}, want: false},
		{name: "corner cut", p: Point{X: 0.5, Y: 0.9}, want: false},
		{name: "negative mirror", p: Point{X: -0.4, Y: -0.5}, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := InHexagon(tt.p, r); got != tt.want {
				t.Errorf("InHexagon(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestRandomInHexagonStaysInside(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const r = 0.577
	for i := 0; i < 2000; i++ {
		p := RandomInHexagon(r, rng.Float64)
		if !InHexagon(p, r) {
			t.Fatalf("sample %d at %v escaped the hexagon", i, p)
		}
	}
}

func TestRandomInHexagonCoversCorners(t *testing.T) {
	// Uniformity smoke check: the right half should receive about half
	// the samples.
	rng := rand.New(rand.NewSource(2))
	right := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if RandomInHexagon(1, rng.Float64).X > 0 {
			right++
		}
	}
	if right < n*2/5 || right > n*3/5 {
		t.Errorf("right-half samples = %d of %d, want about half", right, n)
	}
}

func TestHexCellsAreVoronoiCells(t *testing.T) {
	// The hexagon orientation must match the lattice: a point sampled in
	// site s's cell is closer to s than to any other site (Voronoi
	// property), so the cells tile the coverage area without gaps.
	rng := rand.New(rand.NewSource(7))
	sites := HexLayout(19, 1)
	cellR := HexCircumradius(1)
	for trial := 0; trial < 3000; trial++ {
		s := rng.Intn(len(sites))
		p := sites[s].Add(RandomInHexagon(cellR*(1-1e-9), rng.Float64))
		nearest, _ := Nearest(p, sites)
		if nearest != s {
			// Boundary points can tie; accept only exact ties.
			if math.Abs(p.Dist(sites[nearest])-p.Dist(sites[s])) > 1e-9 {
				t.Fatalf("trial %d: point %v in cell %d is nearer to site %d",
					trial, p, s, nearest)
			}
		}
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	prop := func(ax, ay, bx, by float64) bool {
		a := Point{X: math.Mod(ax, 1e6), Y: math.Mod(ay, 1e6)}
		b := Point{X: math.Mod(bx, 1e6), Y: math.Mod(by, 1e6)}
		return math.Abs(a.Dist(b)-b.Dist(a)) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	prop := func(ax, ay, bx, by, cx, cy float64) bool {
		bound := func(v float64) float64 { return math.Mod(v, 1e3) }
		a := Point{X: bound(ax), Y: bound(ay)}
		b := Point{X: bound(bx), Y: bound(by)}
		c := Point{X: bound(cx), Y: bound(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

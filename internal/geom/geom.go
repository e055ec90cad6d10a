// Package geom provides the planar geometry substrate for the TSAJS
// simulator: 2-D points, the hexagonal multi-cell base-station layout used
// in the paper's evaluation, and uniform user placement over the network
// coverage area.
//
// All coordinates are in kilometres, matching the path-loss model
// L[dB] = 140.7 + 36.7·log10(d[km]).
package geom

import (
	"fmt"
	"math"
)

// Point is a position in the plane, in kilometres.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point {
	return Point{X: p.X + q.X, Y: p.Y + q.Y}
}

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point {
	return Point{X: p.X - q.X, Y: p.Y - q.Y}
}

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point {
	return Point{X: p.X * k, Y: p.Y * k}
}

// Dist returns the Euclidean distance between p and q in kilometres.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// String renders the point with km units.
func (p Point) String() string {
	return fmt.Sprintf("(%.3f km, %.3f km)", p.X, p.Y)
}

// HexLayout places n base stations on a hexagonal lattice centred on the
// origin with the given inter-site distance (km). Sites are emitted in ring
// order: the centre site first, then successive hexagonal rings, truncating
// the outermost ring if n does not fill it. This matches the "several
// hexagonal cells, each centred around a base station, 1 km apart" setup of
// the paper's evaluation (S = 9 by default: centre + 8 of the first two
// rings... the first ring holds 6, so S=9 spills 2 sites into ring two).
func HexLayout(n int, interSiteKm float64) []Point {
	if n <= 0 {
		return nil
	}
	pts := make([]Point, 0, n)
	pts = append(pts, Point{})
	for ring := 1; len(pts) < n; ring++ {
		for _, p := range hexRing(ring, interSiteKm) {
			pts = append(pts, p)
			if len(pts) == n {
				break
			}
		}
	}
	return pts
}

// hexRing returns the 6*ring lattice points on hexagonal ring `ring` (>= 1)
// around the origin, with the given lattice spacing.
func hexRing(ring int, spacing float64) []Point {
	// Axial hex coordinates: walk the ring starting from (ring, 0) and
	// taking `ring` steps in each of the six lattice directions.
	dirs := [6][2]int{{-1, 1}, {-1, 0}, {0, -1}, {1, -1}, {1, 0}, {0, 1}}
	q, r := ring, 0
	pts := make([]Point, 0, 6*ring)
	for _, d := range dirs {
		for step := 0; step < ring; step++ {
			pts = append(pts, axialToPoint(q, r, spacing))
			q += d[0]
			r += d[1]
		}
	}
	return pts
}

// axialToPoint converts axial hex coordinates to a planar point for a
// pointy-top hexagonal lattice with the given inter-site spacing.
func axialToPoint(q, r int, spacing float64) Point {
	fq, fr := float64(q), float64(r)
	return Point{
		X: spacing * (fq + fr/2),
		Y: spacing * (math.Sqrt(3) / 2) * fr,
	}
}

// Nearest returns the index of the point in sites closest to p, and the
// distance to it. It returns (-1, +Inf) for an empty site list.
func Nearest(p Point, sites []Point) (int, float64) {
	best, bestDist := -1, math.Inf(1)
	for i, s := range sites {
		if d := p.Dist(s); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, bestDist
}

// HexCircumradius returns the circumradius of the hexagonal cell of a
// lattice with the given inter-site distance (the cell inradius is half
// the inter-site distance).
func HexCircumradius(interSiteKm float64) float64 {
	return interSiteKm / math.Sqrt(3)
}

// InHexagon reports whether the point (relative to the hexagon centre)
// lies inside a pointy-top regular hexagon with the given circumradius.
// Pointy-top is the Voronoi cell orientation of the HexLayout lattice
// (whose nearest-neighbour direction is horizontal), so the cells of
// adjacent sites tile the plane without gaps.
func InHexagon(p Point, circumradius float64) bool {
	sqrt3 := math.Sqrt(3)
	ax, ay := math.Abs(p.X), math.Abs(p.Y)
	return ax <= sqrt3*circumradius/2 && sqrt3*ay+ax <= sqrt3*circumradius
}

// RandomInHexagon samples a point uniformly inside a pointy-top regular
// hexagon of the given circumradius centred at the origin, using uniform
// to draw values in [0, 1). It rejection-samples from the bounding box;
// the hexagon fills ~65% of it, so the expected number of draws is small.
func RandomInHexagon(circumradius float64, uniform func() float64) Point {
	for {
		p := Point{
			X: (2*uniform() - 1) * circumradius * math.Sqrt(3) / 2,
			Y: (2*uniform() - 1) * circumradius,
		}
		if InHexagon(p, circumradius) {
			return p
		}
	}
}

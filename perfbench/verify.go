package main

import (
	"airindex/internal/geom"
	"airindex/internal/voronoi"
)

// boundaryTol is how close to a partition line a query point may lie and
// still legally resolve to either neighbour: partition coordinates travel
// as float32, and at the 10^4-unit service areas used here the narrowing
// moves them by up to about 1e-3 (see the codec note in
// internal/core/codec.go).
const boundaryTol = 1e-3

// verdict classifies one answer against the ground truth.
type verdict int

const (
	exact     verdict = iota // the answer is the true nearest site's region
	tolerated                // a neighbour within boundaryTol of the bisector
	wrong                    // anything else
)

// judge checks that site index got answers point p over sites: it must be
// the nearest site, or a site whose bisector with the nearest passes
// within boundaryTol of p.
func judge(sites []geom.Point, p geom.Point, got int) verdict {
	if got < 0 || got >= len(sites) {
		return wrong
	}
	want := voronoi.NearestSite(sites, p)
	if got == want {
		return exact
	}
	a, b := sites[want], sites[got]
	sep := a.Dist(b)
	if sep == 0 {
		return tolerated // coincident sites: either is the nearest
	}
	// Distance from p to the perpendicular bisector of a and b.
	if (p.Dist2(b)-p.Dist2(a))/(2*sep) <= boundaryTol {
		return tolerated
	}
	return wrong
}

// tally is a run's failure accounting: every attempted operation either
// succeeds or lands in exactly one failure class.
type tally struct {
	Attempted  int64 `json:"attempted"`
	Errors     int64 `json:"errors"`      // queries that returned an error
	Wrong      int64 `json:"wrong"`       // answers the verifier rejected
	Tolerated  int64 `json:"tolerated"`   // near-boundary answers accepted
	Shed       int64 `json:"shed"`        // site ops refused at admission
	Unapplied  int64 `json:"unapplied"`   // admitted site ops that never reached the air
	Annihilate int64 `json:"annihilated"` // site ops folded away (an add and its remove in one window)
}

// failed counts what the run failed to do: query errors, wrong answers,
// and site ops that were refused or never published. Near-boundary
// answers and ops whose effect was legitimately folded away succeed.
func (t tally) failed() int64 { return t.Errors + t.Wrong + t.Shed + t.Unapplied }

func (t tally) failedFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.Attempted)
}

// record folds one verdict into the tally.
func (t *tally) record(v verdict) {
	switch v {
	case tolerated:
		t.Tolerated++
	case wrong:
		t.Wrong++
	}
}

package fabric

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"airindex/internal/dataset"
	"airindex/internal/geom"
)

// decodeHandMade encodes a hand-built directory (EncodePackets checks only
// sizes) and decodes it again, the path a corrupt or hostile broadcast
// takes into a client.
func decodeHandMade(t *testing.T, d *Directory) error {
	t.Helper()
	pkts, err := d.EncodePackets(256, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecodeDirectory(pkts)
	return err
}

func TestDecodeDirectoryRejectsNonFiniteSplit(t *testing.T) {
	ds := dataset.Uniform(100, 3)
	for _, split := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		dir, _, _, err := Partition(ds.Area, ds.Sites, 4)
		if err != nil {
			t.Fatal(err)
		}
		dir.Nodes[0].Split = split
		if err := decodeHandMade(t, dir); err == nil || !strings.Contains(err.Error(), "splits at") {
			t.Fatalf("split %v: decode returned %v, want a non-finite split rejection", split, err)
		}
	}
}

func TestDecodeDirectoryRejectsDuplicateLeaf(t *testing.T) {
	// Channel 0 owns both leaves; channel 1 owns none.
	dir := &Directory{S: 2, Nodes: []DirNode{
		{Axis: axisX, Split: 5, Left: 1, Right: 2},
		{Axis: axisLeaf, Channel: 0},
		{Axis: axisLeaf, Channel: 0},
	}}
	if err := decodeHandMade(t, dir); err == nil || !strings.Contains(err.Error(), "more than one leaf") {
		t.Fatalf("decode returned %v, want a duplicate-leaf rejection", err)
	}
	// The same shape with S = 3: channel 2 has no leaf at all.
	dir = &Directory{S: 3, Nodes: []DirNode{
		{Axis: axisX, Split: 5, Left: 1, Right: 2},
		{Axis: axisLeaf, Channel: 0},
		{Axis: axisLeaf, Channel: 1},
	}}
	if err := decodeHandMade(t, dir); err == nil || !strings.Contains(err.Error(), "covers 2 of 3 channels") {
		t.Fatalf("decode returned %v, want a missing-leaf rejection", err)
	}
}

func TestDecodeDirectoryRejectsUnreachableNode(t *testing.T) {
	// Node 3 is channel 2's leaf, but no interior node points at it.
	dir := &Directory{S: 3, Nodes: []DirNode{
		{Axis: axisY, Split: 5, Left: 1, Right: 2},
		{Axis: axisLeaf, Channel: 0},
		{Axis: axisLeaf, Channel: 1},
		{Axis: axisLeaf, Channel: 2},
	}}
	if err := decodeHandMade(t, dir); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("decode returned %v, want an unreachable-node rejection", err)
	}
	// Both children of the root are node 1; node 2 hangs unreachable.
	dir = &Directory{S: 2, Nodes: []DirNode{
		{Axis: axisX, Split: 5, Left: 1, Right: 1},
		{Axis: axisLeaf, Channel: 0},
		{Axis: axisLeaf, Channel: 1},
	}}
	if err := decodeHandMade(t, dir); err == nil || !strings.Contains(err.Error(), "shared") {
		t.Fatalf("decode returned %v, want a shared-node rejection", err)
	}
}

// FuzzDirectoryDecode feeds arbitrary packet sets to DecodeDirectory. A
// directory that decodes must be a routing tree: Route terminates on
// every point with a channel in [0, S), and the directory re-encodes to an
// identical decode.
func FuzzDirectoryDecode(f *testing.F) {
	ds := dataset.Uniform(200, 9)
	for _, S := range []int{1, 3, 8} {
		dir, _, _, err := Partition(ds.Area, ds.Sites, S)
		if err != nil {
			f.Fatal(err)
		}
		for _, capacity := range []int{minDirCapacity, 64} {
			pkts, err := dir.EncodePackets(capacity, S-1)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(bytes.Join(pkts, nil), uint16(capacity))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, capacity uint16) {
		c := int(capacity)
		if c < minDirCapacity || c > 4096 {
			return
		}
		var pkts [][]byte
		for at := 0; at < len(data); at += c {
			pkts = append(pkts, data[at:min(at+c, len(data))])
		}
		d, err := DecodeDirectory(pkts)
		if err != nil {
			return
		}
		// Probe both sides of every split plus random points.
		var probes []geom.Point
		for _, nd := range d.Nodes {
			for _, v := range []float64{nd.Split - 1, nd.Split, nd.Split + 1} {
				probes = append(probes, geom.Pt(v, v), geom.Pt(v, -v), geom.Pt(-v, v))
			}
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		for i := 0; i < 16; i++ {
			probes = append(probes, geom.Pt(rng.NormFloat64()*1e4, rng.NormFloat64()*1e4))
		}
		for _, p := range probes {
			if ch := d.Route(p); ch < 0 || ch >= d.S {
				t.Fatalf("Route(%v) = channel %d of %d", p, ch, d.S)
			}
		}
		re, err := d.EncodePackets(c, d.Self)
		if err != nil {
			t.Fatalf("decoded directory does not re-encode: %v", err)
		}
		again, err := DecodeDirectory(re)
		if err != nil {
			t.Fatalf("re-encoded directory does not decode: %v", err)
		}
		if again.S != d.S || again.Self != d.Self || len(again.Nodes) != len(d.Nodes) {
			t.Fatalf("round trip header mismatch: %+v vs %+v", again, d)
		}
		for i := range d.Nodes {
			if again.Nodes[i] != d.Nodes[i] {
				t.Fatalf("round trip node %d: %+v vs %+v", i, again.Nodes[i], d.Nodes[i])
			}
		}
	})
}

package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"airindex/internal/core"
	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/wire"
)

// Incremental generation cuts. A full program compile at 50k sites spends
// seconds in Voronoi snapshot + D-tree partition search; a cut that follows
// a batch of a few site ops re-derives almost all of that from the previous
// generation instead:
//
//	dirty regions -> region.Patcher (reweld only the touched neighborhood)
//	-> core.Incremental (rebuild only dirty subtrees, splice the rest) ->
//	FlattenPatched (bulk-copy clean arena ranges) -> AssembleProgram ->
//	renderPatched (reuse unchanged frames of the previous cycle).
//
// Every stage is pinned byte-identical to its from-scratch counterpart, so
// an incremental cut broadcasts exactly the bytes a cold rebuild would. The
// single channel and every fabric shard run this one Compiler; they differ
// only in the directory prefix, which also selects the data numbering.

// CutStats reports how one generation cut was produced.
type CutStats struct {
	Incremental bool // false: full rebuild (bootstrap, fallback, or large batch)
	DirtyKeys   int  // canonical dirty regions handed to the index rebuild
	Spliced     int  // D-tree nodes copied from the previous generation
	Total       int  // D-tree nodes in the new generation
}

// DirtyPermille returns the rebuilt-node fraction in permille (1000 for a
// full rebuild).
func (cs CutStats) DirtyPermille() int64 {
	if !cs.Incremental || cs.Total == 0 {
		return 1000
	}
	return int64((cs.Total - cs.Spliced) * 1000 / cs.Total)
}

// incrFullFraction is the dirty-region fraction above which a cut falls
// back to a full rebuild: with most of the diagram dirty the splice scan is
// pure overhead on top of an almost-complete partition search.
const incrFullFraction = 0.25

// Cut is one channel generation as the Compiler produced it.
type Cut struct {
	Sub   *region.Subdivision
	Tree  *core.Tree
	Paged *core.Paged
	Flat  *core.FlatPaged
	Prog  *Program
	Stats CutStats
}

// Compiler produces one channel's programs generation after generation,
// carrying the state one generation hands the next: the welded tiling, the
// D-tree rebuilder, the previous arena and the previous rendered program.
// Regions are named by stable keys: site ids on a single channel, global
// data-instance ids on a fabric shard. Not safe for concurrent use.
type Compiler struct {
	// Area is the channel's service rectangle (a fabric shard's rectangle).
	Area     geom.Rect
	Capacity int
	// M is the index copies per cycle; <= 0 picks each generation's
	// optimal m.
	M int
	// Prefix leads every index copy: the fabric's channel directory,
	// stamped with this channel. A channel with a prefix is a fabric
	// shard, whose keys are global data-instance ids that its data packets
	// (DataStamp) and adjacency tables carry; a single channel has no
	// prefix and numbers its data by bucket.
	Prefix [][]byte
	// SiteOf, when set, makes every arena carry the region-adjacency table
	// (continuous queries), resolving each region's key to its site.
	SiteOf       func(key int) (geom.Point, error)
	BuildOptions []core.BuildOption

	patch *region.Patcher
	inc   *core.Incremental
	prog  *Program
	flat  *core.FlatPaged

	failNext error // FailNext
}

// Reset drops all retained generation state; the next compile bootstraps.
func (c *Compiler) Reset() {
	c.patch, c.inc, c.prog, c.flat = nil, nil, nil, nil
}

// Retains reports whether the compiler holds a generation to cut
// incrementally against.
func (c *Compiler) Retains() bool {
	return c.patch != nil && c.inc != nil && c.prog != nil
}

// FailNext makes the next Compile fail with err without touching any
// retained state — the fault-injection hook cut-failure tests use to drive
// a swapper's recovery path. The caller's error path owns the cleanup.
func (c *Compiler) FailNext(err error) { c.failNext = err }

// Assemble turns a flat arena of this channel into its program. When the
// channel carries adjacency and the arena has no table yet (a v2 snapshot
// restores one), it builds the table from sub and the regions' sites first.
// keys maps region index -> key.
func (c *Compiler) Assemble(fp *core.FlatPaged, sub *region.Subdivision, keys []int) (*Program, error) {
	var ids []int // the data numbering: nil numbers by bucket
	if c.Prefix != nil {
		ids = keys
	}
	if c.SiteOf != nil && fp.Flat.Adjacency() == nil {
		sites := make([]geom.Point, len(keys))
		for i, k := range keys {
			p, err := c.SiteOf(k)
			if err != nil {
				return nil, err
			}
			sites[i] = p
		}
		adj, err := core.BuildAdjacency(sub, c.Area, sites)
		if err != nil {
			return nil, err
		}
		if ids != nil {
			adj.IDs = make([]int32, len(ids))
			for i, id := range ids {
				adj.IDs[i] = int32(id)
			}
			if err := adj.Validate(); err != nil {
				return nil, err
			}
		}
		if err := fp.Flat.SetAdjacency(adj); err != nil {
			return nil, err
		}
	}
	return AssembleProgram(fp, c.M, c.Prefix, ids)
}

// Build compiles a welded subdivision of this channel from scratch without
// touching the retained state: build, page and flatten its D-tree, then
// Assemble. It is the reference the incremental cuts are pinned against
// (CompileDTree, and each shard of fabric.FromSubdivision).
func (c *Compiler) Build(sub *region.Subdivision, keys []int) (*Cut, error) {
	tree, err := core.Build(sub, c.BuildOptions...)
	if err != nil {
		return nil, err
	}
	paged, err := tree.Page(wire.DTreeParams(c.Capacity))
	if err != nil {
		return nil, err
	}
	fp := paged.Flatten()
	prog, err := c.Assemble(fp, sub, keys)
	if err != nil {
		return nil, err
	}
	return &Cut{Sub: sub, Tree: tree, Paged: paged, Flat: fp, Prog: prog}, nil
}

// finish pages, flattens, assembles, and renders a built tree, patching
// against the previous generation's arena and frame table when present,
// and retains the result as the next compile's baseline.
func (c *Compiler) finish(sub *region.Subdivision, keys []int, tree *core.Tree, st CutStats) (*Cut, error) {
	paged, err := tree.Page(wire.DTreeParams(c.Capacity))
	if err != nil {
		return nil, err
	}
	fp := paged.FlattenPatched(c.flat)
	prog, err := c.Assemble(fp, sub, keys)
	if err != nil {
		return nil, err
	}
	if c.prog != nil {
		rc, err := renderPatched(prog, c.prog)
		if err != nil {
			return nil, err
		}
		prog.setRendered(rc)
	}
	if _, err := prog.Rendered(); err != nil {
		return nil, err
	}
	c.prog, c.flat = prog, fp
	return &Cut{Sub: sub, Tree: tree, Paged: paged, Flat: fp, Prog: prog, Stats: st}, nil
}

// full compiles the channel's regions from scratch through a fresh Patcher
// bootstrap — coordinate-identical to region.New, and leaving the compiler
// able to patch forward. Any failure resets the retained state entirely: a
// partially bootstrapped patcher paired with a stale rebuilder must never
// survive into the next compile, where the incremental path would patch
// against a base that no generation ever had.
func (c *Compiler) full(keys []int, polys []geom.Polygon, st CutStats) (cut *Cut, err error) {
	c.Reset()
	defer func() {
		if err != nil {
			c.Reset()
		}
	}()
	if len(keys) == 0 {
		return nil, fmt.Errorf("stream: channel has no regions")
	}
	c.patch = region.NewPatcher(c.Area)
	sub, _, err := c.patch.Patch(keys, polys, keys, nil)
	if err != nil {
		return nil, err
	}
	c.inc = core.NewIncremental(c.BuildOptions...)
	tree, err := c.inc.Full(sub)
	if err != nil {
		return nil, err
	}
	return c.finish(sub, keys, tree, st)
}

// Compile produces the channel's next generation from its regions (keys
// ascending, polys their cells) and the batch's dirty and removed keys:
// incrementally when retained state exists and the batch is small enough,
// from scratch otherwise — always after a Reset, and on the bootstrap.
// Any incremental-path error falls back to a full rebuild (the outputs are
// byte-identical either way).
func (c *Compiler) Compile(keys []int, polys []geom.Polygon, dirty, removed []int) (*Cut, error) {
	if err := c.failNext; err != nil {
		c.failNext = nil
		return nil, err
	}
	if c.Retains() && float64(len(dirty)+len(removed)) <= incrFullFraction*float64(len(keys)) {
		if cut, err := c.incremental(keys, polys, dirty, removed); err == nil {
			return cut, nil
		}
	}
	return c.full(keys, polys, CutStats{DirtyKeys: len(dirty)})
}

func (c *Compiler) incremental(keys []int, polys []geom.Polygon, dirty, removed []int) (*Cut, error) {
	sub, canonDirty, err := c.patch.Patch(keys, polys, dirty, removed)
	if err != nil {
		return nil, err
	}
	tree, delta, err := c.inc.Rebuild(sub, canonDirty)
	if err != nil {
		return nil, err
	}
	return c.finish(sub, keys, tree, CutStats{Incremental: true, DirtyKeys: len(canonDirty), Spliced: delta.Spliced, Total: delta.Total})
}

// renderPatched builds the rendered cycle for p by copying the previous
// generation's frame table and re-rendering only the slots whose bytes
// changed. Valid when both programs carry the canonical stamped data
// generator, so a data payload — and its CRC — is a pure function of
// (bucket, packet) and never of the generation. Index frames are compared
// packet by packet (the flat-arena patch leaves most of them byte-equal).
// The schedule may drift by whole index packets between generations (the
// encoded tree grows or shrinks past a packet boundary): every frame then
// shifts position, but only two header fields depend on position — the
// slot, which the transmitter overwrites anyway, and the next-index delta —
// so a reused frame costs a 24-byte header rewrite, not a payload marshal.
// Anything else (capacity, bucket geometry, or replication changes) falls
// back to a full render. Byte identity with renderCycle is pinned by
// TestRenderPatchedMatchesRenderCycle.
func renderPatched(p, prev *Program) (*renderedCycle, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	prevRC := prev.rendered
	if prevRC == nil || !p.stamped || !prev.stamped ||
		p.Capacity != prev.Capacity ||
		p.Sched.M != prev.Sched.M ||
		p.Sched.NumBuckets != prev.Sched.NumBuckets ||
		p.Sched.BucketPackets != prev.Sched.BucketPackets {
		return renderCycle(p)
	}
	if p.Sched.IndexPackets == prev.Sched.IndexPackets {
		// Aligned schedules: every position keeps its meaning, so start from
		// a verbatim copy and re-render only the index packets whose bytes
		// changed. Copying the frames moves the header arrays by value (each
		// generation owns its headers — transmit-time patching never crosses
		// generations) and shares the immutable payload slices.
		rc := &renderedCycle{
			frames:    make([]renderedFrame, prevRC.cycleLen()),
			frameSize: prevRC.frameSize,
		}
		copy(rc.frames, prevRC.frames)
		for off := 0; off < p.Sched.IndexPackets; off++ {
			if bytes.Equal(p.IndexPackets[off], prev.IndexPackets[off]) {
				continue
			}
			for j := 0; j < p.Sched.M; j++ {
				pos := p.Sched.IndexStartOf(j) + off
				h, payload := p.frameAt(pos)
				h.CRC = Checksum(payload)
				buf, err := marshalFrame(h, payload)
				if err != nil {
					return nil, err
				}
				f := &rc.frames[pos]
				copy(f.hdr[:], buf[:headerSize])
				f.payload = buf[headerSize:]
			}
		}
		return rc, nil
	}

	// Drifted schedules: walk the new cycle, pull each frame's payload (and
	// CRC) from the position the same content held in the previous cycle,
	// and rewrite the two position-dependent header fields in place.
	cycle := p.Sched.CycleLen()
	rc := &renderedCycle{
		frames:    make([]renderedFrame, cycle),
		frameSize: prevRC.frameSize,
	}
	reuse := func(pos, prevPos int) error {
		next := p.Sched.NextIndexStart(float64(pos) + 1e-9)
		if next == pos {
			next = p.Sched.NextIndexStart(float64(pos) + 1)
		}
		delta := next - pos
		if delta > 0xffff {
			return fmt.Errorf("stream: next-index delta %d exceeds 16 bits", delta)
		}
		f := &rc.frames[pos]
		*f = prevRC.frames[prevPos]
		binary.LittleEndian.PutUint32(f.hdr[4:], uint32(pos))
		binary.LittleEndian.PutUint16(f.hdr[14:], uint16(delta))
		return nil
	}
	render := func(pos int) error {
		h, payload := p.frameAt(pos)
		h.CRC = Checksum(payload)
		buf, err := marshalFrame(h, payload)
		if err != nil {
			return err
		}
		f := &rc.frames[pos]
		copy(f.hdr[:], buf[:headerSize])
		f.payload = buf[headerSize:]
		return nil
	}
	for j := 0; j < p.Sched.M; j++ {
		start := p.Sched.IndexStartOf(j)
		for off := 0; off < p.Sched.IndexPackets; off++ {
			pos := start + off
			if off < prev.Sched.IndexPackets && bytes.Equal(p.IndexPackets[off], prev.IndexPackets[off]) {
				if err := reuse(pos, prev.Sched.IndexStartOf(0)+off); err != nil {
					return nil, err
				}
			} else if err := render(pos); err != nil {
				return nil, err
			}
		}
	}
	for b := 0; b < p.Sched.NumBuckets; b++ {
		start := p.Sched.BucketStart(b)
		prevStart := prev.Sched.BucketStart(b)
		for pkt := 0; pkt < p.Sched.BucketPackets; pkt++ {
			if err := reuse(start+pkt, prevStart+pkt); err != nil {
				return nil, err
			}
		}
	}
	return rc, nil
}

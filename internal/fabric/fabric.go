package fabric

import (
	"encoding/binary"
	"fmt"
	"sync"

	"airindex/internal/core"
	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/stream"
	"airindex/internal/voronoi"
)

// sliverArea drops clip residue: a global cell whose intersection with a
// shard rectangle is at most this area is numerical noise from a cell
// grazing the split line, not content. Service areas are O(1e8) square
// units, so 1e-9 is ~17 orders below any real cell.
const sliverArea = 1e-9

// clippedRegion is one global Voronoi cell's piece inside a shard
// rectangle, tagged with the cell's global id. Comparing these slices
// exactly (float-bit identical vertices) is how the swapper decides
// whether a churn batch touched a shard at all — the voronoi.Maintainer
// guarantees untouched cells keep their exact bytes, and geom.ClipRect is
// deterministic, so unchanged content compares equal.
type clippedRegion struct {
	id   int
	poly geom.Polygon
}

// globalCells lists a global subdivision's cells for clipCells: their
// global data-instance ids (globalIDs; nil means the identity, region
// index is the id) and their polygons, in region order. Cells straddling a
// shard boundary appear in every shard they intersect — honest data
// replication, charged to each shard's cycle.
func globalCells(sub *region.Subdivision, globalIDs []int) ([]int, []geom.Polygon) {
	ids := globalIDs
	if ids == nil {
		ids = make([]int, sub.N())
		for i := range ids {
			ids[i] = i
		}
	}
	return ids, regionPolys(sub)
}

func equalClips(a, b []clippedRegion) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].id != b[i].id || !pieceEqual(a[i].poly, b[i].poly) {
			return false
		}
	}
	return true
}

// eachShard runs fn for i = 0..n-1 concurrently and returns the first
// error in index order.
func eachShard(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Shard is one channel's compiled broadcast: the clipped subdivision it
// indexes, its D-tree, and the rendered-ready program whose index copies
// carry the channel directory as a prefix.
type Shard struct {
	Channel int
	Rect    geom.Rect
	Sub     *region.Subdivision
	IDs     []int // local bucket -> global data-instance id
	Tree    *core.Tree
	Paged   *core.Paged
	// Flat is the arena the shard serves queries from (Access/AccessInto)
	// and encodes its packets from; its snapshot hands the shard's index to
	// another process without a rebuild.
	Flat *core.FlatPaged
	Prog *stream.Program

	clips []clippedRegion
}

// Fabric is the compiled multi-channel broadcast: S shard programs plus
// the directory they all replicate.
type Fabric struct {
	Area       geom.Rect
	Capacity   int
	DirPackets int
	Dir        *Directory
	Rects      []geom.Rect
	Shards     []*Shard
}

// Options tunes the fabric build.
type Options struct {
	// M is the index copies per shard cycle; <= 0 picks each shard's
	// optimal m independently.
	M int
	// BuildWorkers bounds the per-shard D-tree build parallelism; <= 0
	// uses the core default.
	BuildWorkers int
	// Adjacency attaches a region-adjacency table to every shard arena and
	// splices its self-describing appendix between the directory and the
	// tree in every index copy, making each channel a continuous-query
	// medium (stream.Continuous, fabric.Continuous). The table carries the
	// global data-instance ids, so hopping clients union per-shard answers
	// and break kNN ties in the global numbering without bucket downloads.
	Adjacency bool
	// SiteOf resolves a global data-instance id to its site location while
	// compiling adjacency tables. Build, NewSwapper and RestoreSnapshotDir
	// fill it in from their site source when left nil.
	SiteOf func(globalID int) (geom.Point, error)
}

// partitionSites is the geometry a build and a snapshot restore share for
// an identity-numbered site slice: the global Voronoi subdivision, the kd
// partition, and — for adjacency broadcasts without one — a SiteOf over
// the slice.
func partitionSites(area geom.Rect, sites []geom.Point, S int, opts Options) (*region.Subdivision, *Directory, []geom.Rect, Options, error) {
	if opts.Adjacency && opts.SiteOf == nil {
		opts.SiteOf = func(id int) (geom.Point, error) {
			if id < 0 || id >= len(sites) {
				return geom.Point{}, fmt.Errorf("fabric: global id %d outside %d sites", id, len(sites))
			}
			return sites[id], nil
		}
	}
	sub, err := voronoi.Subdivision(area, sites)
	if err != nil {
		return nil, nil, nil, opts, err
	}
	dir, rects, _, err := Partition(area, sites, S)
	return sub, dir, rects, opts, err
}

// Build partitions the sites into S shards and compiles the whole fabric
// from scratch: global Voronoi diagram, kd partition, and one D-tree
// program per shard. S = 1 degenerates to a single channel that still
// carries a one-leaf directory.
func Build(area geom.Rect, sites []geom.Point, S, capacity int, opts Options) (*Fabric, error) {
	sub, dir, rects, opts, err := partitionSites(area, sites, S, opts)
	if err != nil {
		return nil, err
	}
	return FromSubdivision(sub, nil, dir, rects, capacity, opts)
}

// FromSubdivision compiles a fabric from an existing global subdivision
// (the swapper's incremental snapshots enter here). globalIDs maps region
// index to global data-instance id (nil = identity).
func FromSubdivision(sub *region.Subdivision, globalIDs []int, dir *Directory, rects []geom.Rect, capacity int, opts Options) (*Fabric, error) {
	if len(rects) != dir.S {
		return nil, fmt.Errorf("fabric: %d rects for %d channels", len(rects), dir.S)
	}
	area := rects[0]
	for _, r := range rects[1:] {
		area = area.Union(r)
	}
	f := &Fabric{
		Area:       area,
		Capacity:   capacity,
		DirPackets: dir.PacketCount(capacity),
		Dir:        dir,
		Rects:      rects,
		Shards:     make([]*Shard, dir.S),
	}
	ids, polys := globalCells(sub, globalIDs)
	err := eachShard(dir.S, func(ch int) (err error) {
		f.Shards[ch], err = compileShard(dir, ch, rects[ch], clipCells(ids, polys, rects[ch]), capacity, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// splitClips returns a shard's clip sequence as parallel key (global id)
// and polygon slices, the Compiler's region input.
func splitClips(clips []clippedRegion) ([]int, []geom.Polygon) {
	keys := make([]int, len(clips))
	polys := make([]geom.Polygon, len(clips))
	for i, c := range clips {
		keys[i], polys[i] = c.id, c.poly
	}
	return keys, polys
}

// channelCompiler configures the stream.Compiler for channel ch: the shard's
// rectangle and the channel directory (stamped with ch) ahead of every
// index copy, which also selects global data numbering. It carries the shard's retained cut
// state in the Swapper, and assembles the programs of the from-scratch and
// snapshot-restore paths.
func channelCompiler(dir *Directory, ch int, rect geom.Rect, capacity int, opts Options) (*stream.Compiler, error) {
	prefix, err := dir.EncodePackets(capacity, ch)
	if err != nil {
		return nil, err
	}
	c := &stream.Compiler{Area: rect, Capacity: capacity, M: opts.M, Prefix: prefix}
	if opts.BuildWorkers > 0 {
		c.BuildOptions = []core.BuildOption{core.WithBuildWorkers(opts.BuildWorkers)}
	}
	if opts.Adjacency {
		if opts.SiteOf == nil {
			return nil, fmt.Errorf("fabric: Options.Adjacency requires SiteOf")
		}
		c.SiteOf = opts.SiteOf
	}
	return c, nil
}

// weldClips welds a shard's clipped pieces into its local subdivision and
// extracts the bucket -> global-id mapping, shared by the from-scratch
// compile and the snapshot restore.
func weldClips(ch int, rect geom.Rect, clips []clippedRegion) (*region.Subdivision, []int, error) {
	if len(clips) == 0 {
		return nil, nil, fmt.Errorf("fabric: shard %d covers no regions", ch)
	}
	ids, polys := splitClips(clips)
	sub, err := region.New(rect, polys)
	if err != nil {
		return nil, nil, fmt.Errorf("fabric: shard %d subdivision: %w", ch, err)
	}
	if err := sub.Validate(); err != nil {
		return nil, nil, fmt.Errorf("fabric: shard %d subdivision invalid: %w", ch, err)
	}
	return sub, ids, nil
}

// compileShard builds one channel's program from scratch — the reference
// the retained compiler's cuts are pinned against: weld the clipped pieces
// into a shard-local subdivision and compile it with the shard's
// compiler's Build.
func compileShard(dir *Directory, ch int, rect geom.Rect, clips []clippedRegion, capacity int, opts Options) (*Shard, error) {
	c, err := channelCompiler(dir, ch, rect, capacity, opts)
	if err != nil {
		return nil, err
	}
	sub, ids, err := weldClips(ch, rect, clips)
	if err != nil {
		return nil, err
	}
	cut, err := c.Build(sub, ids)
	if err != nil {
		return nil, fmt.Errorf("fabric: shard %d: %w", ch, err)
	}
	return newShard(ch, rect, clips, ids, cut), nil
}

// newShard wraps one compiled generation of channel ch as a Shard.
func newShard(ch int, rect geom.Rect, clips []clippedRegion, ids []int, cut *stream.Cut) *Shard {
	return &Shard{
		Channel: ch,
		Rect:    rect,
		Sub:     cut.Sub,
		IDs:     ids,
		Tree:    cut.Tree,
		Paged:   cut.Paged,
		Flat:    cut.Flat,
		Prog:    cut.Prog,
		clips:   clips,
	}
}

// Programs returns the per-channel programs (for stream.NewServer).
func (f *Fabric) Programs() []*stream.Program {
	out := make([]*stream.Program, len(f.Shards))
	for i, s := range f.Shards {
		out[i] = s.Prog
	}
	return out
}

// GlobalIDFromData extracts the global data-instance id stream.DataStamp wrote
// into a downloaded bucket.
func GlobalIDFromData(data []byte) (int, error) {
	if len(data) < 12 {
		return 0, fmt.Errorf("fabric: bucket data %d bytes, no global id", len(data))
	}
	return int(binary.LittleEndian.Uint32(data[8:])), nil
}

package stream

import (
	"encoding/binary"
	"fmt"
	"os"

	"airindex/internal/broadcast"
	"airindex/internal/core"
	"airindex/internal/region"
)

// CompileDTree builds, pages, flattens and encodes the D-tree for a
// subdivision, returning the broadcast program together with the flat arena
// it was rendered from. The arena is the serving representation: queries run
// over it allocation-free, and its snapshot restores the identical program
// without re-running construction (ProgramFromSnapshot).
func CompileDTree(sub *region.Subdivision, capacity, m int) (*Program, *core.FlatPaged, error) {
	cut, err := (&Compiler{Capacity: capacity, M: m}).Build(sub, nil)
	if err != nil {
		return nil, nil, err
	}
	return cut.Prog, cut.Flat, nil
}

// NewDTreeProgram assembles a complete broadcast program for a subdivision:
// a paged and encoded D-tree, a (1, m) schedule (optimal m when m <= 0),
// and synthetic data payloads whose first bytes identify the bucket (so
// clients and tests can verify what they downloaded).
func NewDTreeProgram(sub *region.Subdivision, capacity, m int) (*Program, error) {
	prog, _, err := CompileDTree(sub, capacity, m)
	return prog, err
}

// ProgramFromFlat assembles a single channel's broadcast program from a
// flat paged index — the shared tail of a fresh compile and a snapshot
// restore, so both paths put byte-identical cycles on the air.
func ProgramFromFlat(fp *core.FlatPaged, m int) (*Program, error) {
	return AssembleProgram(fp, m, nil, nil)
}

// AssembleProgram lays one channel's (1, m) broadcast program out from its
// flat arena; it is the only place a Program is assembled, for a single
// channel and for every fabric shard alike. Every index copy is
//
//	prefix (the fabric's channel directory) -> adjacency appendix (when the
//	arena carries a region-adjacency table) -> D-tree
//
// and m <= 0 picks the optimal number of copies per cycle; Validate
// enforces the wire format's bucket-packet limit. The appendix is
// self-describing: its first packet names its length, so a point-query
// client skips it with QueryShifted. ids is the channel's data numbering:
// nil stamps every data packet with its bucket (BucketStamp), which keeps
// payloads a pure function of (bucket, packet) so the incremental render
// can reuse data frames across generations; a fabric shard passes its
// bucket -> global-id map and gets DataStamp.
func AssembleProgram(fp *core.FlatPaged, m int, prefix [][]byte, ids []int) (*Program, error) {
	tree, err := fp.EncodePackets()
	if err != nil {
		return nil, err
	}
	if len(tree) == 0 {
		return nil, fmt.Errorf("stream: subdivision of %d regions produced an empty index", fp.Flat.N)
	}
	params := fp.Params
	capacity := params.PacketCapacity
	var appendix [][]byte
	if adj := fp.Flat.Adjacency(); adj != nil {
		if appendix, err = adj.EncodePackets(capacity); err != nil {
			return nil, err
		}
	}
	packets := make([][]byte, 0, len(prefix)+len(appendix)+len(tree))
	packets = append(append(append(packets, prefix...), appendix...), tree...)
	bucketPackets := params.DataBucketPackets()
	if m <= 0 {
		m = broadcast.OptimalM(len(packets), fp.Flat.N*bucketPackets)
	}
	sched, err := broadcast.NewSchedule(len(packets), fp.Flat.N, bucketPackets, m)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Capacity:     capacity,
		IndexPackets: packets,
		Sched:        sched,
		Data:         BucketStamp(capacity),
		stamped:      true,
	}
	if ids != nil {
		prog.Data, prog.stamped = DataStamp(capacity, ids), false
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// ProgramFromSnapshot restores a broadcast program from a flat-index
// snapshot slab (core.Snapshot), skipping tree construction and paging
// entirely. The restored program broadcasts cycles byte-identical to those
// of the server that wrote the snapshot.
func ProgramFromSnapshot(data []byte, m int) (*Program, *core.FlatPaged, error) {
	fp, err := core.LoadSnapshot(data)
	if err != nil {
		return nil, nil, err
	}
	prog, err := ProgramFromFlat(fp, m)
	if err != nil {
		return nil, nil, err
	}
	return prog, fp, nil
}

// ProgramFromSnapshotFile is ProgramFromSnapshot over a file.
func ProgramFromSnapshotFile(path string, m int) (*Program, *core.FlatPaged, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return ProgramFromSnapshot(data, m)
}

// BucketStamp returns a payload generator that stamps every data packet
// with its bucket id and packet number, for end-to-end verification.
func BucketStamp(capacity int) func(bucket, pkt int) []byte {
	return func(bucket, pkt int) []byte {
		payload := make([]byte, capacity)
		binary.LittleEndian.PutUint32(payload[0:], uint32(bucket))
		binary.LittleEndian.PutUint32(payload[4:], uint32(pkt))
		return payload
	}
}

// DataStamp extends BucketStamp with a fabric shard's global numbering:
// bytes [0,8) carry the local bucket and packet ids exactly as BucketStamp
// does (so VerifyStampedData still applies), and bytes [8,12) of every
// packet carry the region's global data-instance id, so a hopping client
// reports answers in the global numbering without out-of-band state.
func DataStamp(capacity int, ids []int) func(bucket, pkt int) []byte {
	base := BucketStamp(capacity)
	return func(bucket, pkt int) []byte {
		payload := base(bucket, pkt)
		if bucket >= 0 && bucket < len(ids) && capacity >= 12 {
			binary.LittleEndian.PutUint32(payload[8:], uint32(ids[bucket]))
		}
		return payload
	}
}

// VerifyStampedData checks a downloaded bucket against BucketStamp.
func VerifyStampedData(data []byte, capacity, bucket int) error {
	if len(data)%capacity != 0 || len(data) == 0 {
		return fmt.Errorf("stream: downloaded %d bytes, not a whole number of %d-byte packets", len(data), capacity)
	}
	for pkt := 0; pkt*capacity < len(data); pkt++ {
		chunk := data[pkt*capacity:]
		if got := int(binary.LittleEndian.Uint32(chunk[0:])); got != bucket {
			return fmt.Errorf("stream: packet %d stamped with bucket %d, want %d", pkt, got, bucket)
		}
		if got := int(binary.LittleEndian.Uint32(chunk[4:])); got != pkt {
			return fmt.Errorf("stream: packet stamped %d, want %d", got, pkt)
		}
	}
	return nil
}

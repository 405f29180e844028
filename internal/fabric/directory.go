package fabric

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Channel-directory wire format, version 1. The directory rides at the
// head of every index copy on every channel — the same replication trick
// internal/distidx uses for its upper levels, generalized across channels —
// so any probe on any channel reaches a routing root within one index
// segment. Header, little endian:
//
//	offset 0: magic 'F','D'
//	       2: version (1)
//	       3: reserved (0)
//	       4: u16 self channel (the only per-channel field)
//	       6: u16 channel count S
//	       8: u16 node count
//	      10: u16 directory packets d (so packet 0 alone tells a cold
//	          client how many directory packets to fetch before the D-tree
//	          root at offset d)
//	      12: nodes, dirNodeSize bytes each:
//	          axis u8 | split f64 | left u16 | right u16 | channel u16
//
// The encoding is padded to a whole number of capacity-sized packets.
const (
	dirMagic0      = 'F'
	dirMagic1      = 'D'
	dirVersion     = 1
	dirHeaderSize  = 12
	dirNodeSize    = 15
	minDirCapacity = dirHeaderSize + dirNodeSize
)

// EncodedSize returns the directory's unpadded byte size.
func (d *Directory) EncodedSize() int { return dirHeaderSize + len(d.Nodes)*dirNodeSize }

// PacketCount returns how many capacity-sized packets the directory
// occupies at the head of each index copy.
func (d *Directory) PacketCount(capacity int) int {
	return (d.EncodedSize() + capacity - 1) / capacity
}

// EncodePackets serializes the directory into capacity-sized packets,
// stamping self as the carrying channel. Replicas for different channels
// differ only in that field.
func (d *Directory) EncodePackets(capacity, self int) ([][]byte, error) {
	if capacity < minDirCapacity {
		return nil, fmt.Errorf("fabric: capacity %d below the directory minimum %d", capacity, minDirCapacity)
	}
	if self < 0 || self >= d.S {
		return nil, fmt.Errorf("fabric: self channel %d of %d", self, d.S)
	}
	if len(d.Nodes) == 0 || len(d.Nodes) > 0xffff {
		return nil, fmt.Errorf("fabric: directory has %d nodes", len(d.Nodes))
	}
	n := d.PacketCount(capacity)
	if n > 0xffff {
		return nil, fmt.Errorf("fabric: directory spans %d packets", n)
	}
	buf := make([]byte, n*capacity)
	buf[0], buf[1], buf[2], buf[3] = dirMagic0, dirMagic1, dirVersion, 0
	binary.LittleEndian.PutUint16(buf[4:], uint16(self))
	binary.LittleEndian.PutUint16(buf[6:], uint16(d.S))
	binary.LittleEndian.PutUint16(buf[8:], uint16(len(d.Nodes)))
	binary.LittleEndian.PutUint16(buf[10:], uint16(n))
	at := dirHeaderSize
	for _, nd := range d.Nodes {
		buf[at] = nd.Axis
		binary.LittleEndian.PutUint64(buf[at+1:], math.Float64bits(nd.Split))
		binary.LittleEndian.PutUint16(buf[at+9:], nd.Left)
		binary.LittleEndian.PutUint16(buf[at+11:], nd.Right)
		binary.LittleEndian.PutUint16(buf[at+13:], nd.Channel)
		at += dirNodeSize
	}
	pkts := make([][]byte, n)
	for i := range pkts {
		pkts[i] = buf[i*capacity : (i+1)*capacity]
	}
	return pkts, nil
}

// DirectoryPacketCount reads the directory packet count from packet 0, so
// a client holding only the first packet knows how much more directory to
// fetch before the D-tree begins.
func DirectoryPacketCount(pkt0 []byte) (int, error) {
	if err := checkDirHeader(pkt0); err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint16(pkt0[10:])), nil
}

func checkDirHeader(b []byte) error {
	if len(b) < dirHeaderSize {
		return fmt.Errorf("fabric: directory header truncated at %d bytes", len(b))
	}
	if b[0] != dirMagic0 || b[1] != dirMagic1 {
		return fmt.Errorf("fabric: bad directory magic %#x %#x", b[0], b[1])
	}
	if b[2] != dirVersion {
		return fmt.Errorf("fabric: directory version %d, this client speaks %d", b[2], dirVersion)
	}
	return nil
}

// DecodeDirectory reassembles a directory from its full packet set (the d
// packets DirectoryPacketCount announced).
func DecodeDirectory(packets [][]byte) (*Directory, error) {
	if len(packets) == 0 {
		return nil, fmt.Errorf("fabric: no directory packets")
	}
	var buf []byte
	for _, p := range packets {
		buf = append(buf, p...)
	}
	if err := checkDirHeader(buf); err != nil {
		return nil, err
	}
	d := &Directory{
		Self: int(binary.LittleEndian.Uint16(buf[4:])),
		S:    int(binary.LittleEndian.Uint16(buf[6:])),
	}
	nodes := int(binary.LittleEndian.Uint16(buf[8:]))
	if want := int(binary.LittleEndian.Uint16(buf[10:])); want != len(packets) {
		return nil, fmt.Errorf("fabric: directory spans %d packets, got %d", want, len(packets))
	}
	if d.S < 1 || nodes < 1 || d.Self >= d.S {
		return nil, fmt.Errorf("fabric: corrupt directory header (S=%d nodes=%d self=%d)", d.S, nodes, d.Self)
	}
	if dirHeaderSize+nodes*dirNodeSize > len(buf) {
		return nil, fmt.Errorf("fabric: %d directory nodes overflow %d packets", nodes, len(packets))
	}
	d.Nodes = make([]DirNode, nodes)
	at := dirHeaderSize
	for i := range d.Nodes {
		d.Nodes[i] = DirNode{
			Axis:    buf[at],
			Split:   math.Float64frombits(binary.LittleEndian.Uint64(buf[at+1:])),
			Left:    binary.LittleEndian.Uint16(buf[at+9:]),
			Right:   binary.LittleEndian.Uint16(buf[at+11:]),
			Channel: binary.LittleEndian.Uint16(buf[at+13:]),
		}
		at += dirNodeSize
	}
	if err := d.checkTree(); err != nil {
		return nil, err
	}
	return d, nil
}

// checkTree verifies that a decoded directory means a routing tree over the
// S channels, not just that its bytes parse: every split is finite,
// children point forward (so Route terminates), every node but the root
// has exactly one parent (no unreachable or shared subtree), and every
// channel owns exactly one leaf.
func (d *Directory) checkTree() error {
	nodes := len(d.Nodes)
	parents := make([]int, nodes)
	leaves := make([]bool, d.S)
	nLeaves := 0
	for i, nd := range d.Nodes {
		if math.IsNaN(nd.Split) || math.IsInf(nd.Split, 0) {
			return fmt.Errorf("fabric: directory node %d splits at %v", i, nd.Split)
		}
		switch nd.Axis {
		case axisLeaf:
			if int(nd.Channel) >= d.S {
				return fmt.Errorf("fabric: directory leaf %d names channel %d of %d", i, nd.Channel, d.S)
			}
			if leaves[nd.Channel] {
				return fmt.Errorf("fabric: directory channel %d owns more than one leaf", nd.Channel)
			}
			leaves[nd.Channel] = true
			nLeaves++
		case axisX, axisY:
			if int(nd.Left) >= nodes || int(nd.Right) >= nodes || int(nd.Left) <= i || int(nd.Right) <= i {
				return fmt.Errorf("fabric: directory node %d has out-of-order children", i)
			}
			parents[nd.Left]++
			parents[nd.Right]++
		default:
			return fmt.Errorf("fabric: directory node %d has axis %d", i, nd.Axis)
		}
	}
	for i := 1; i < nodes; i++ {
		switch {
		case parents[i] == 0:
			return fmt.Errorf("fabric: directory node %d is unreachable", i)
		case parents[i] > 1:
			return fmt.Errorf("fabric: directory node %d is shared by %d parents", i, parents[i])
		}
	}
	if nLeaves != d.S {
		return fmt.Errorf("fabric: directory covers %d of %d channels", nLeaves, d.S)
	}
	return nil
}

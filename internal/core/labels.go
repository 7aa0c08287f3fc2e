// Package core implements the paper's main contribution (Section 6 and
// Theorem 1): an O(log n)-bit proof labeling scheme deciding any supported
// MSO₂ property on graphs of bounded pathwidth.
//
// The prover pipeline is: path decomposition → lane partition (Section 4) →
// completion + embedding → lanewidth transcript (Proposition 5.2) →
// hierarchical decomposition (Proposition 5.6) → homomorphism classes
// (Proposition 6.1) → per-edge certificates (Lemmas 6.4/6.5) → embedding
// certification (Theorem 1). The verifier re-runs every local check of
// Section 6.2 at each vertex from its identifier and incident edge labels
// alone.
package core

import (
	"strconv"
	"sync"

	"repro/internal/bits"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/lanewidth"
)

// ChildSummary is B(Tree-merge(T_child)) as carried on the edges of the
// parent member (Lemma 6.5, T-node case). Sibling lane sets are disjoint,
// so a member stores at most k of these. InIDs and MergedOutIDs are aligned
// with Lanes: entry i belongs to lane Lanes[i].
type ChildSummary struct {
	NodeID        int
	Lanes         []int
	InIDs         []uint64
	MergedOutIDs  []uint64
	MergedClassID int
}

// OperandSummary is the basic information of a B-node operand (a V-node or
// T-node), carried on the edges of the B-node's subgraph (Lemma 6.5,
// B-node case). InIDs and OutIDs are aligned with Lanes: entry i belongs to
// lane Lanes[i].
type OperandSummary struct {
	NodeID  int
	Kind    lanewidth.Kind
	Lanes   []int
	InIDs   []uint64
	OutIDs  []uint64
	ClassID int
	Input   int // V-node operands: the vertex's input label
}

// encCache memoizes a label component's canonical encoding as one string,
// key: the encoding's ⌈nbits/8⌉ bytes (final byte zero-padded) followed by
// the decimal bit count, so partial final bytes cannot alias. key is the
// component's Key, and its byte prefix is the chunk spliced into enclosing
// encodings. Labels are immutable once handed out by ProveCtx or a
// LabelDecoder (corruption experiments go through Clone, which resets the
// cache), so the encoding is computed — or, for decoded node entries and
// completion-edge certificates, filled from the input — at most once; the
// sync.Once makes concurrent verifiers (VerifyParallelCtx, dist) race-free.
// An EdgeLabel's key is built only when its Key is asked for: marshaling
// splices its components straight into the wire buffer (AppendLabel).
type encCache struct {
	once  sync.Once
	key   string
	nbits int

	// sizeOnce/size memoize the exact encoded bit count computed without
	// materializing the byte encoding (see EdgeLabel.Bits): proof-size
	// accounting (Labeling.MaxBits, experiments E1/E8/E9) must not pay for
	// byte assembly it never reads.
	sizeOnce sync.Once
	size     int
}

// materialize runs the raw encoder once and freezes its output, appending
// the bit count to the writer's own buffer so the key is its only copy.
func (c *encCache) materialize(raw func(*bits.Writer)) {
	c.once.Do(func() {
		w := bits.NewWriter(nil)
		raw(w)
		c.nbits = w.Bits()
		c.key = string(strconv.AppendInt(w.Buf(), int64(c.nbits), 10))
	})
}

// fill freezes an encoding recovered from decoded input instead of running
// the encoder: key and nbits are exactly what materialize would compute for
// the decoded component (LabelDecoder checks canonicality while reading, so
// the input bits are the canonical encoding).
func (c *encCache) fill(key string, nbits int) {
	c.once.Do(func() {
		c.key, c.nbits = key, nbits
	})
	c.sizeOnce.Do(func() { c.size = nbits })
}

// splice appends the materialized encoding to w.
func (c *encCache) splice(w *bits.Writer) {
	w.WriteChunk(c.key, c.nbits)
}

// NodeEntry is the basic information B(G) of one hierarchy node, stored on
// every edge of the node's subgraph. An edge's certificate holds the entries
// of the ≤ 2k nodes on its root-to-owner path (Observation 5.5).
//
// Lanes is the node's lane set in increasing order (the verifier rejects
// any other), and every terminal identifier list (InIDs, OutIDs,
// MergedOutIDs) is aligned with it: entry i belongs to lane Lanes[i]. A
// non-member's MergedOutIDs is nil and encodes as one zero per lane.
type NodeEntry struct {
	NodeID  int
	Kind    lanewidth.Kind
	Lanes   []int
	InIDs   []uint64
	OutIDs  []uint64
	ClassID int

	// Tree-member fields (set when the node is a member of a T-node's tree).
	ParentID      int // enclosing T-node id
	MergedClassID int
	MergedOutIDs  []uint64
	Children      []ChildSummary

	// E-node: PathIDs = [in, out]; RealBits[0] marks the edge real.
	// P-node: PathIDs in lane order; RealBits per consecutive path edge.
	// VInputs carries the vertices' input labels in PathIDs order (each
	// vertex verifies its own entry against its state).
	PathIDs  []uint64
	RealBits []bool
	VInputs  []int

	// B-node.
	LaneI, LaneJ int
	BridgeReal   bool
	Left, Right  *OperandSummary

	// T-node: summary of its tree's root member.
	RootMember *ChildSummary

	cache encCache
}

// CEdgeLabel is the certificate of one completion edge: the node entries
// along its root-to-owner path, plus the edge's position when its owner is
// a P-node (whose several edges share the entry).
type CEdgeLabel struct {
	Path     []*NodeEntry
	OwnerPos int // P-node owners: edge joins PathIDs[OwnerPos], PathIDs[OwnerPos+1]

	cache encCache
}

// EmbEntry simulates a virtual completion edge on one real edge of its
// embedding path (Theorem 1's embedding certification): the virtual edge's
// endpoint identifiers, this real edge's 1-based rank in both directions,
// and a copy of the virtual edge's certificate.
type EmbEntry struct {
	UID, VID uint64
	Fwd, Bwd int
	Payload  *CEdgeLabel
}

// EdgeLabel is the complete label of a real edge.
type EdgeLabel struct {
	Own      *CEdgeLabel
	Emb      []EmbEntry
	Pointing *cert.PointingLabel // root-anchor pointing scheme (Prop 2.2)

	cache encCache
}

// Labeling is a full proof assignment.
type Labeling struct {
	// Edges maps each real edge to its label.
	Edges map[graph.Edge]*EdgeLabel
}

// MaxBits returns the proof size: the largest edge label in bits.
func (l *Labeling) MaxBits() int {
	best := 0
	for _, el := range l.Edges {
		if b := el.Bits(); b > best {
			best = b
		}
	}
	return best
}

// --- canonical encodings -------------------------------------------------

// writeIDs emits one id per lane from a list aligned with lanes. A short
// list (a non-member's nil MergedOutIDs) reads as zeros past its end.
func writeIDs(w *bits.Writer, lanes []int, ids []uint64) {
	for i := range lanes {
		w.WriteUvarint(idAt(ids, i))
	}
}

// idAt returns ids[i], or 0 when i is negative or past the list's end.
func idAt(ids []uint64, i int) uint64 {
	if 0 <= i && i < len(ids) {
		return ids[i]
	}
	return 0
}

func (c *ChildSummary) encode(w *bits.Writer) {
	w.WriteUvarint(uint64(c.NodeID))
	w.WriteUvarint(uint64(len(c.Lanes)))
	for _, l := range c.Lanes {
		w.WriteUvarint(uint64(l))
	}
	writeIDs(w, c.Lanes, c.InIDs)
	writeIDs(w, c.Lanes, c.MergedOutIDs)
	w.WriteUvarint(uint64(c.MergedClassID))
}

func (o *OperandSummary) encode(w *bits.Writer) {
	w.WriteUvarint(uint64(o.NodeID))
	w.WriteUint(uint64(o.Kind), 3)
	w.WriteUvarint(uint64(len(o.Lanes)))
	for _, l := range o.Lanes {
		w.WriteUvarint(uint64(l))
	}
	writeIDs(w, o.Lanes, o.InIDs)
	writeIDs(w, o.Lanes, o.OutIDs)
	w.WriteUvarint(uint64(o.ClassID))
	w.WriteUvarint(uint64(o.Input))
}

// encode appends the entry's canonical encoding, memoized on first use.
func (n *NodeEntry) encode(w *bits.Writer) {
	n.cache.materialize(n.encodeRaw)
	n.cache.splice(w)
}

// encodeRaw is the bit-level definition of the entry's canonical encoding;
// callers go through encode/Key, which cache its output.
func (n *NodeEntry) encodeRaw(w *bits.Writer) {
	w.WriteUvarint(uint64(n.NodeID))
	w.WriteUint(uint64(n.Kind), 3)
	w.WriteUvarint(uint64(len(n.Lanes)))
	for _, l := range n.Lanes {
		w.WriteUvarint(uint64(l))
	}
	writeIDs(w, n.Lanes, n.InIDs)
	writeIDs(w, n.Lanes, n.OutIDs)
	w.WriteUvarint(uint64(n.ClassID))
	w.WriteUvarint(uint64(n.ParentID + 1))
	w.WriteUvarint(uint64(n.MergedClassID))
	writeIDs(w, n.Lanes, n.MergedOutIDs)
	w.WriteUvarint(uint64(len(n.Children)))
	for i := range n.Children {
		n.Children[i].encode(w)
	}
	w.WriteUvarint(uint64(len(n.PathIDs)))
	for _, id := range n.PathIDs {
		w.WriteUvarint(id)
	}
	for _, b := range n.RealBits {
		w.WriteBit(b)
	}
	for _, in := range n.VInputs {
		w.WriteUvarint(uint64(in))
	}
	w.WriteUvarint(uint64(n.LaneI))
	w.WriteUvarint(uint64(n.LaneJ))
	w.WriteBit(n.BridgeReal)
	for _, op := range []*OperandSummary{n.Left, n.Right} {
		if op == nil {
			w.WriteBit(false)
			continue
		}
		w.WriteBit(true)
		op.encode(w)
	}
	if n.RootMember == nil {
		w.WriteBit(false)
	} else {
		w.WriteBit(true)
		n.RootMember.encode(w)
	}
}

// Key returns a canonical encoding of the entry (payload bytes plus the
// exact bit count, so partial final bytes cannot alias), used for the
// per-vertex consistency checks ("all incident edges agree on B(G)").
// The encoding is memoized: repeated calls return the same string instance,
// so honest-path comparisons are pointer-equal and O(1).
func (n *NodeEntry) Key() string {
	n.cache.materialize(n.encodeRaw)
	return n.cache.key
}

func (c *CEdgeLabel) encode(w *bits.Writer) {
	c.cache.materialize(c.encodeRaw)
	c.cache.splice(w)
}

func (c *CEdgeLabel) encodeRaw(w *bits.Writer) {
	w.WriteUvarint(uint64(len(c.Path)))
	for _, e := range c.Path {
		e.encode(w)
	}
	w.WriteUvarint(uint64(c.OwnerPos))
}

// Key returns a canonical encoding of the certificate, memoized on first use.
func (c *CEdgeLabel) Key() string {
	c.cache.materialize(c.encodeRaw)
	return c.cache.key
}

// Bits returns the exact encoded size of the certificate (memoized) by
// size accounting alone — the entry encodings it splices are already
// cached, so no byte assembly happens.
func (c *CEdgeLabel) Bits() int {
	c.cache.sizeOnce.Do(func() {
		n := bits.UvarintLen(uint64(len(c.Path)))
		for _, e := range c.Path {
			e.cache.materialize(e.encodeRaw)
			n += e.cache.nbits
		}
		n += bits.UvarintLen(uint64(c.OwnerPos))
		c.cache.size = n
	})
	return c.cache.size
}

// Bits returns the exact encoded size of the label (memoized). The size is
// computed by accounting, mirroring encodeRaw bit for bit, so calling it
// never materializes the label's byte encoding.
func (l *EdgeLabel) Bits() int {
	l.cache.sizeOnce.Do(func() {
		n := 1
		if l.Own != nil {
			n += l.Own.Bits()
		}
		n += bits.UvarintLen(uint64(len(l.Emb)))
		for _, e := range l.Emb {
			n += bits.UvarintLen(e.UID) + bits.UvarintLen(e.VID) +
				bits.UvarintLen(uint64(e.Fwd)) + bits.UvarintLen(uint64(e.Bwd)) +
				e.Payload.Bits()
		}
		n++
		if l.Pointing != nil {
			n += l.Pointing.Bits()
		}
		l.cache.size = n
	})
	return l.cache.size
}

// Key returns a canonical encoding of the whole edge label, used for the
// cross-endpoint agreement check of the distributed simulator and by
// experiments. It is the only place an edge label's encoding is cached:
// built on first call and memoized, so the honest path (both endpoints
// holding the same label pointer) compares the same string instance in O(1).
func (l *EdgeLabel) Key() string {
	l.cache.materialize(l.encodeRaw)
	return l.cache.key
}

// AppendLabel appends the edge label's canonical encoding to dst, starting
// on a fresh byte, and returns the extended buffer and the encoding's bit
// count (always l.Bits()). It is the single edge-label encoder: the label
// is assembled in place from its components' cached encodings, with no
// intermediate copy. Size dst from l.Bits() to append without growing.
func AppendLabel(dst []byte, l *EdgeLabel) ([]byte, int) {
	w := bits.NewWriter(dst)
	l.encodeRaw(w)
	return w.Buf(), w.Bits()
}

// EncodeLabel serializes an edge label to its exact bit representation —
// the artifact that would cross the wire in the PLS model — as AppendLabel
// into a buffer of exactly ⌈l.Bits()/8⌉ bytes.
func EncodeLabel(l *EdgeLabel) ([]byte, int) {
	return AppendLabel(make([]byte, 0, (l.Bits()+7)/8), l)
}

func (l *EdgeLabel) encodeRaw(w *bits.Writer) {
	if l.Own != nil {
		w.WriteBit(true)
		l.Own.encode(w)
	} else {
		w.WriteBit(false)
	}
	w.WriteUvarint(uint64(len(l.Emb)))
	for _, e := range l.Emb {
		w.WriteUvarint(e.UID)
		w.WriteUvarint(e.VID)
		w.WriteUvarint(uint64(e.Fwd))
		w.WriteUvarint(uint64(e.Bwd))
		e.Payload.encode(w)
	}
	if l.Pointing != nil {
		w.WriteBit(true)
		w.WriteUvarint(l.Pointing.X)
		w.WriteUvarint(l.Pointing.UID)
		w.WriteUvarint(l.Pointing.VID)
		w.WriteUvarint(uint64(l.Pointing.DU))
		w.WriteUvarint(uint64(l.Pointing.DV))
	} else {
		w.WriteBit(false)
	}
}

func lanesDisjoint(a, b []int) bool {
	for _, l := range a {
		for _, m := range b {
			if l == m {
				return false
			}
		}
	}
	return true
}

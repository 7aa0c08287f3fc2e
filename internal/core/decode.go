package core

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/bits"
	"repro/internal/cert"
	"repro/internal/lanewidth"
)

// DecodeLabel parses a label produced by EncodeLabel. It is canonical: it
// accepts exactly the (data, nbits) pairs EncodeLabel produces, so every
// decoded label re-encodes to its input (see LabelDecoder for the forms it
// rejects). Together they witness that the bit counts reported by
// experiments correspond to a real, self-delimiting encoding.
func DecodeLabel(data []byte, nbits int) (*EdgeLabel, error) {
	var d LabelDecoder
	return d.Decode(data, nbits)
}

// LabelDecoder decodes the labels of one labeling in a single canonical
// pass. It rejects every non-canonical form while reading:
//
//   - a byte length other than ⌈nbits/8⌉, or padding bits that are not zero;
//   - unread trailing bits;
//   - an Elias-gamma prefix longer than any value needs (bits.Reader);
//   - a lane listed twice whose id values differ (the decode oracle
//     collapses ids by lane, so its re-encoding differs and it rejects);
//   - a non-member entry (ParentID −1) with a non-zero merged class or
//     merged id.
//
// Node entries and completion-edge certificates are interned by their
// exact bit content, so labels decoded by one LabelDecoder share entries
// the way the prover's labels do (Theorem 1's embedding certification
// copies one virtual edge's certificate onto every edge of its path). Each
// decoded entry's and certificate's encoding cache is filled from the input
// bits it was read from, so their Key, Bits and re-encoding never run the
// encoder. A decoded EdgeLabel keeps no bytes of its own: AppendLabel
// re-assembles it from those cached chunks. Each entry is read once into a
// reused scratch record; the NodeEntry is built, with copies of the
// record's columns, only when its content is new.
//
// The zero value is ready to use. A LabelDecoder is not safe for
// concurrent use; the labels it returns are.
type LabelDecoder struct {
	entries map[string]*NodeEntry
	cedges  map[string]*CEdgeLabel
	key     []byte // scratch: a component's canonical bytes, then its bit count
	rec     entryRec
	path    []*NodeEntry
}

// Decode parses one label; see DecodeLabel.
func (d *LabelDecoder) Decode(data []byte, nbits int) (*EdgeLabel, error) {
	if nbits < 0 || len(data) != (nbits+7)/8 {
		return nil, fmt.Errorf("core: a %d-bit label cannot span %d bytes", nbits, len(data))
	}
	if tail := nbits & 7; tail != 0 && data[len(data)-1]<<uint(tail) != 0 {
		return nil, errors.New("core: non-canonical label: padding bits are set")
	}
	r := bits.NewReader(data, nbits)
	l, err := d.edgeLabel(r)
	if err != nil {
		return nil, err
	}
	if r.Pos() != nbits {
		return nil, fmt.Errorf("core: non-canonical label: %d unread trailing bits", nbits-r.Pos())
	}
	return l, nil
}

// span sets d.key to the canonical encoding of the input bits
// [start, r.Pos()) followed by their bit count — the encCache key format —
// and returns the bit count.
func (d *LabelDecoder) span(r *bits.Reader, start int) int {
	nbits := r.Pos() - start
	d.key = strconv.AppendInt(r.AppendSpan(d.key[:0], start), int64(nbits), 10)
	return nbits
}

func (d *LabelDecoder) edgeLabel(r *bits.Reader) (*EdgeLabel, error) {
	out := &EdgeLabel{}
	hasOwn, err := r.ReadBit()
	if err != nil {
		return nil, err
	}
	if hasOwn {
		if out.Own, err = d.cedge(r); err != nil {
			return nil, err
		}
	}
	nEmb, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if nEmb > 1<<20 {
		return nil, fmt.Errorf("core: implausible embedding count %d", nEmb)
	}
	for i := uint64(0); i < nEmb; i++ {
		var e EmbEntry
		var fwd, bwd uint64
		if e.UID, err = r.ReadUvarint(); err != nil {
			return nil, err
		}
		if e.VID, err = r.ReadUvarint(); err != nil {
			return nil, err
		}
		if fwd, err = r.ReadUvarint(); err != nil {
			return nil, err
		}
		if bwd, err = r.ReadUvarint(); err != nil {
			return nil, err
		}
		e.Fwd, e.Bwd = int(fwd), int(bwd)
		if e.Payload, err = d.cedge(r); err != nil {
			return nil, err
		}
		out.Emb = append(out.Emb, e)
	}
	hasPointing, err := r.ReadBit()
	if err != nil {
		return nil, err
	}
	if hasPointing {
		var p cert.PointingLabel
		var du, dv uint64
		for _, dst := range []*uint64{&p.X, &p.UID, &p.VID, &du, &dv} {
			if *dst, err = r.ReadUvarint(); err != nil {
				return nil, err
			}
		}
		p.DU, p.DV = int(du), int(dv)
		out.Pointing = &p
	}
	return out, nil
}

// cedge reads one completion-edge certificate, returning the interned
// instance of its content.
func (d *LabelDecoder) cedge(r *bits.Reader) (*CEdgeLabel, error) {
	start := r.Pos()
	n, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("core: implausible path length %d", n)
	}
	d.path = d.path[:0]
	for i := uint64(0); i < n; i++ {
		e, err := d.entry(r)
		if err != nil {
			return nil, err
		}
		d.path = append(d.path, e)
	}
	pos, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	nbits := d.span(r, start)
	if c, ok := d.cedges[string(d.key)]; ok {
		return c, nil
	}
	c := &CEdgeLabel{OwnerPos: int(pos)}
	if len(d.path) > 0 {
		c.Path = append([]*NodeEntry(nil), d.path...)
	}
	key := string(d.key)
	c.cache.fill(key, nbits)
	if d.cedges == nil {
		d.cedges = map[string]*CEdgeLabel{}
	}
	d.cedges[key] = c
	return c, nil
}

// entry reads one node entry into the scratch record and returns the
// interned instance of its content, building it on first sight.
func (d *LabelDecoder) entry(r *bits.Reader) (*NodeEntry, error) {
	start := r.Pos()
	if err := d.rec.read(r); err != nil {
		return nil, err
	}
	nbits := d.span(r, start)
	if e, ok := d.entries[string(d.key)]; ok {
		return e, nil
	}
	e := d.rec.build()
	key := string(d.key)
	e.cache.fill(key, nbits)
	if d.entries == nil {
		d.entries = map[string]*NodeEntry{}
	}
	d.entries[key] = e
	return e, nil
}

// entryRec is the scratch form of a NodeEntry as read: the same
// lane-aligned columns, with every slice reused across entries.
type entryRec struct {
	nodeID, kind, class, parent, merged uint64
	lanes                               []int
	in, out, mergedOut                  []uint64
	children                            []childRec
	pathIDs                             []uint64
	realBits                            []bool
	vInputs                             []uint64
	laneI, laneJ                        uint64
	bridgeReal                          bool
	ops                                 [2]operandRec
	hasOp                               [2]bool
	root                                childRec
	hasRoot                             bool
}

// childRec is the scratch form of a ChildSummary.
type childRec struct {
	nodeID, class uint64
	lanes         []int
	in, mergedOut []uint64
}

// operandRec is the scratch form of an OperandSummary.
type operandRec struct {
	nodeID, kind, class, input uint64
	lanes                      []int
	in, out                    []uint64
}

func (e *entryRec) read(r *bits.Reader) error {
	var err error
	if e.nodeID, err = r.ReadUvarint(); err != nil {
		return err
	}
	if e.kind, err = r.ReadUint(3); err != nil {
		return err
	}
	if e.lanes, err = readLanes(r, e.lanes); err != nil {
		return err
	}
	if e.in, err = readIDs(r, e.lanes, e.in); err != nil {
		return err
	}
	if e.out, err = readIDs(r, e.lanes, e.out); err != nil {
		return err
	}
	if e.class, err = r.ReadUvarint(); err != nil {
		return err
	}
	if e.parent, err = r.ReadUvarint(); err != nil {
		return err
	}
	if e.merged, err = r.ReadUvarint(); err != nil {
		return err
	}
	if e.mergedOut, err = readIDs(r, e.lanes, e.mergedOut); err != nil {
		return err
	}
	if e.parent == 0 {
		// A non-member's merged fields are implied zero: the encoder
		// writes zeros and the entry does not carry them.
		if e.merged != 0 {
			return errors.New("core: non-canonical label: non-member entry carries a merged class")
		}
		for _, id := range e.mergedOut {
			if id != 0 {
				return errors.New("core: non-canonical label: non-member entry carries merged ids")
			}
		}
	}
	nChildren, err := r.ReadUvarint()
	if err != nil {
		return err
	}
	if nChildren > 1<<12 {
		return fmt.Errorf("core: implausible child count %d", nChildren)
	}
	e.children = e.children[:0]
	for i := uint64(0); i < nChildren; i++ {
		if len(e.children) < cap(e.children) {
			e.children = e.children[:len(e.children)+1]
		} else {
			e.children = append(e.children, childRec{})
		}
		if err := e.children[i].read(r); err != nil {
			return err
		}
	}
	nPath, err := r.ReadUvarint()
	if err != nil {
		return err
	}
	if nPath > 1<<12 {
		return fmt.Errorf("core: implausible path-id count %d", nPath)
	}
	e.pathIDs, e.realBits, e.vInputs = e.pathIDs[:0], e.realBits[:0], e.vInputs[:0]
	for i := uint64(0); i < nPath; i++ {
		v, err := r.ReadUvarint()
		if err != nil {
			return err
		}
		e.pathIDs = append(e.pathIDs, v)
	}
	if nPath > 0 {
		// RealBits and VInputs lengths are kind-determined: one real bit
		// per consecutive path pair, one input per path vertex.
		for i := uint64(1); i < nPath; i++ {
			b, err := r.ReadBit()
			if err != nil {
				return err
			}
			e.realBits = append(e.realBits, b)
		}
		for i := uint64(0); i < nPath; i++ {
			v, err := r.ReadUvarint()
			if err != nil {
				return err
			}
			e.vInputs = append(e.vInputs, v)
		}
	}
	if e.laneI, err = r.ReadUvarint(); err != nil {
		return err
	}
	if e.laneJ, err = r.ReadUvarint(); err != nil {
		return err
	}
	if e.bridgeReal, err = r.ReadBit(); err != nil {
		return err
	}
	for i := range e.ops {
		if e.hasOp[i], err = r.ReadBit(); err != nil {
			return err
		}
		if e.hasOp[i] {
			if err := e.ops[i].read(r); err != nil {
				return err
			}
		}
	}
	if e.hasRoot, err = r.ReadBit(); err != nil {
		return err
	}
	if e.hasRoot {
		return e.root.read(r)
	}
	return nil
}

func (c *childRec) read(r *bits.Reader) error {
	var err error
	if c.nodeID, err = r.ReadUvarint(); err != nil {
		return err
	}
	if c.lanes, err = readLanes(r, c.lanes); err != nil {
		return err
	}
	if c.in, err = readIDs(r, c.lanes, c.in); err != nil {
		return err
	}
	if c.mergedOut, err = readIDs(r, c.lanes, c.mergedOut); err != nil {
		return err
	}
	c.class, err = r.ReadUvarint()
	return err
}

func (o *operandRec) read(r *bits.Reader) error {
	var err error
	if o.nodeID, err = r.ReadUvarint(); err != nil {
		return err
	}
	if o.kind, err = r.ReadUint(3); err != nil {
		return err
	}
	if o.lanes, err = readLanes(r, o.lanes); err != nil {
		return err
	}
	if o.in, err = readIDs(r, o.lanes, o.in); err != nil {
		return err
	}
	if o.out, err = readIDs(r, o.lanes, o.out); err != nil {
		return err
	}
	if o.class, err = r.ReadUvarint(); err != nil {
		return err
	}
	o.input, err = r.ReadUvarint()
	return err
}

// readLanes reads a lane list into dst's storage.
func readLanes(r *bits.Reader, dst []int) ([]int, error) {
	n, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<12 {
		return nil, fmt.Errorf("core: implausible lane count %d", n)
	}
	dst = dst[:0]
	for i := uint64(0); i < n; i++ {
		l, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, int(l))
	}
	return dst, nil
}

// readIDs reads one id per lane into dst's storage. A lane listed twice
// must carry the same id twice (see LabelDecoder).
func readIDs(r *bits.Reader, lanes []int, dst []uint64) ([]uint64, error) {
	dst = dst[:0]
	for range lanes {
		v, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	for i := 1; i < len(lanes); i++ {
		if lanes[i] <= lanes[i-1] {
			return dst, checkRepeatedLanes(lanes, dst)
		}
	}
	return dst, nil
}

// checkRepeatedLanes is readIDs' slow path for lane lists that are not
// strictly increasing.
func checkRepeatedLanes(lanes []int, ids []uint64) error {
	seen := make(map[int]uint64, len(lanes))
	for i, l := range lanes {
		if v, ok := seen[l]; ok && v != ids[i] {
			return fmt.Errorf("core: non-canonical label: lane %d listed twice with different ids", l)
		}
		seen[l] = ids[i]
	}
	return nil
}

// build materializes the scratch record as a fresh NodeEntry.
func (e *entryRec) build() *NodeEntry {
	n := &NodeEntry{
		NodeID:   int(e.nodeID),
		Kind:     lanewidth.Kind(e.kind),
		Lanes:    cloneLanes(e.lanes),
		InIDs:    slices.Clone(e.in),
		OutIDs:   slices.Clone(e.out),
		ClassID:  int(e.class),
		ParentID: int(e.parent) - 1,
		LaneI:    int(e.laneI),
		LaneJ:    int(e.laneJ),

		BridgeReal: e.bridgeReal,
	}
	if n.ParentID != -1 {
		n.MergedClassID = int(e.merged)
		n.MergedOutIDs = slices.Clone(e.mergedOut)
	}
	if len(e.children) > 0 {
		n.Children = make([]ChildSummary, len(e.children))
		for i := range e.children {
			n.Children[i] = e.children[i].build()
		}
	}
	if len(e.pathIDs) > 0 {
		n.PathIDs = slices.Clone(e.pathIDs)
		n.VInputs = make([]int, len(e.vInputs))
		for i, v := range e.vInputs {
			n.VInputs[i] = int(v)
		}
		if len(e.realBits) > 0 {
			n.RealBits = slices.Clone(e.realBits)
		}
	}
	for i, dst := range []**OperandSummary{&n.Left, &n.Right} {
		if e.hasOp[i] {
			*dst = e.ops[i].build()
		}
	}
	if e.hasRoot {
		rm := e.root.build()
		n.RootMember = &rm
	}
	return n
}

func (c *childRec) build() ChildSummary {
	return ChildSummary{
		NodeID:        int(c.nodeID),
		Lanes:         cloneLanes(c.lanes),
		InIDs:         slices.Clone(c.in),
		MergedOutIDs:  slices.Clone(c.mergedOut),
		MergedClassID: int(c.class),
	}
}

func (o *operandRec) build() *OperandSummary {
	return &OperandSummary{
		NodeID:  int(o.nodeID),
		Kind:    lanewidth.Kind(o.kind),
		Lanes:   cloneLanes(o.lanes),
		InIDs:   slices.Clone(o.in),
		OutIDs:  slices.Clone(o.out),
		ClassID: int(o.class),
		Input:   int(o.input),
	}
}

// cloneLanes copies a scratch lane list (non-nil even when empty, as every
// decoded lane list is).
func cloneLanes(lanes []int) []int {
	out := make([]int, len(lanes))
	copy(out, lanes)
	return out
}

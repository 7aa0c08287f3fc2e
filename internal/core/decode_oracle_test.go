package core

// The seed's decode-then-re-encode path, kept as the test-only oracle for
// the canonical single-pass decoder: a lenient structural parse followed by
// a canonicality check that re-encodes the parsed label and compares it
// with the input. The differential tests (decode_canonical_test.go) pin
// that DecodeLabel accepts exactly the inputs this oracle accepts.

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/cert"
	"repro/internal/lanewidth"
)

// oracleDecode is the reference acceptance rule: the lenient parse must
// succeed and EncodeLabel must reproduce (data, nbits) exactly.
func oracleDecode(data []byte, nbits int) (*EdgeLabel, error) {
	l, err := oracleParse(data, nbits)
	if err != nil {
		return nil, err
	}
	back, backBits := EncodeLabel(l)
	if backBits != nbits || string(back) != string(data) {
		return nil, fmt.Errorf("core: label is not canonically encoded")
	}
	return l, nil
}

// oracleParse is the seed's lenient DecodeLabel: it reads one label's
// structure without rejecting non-canonical forms.
func oracleParse(data []byte, nbits int) (*EdgeLabel, error) {
	r := bits.NewReader(data, nbits)
	return oracleEdgeLabel(r)
}

func oracleEdgeLabel(r *bits.Reader) (*EdgeLabel, error) {
	out := &EdgeLabel{}
	hasOwn, err := r.ReadBit()
	if err != nil {
		return nil, err
	}
	if hasOwn {
		own, err := oracleCEdge(r)
		if err != nil {
			return nil, err
		}
		out.Own = own
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
		if e.UID, err = r.ReadUvarint(); err != nil {
			return nil, err
		}
		if e.VID, err = r.ReadUvarint(); err != nil {
			return nil, err
		}
		fwd, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		bwd, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		e.Fwd, e.Bwd = int(fwd), int(bwd)
		if e.Payload, err = oracleCEdge(r); err != nil {
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
		if p.X, err = r.ReadUvarint(); err != nil {
			return nil, err
		}
		if p.UID, err = r.ReadUvarint(); err != nil {
			return nil, err
		}
		if p.VID, err = r.ReadUvarint(); err != nil {
			return nil, err
		}
		du, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		dv, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		p.DU, p.DV = int(du), int(dv)
		out.Pointing = &p
	}
	return out, nil
}

func oracleCEdge(r *bits.Reader) (*CEdgeLabel, error) {
	n, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("core: implausible path length %d", n)
	}
	out := &CEdgeLabel{}
	for i := uint64(0); i < n; i++ {
		e, err := oracleEntry(r)
		if err != nil {
			return nil, err
		}
		out.Path = append(out.Path, e)
	}
	pos, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	out.OwnerPos = int(pos)
	return out, nil
}

// oracleIDMap reads one id per lane through a map keyed by lane, as the
// seed's id maps did, then lays the map out per lane. The collapse is what
// defines canonicality for a lane listed twice: the map keeps the last id,
// so differing ids re-encode differently and the oracle rejects them. Do
// not read the ids straight into a slice here; that would widen the
// oracle's accept set.
func oracleIDMap(r *bits.Reader, lanes []int) ([]uint64, error) {
	m := make(map[int]uint64, len(lanes))
	for _, l := range lanes {
		v, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		m[l] = v
	}
	out := make([]uint64, len(lanes))
	for i, l := range lanes {
		out[i] = m[l]
	}
	return out, nil
}

func oracleLanes(r *bits.Reader) ([]int, error) {
	n, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<12 {
		return nil, fmt.Errorf("core: implausible lane count %d", n)
	}
	lanes := make([]int, 0, n)
	for i := uint64(0); i < n; i++ {
		l, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		lanes = append(lanes, int(l))
	}
	return lanes, nil
}

func oracleEntry(r *bits.Reader) (*NodeEntry, error) {
	e := &NodeEntry{}
	id, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	e.NodeID = int(id)
	kind, err := r.ReadUint(3)
	if err != nil {
		return nil, err
	}
	e.Kind = lanewidth.Kind(kind)
	if e.Lanes, err = oracleLanes(r); err != nil {
		return nil, err
	}
	if e.InIDs, err = oracleIDMap(r, e.Lanes); err != nil {
		return nil, err
	}
	if e.OutIDs, err = oracleIDMap(r, e.Lanes); err != nil {
		return nil, err
	}
	cls, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	e.ClassID = int(cls)
	parent, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	e.ParentID = int(parent) - 1
	merged, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	e.MergedClassID = int(merged)
	mergedOut, err := oracleIDMap(r, e.Lanes)
	if err != nil {
		return nil, err
	}
	nChildren, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if nChildren > 1<<12 {
		return nil, fmt.Errorf("core: implausible child count %d", nChildren)
	}
	for i := uint64(0); i < nChildren; i++ {
		c, err := oracleChild(r)
		if err != nil {
			return nil, err
		}
		e.Children = append(e.Children, c)
	}
	if e.ParentID == -1 {
		// Non-members carry no merged data; the zero ids written by the
		// encoder are consumed above and discarded here.
		e.MergedClassID = 0
	} else {
		e.MergedOutIDs = mergedOut
	}
	nPath, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if nPath > 1<<12 {
		return nil, fmt.Errorf("core: implausible path-id count %d", nPath)
	}
	for i := uint64(0); i < nPath; i++ {
		v, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		e.PathIDs = append(e.PathIDs, v)
	}
	if len(e.PathIDs) > 0 {
		// RealBits and VInputs lengths are kind-determined: one real bit
		// per consecutive path pair, one input per path vertex.
		for i := 0; i+1 < len(e.PathIDs); i++ {
			b, err := r.ReadBit()
			if err != nil {
				return nil, err
			}
			e.RealBits = append(e.RealBits, b)
		}
		for i := 0; i < len(e.PathIDs); i++ {
			in, err := r.ReadUvarint()
			if err != nil {
				return nil, err
			}
			e.VInputs = append(e.VInputs, int(in))
		}
	}
	li, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	lj, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	e.LaneI, e.LaneJ = int(li), int(lj)
	if e.BridgeReal, err = r.ReadBit(); err != nil {
		return nil, err
	}
	for _, dst := range []**OperandSummary{&e.Left, &e.Right} {
		has, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		if !has {
			continue
		}
		op, err := oracleOperand(r)
		if err != nil {
			return nil, err
		}
		*dst = op
	}
	hasRM, err := r.ReadBit()
	if err != nil {
		return nil, err
	}
	if hasRM {
		rm, err := oracleChild(r)
		if err != nil {
			return nil, err
		}
		e.RootMember = &rm
	}
	return e, nil
}

func oracleChild(r *bits.Reader) (ChildSummary, error) {
	var c ChildSummary
	id, err := r.ReadUvarint()
	if err != nil {
		return c, err
	}
	c.NodeID = int(id)
	if c.Lanes, err = oracleLanes(r); err != nil {
		return c, err
	}
	if c.InIDs, err = oracleIDMap(r, c.Lanes); err != nil {
		return c, err
	}
	if c.MergedOutIDs, err = oracleIDMap(r, c.Lanes); err != nil {
		return c, err
	}
	cls, err := r.ReadUvarint()
	if err != nil {
		return c, err
	}
	c.MergedClassID = int(cls)
	return c, nil
}

func oracleOperand(r *bits.Reader) (*OperandSummary, error) {
	o := &OperandSummary{}
	id, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	o.NodeID = int(id)
	kind, err := r.ReadUint(3)
	if err != nil {
		return nil, err
	}
	o.Kind = lanewidth.Kind(kind)
	if o.Lanes, err = oracleLanes(r); err != nil {
		return nil, err
	}
	if o.InIDs, err = oracleIDMap(r, o.Lanes); err != nil {
		return nil, err
	}
	if o.OutIDs, err = oracleIDMap(r, o.Lanes); err != nil {
		return nil, err
	}
	cls, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	o.ClassID = int(cls)
	input, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	o.Input = int(input)
	return o, nil
}

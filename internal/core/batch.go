package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/par"
)

// DefaultMaxLanes is the lane budget a batch uses when BatchOptions.MaxLanes
// is 0 (certifies pathwidth ≤ DefaultMaxLanes−1, enough for every generator
// family in this repository).
const DefaultMaxLanes = 8

// BatchOptions configures a multi-property certification batch.
type BatchOptions struct {
	// MaxLanes is the per-scheme lane budget; 0 means DefaultMaxLanes.
	MaxLanes int
	// UsePaperConstruction selects the Proposition 4.6 lane construction
	// for the shared structure.
	UsePaperConstruction bool
	// Parallelism bounds every worker pool of the batch: the number of
	// concurrent per-property passes, and the worker count inside the shared
	// structure build and inside each property pass (class sweep, entry and
	// label assembly). 0 means GOMAXPROCS, 1 forces the sequential paths.
	// Labelings are byte-identical for every value (see Scheme.Workers).
	Parallelism int
}

// Batch certifies several properties of one configuration against a single
// shared StructuralProof: the property-independent pipeline (Sections 4–5)
// runs once, then each property runs only its algebra sweep (Section 6) on
// its own Scheme — one Registry per property, exactly as B independent
// ProveCtx calls would use, so every labeling is byte-identical to the
// labeling an independent ProveCtx would emit.
type Batch struct {
	opts    BatchOptions
	names   []string
	schemes map[string]*Scheme
}

// NewBatch builds a batch over the given properties. Property names must be
// non-empty and pairwise distinct (they key the result maps).
func NewBatch(props []algebra.Property, opts BatchOptions) (*Batch, error) {
	if len(props) == 0 {
		return nil, errors.New("core: batch needs at least one property")
	}
	if opts.MaxLanes == 0 {
		opts.MaxLanes = DefaultMaxLanes
	}
	b := &Batch{opts: opts, schemes: make(map[string]*Scheme, len(props))}
	for _, prop := range props {
		name := prop.Name()
		if name == "" {
			return nil, errors.New("core: batch property with empty name")
		}
		if _, dup := b.schemes[name]; dup {
			return nil, fmt.Errorf("core: duplicate property %q in batch", name)
		}
		s := NewScheme(prop, opts.MaxLanes)
		s.UsePaperConstruction = opts.UsePaperConstruction
		s.Workers = opts.Parallelism
		b.schemes[name] = s
		b.names = append(b.names, name)
	}
	return b, nil
}

// Properties returns the property names in batch order.
func (b *Batch) Properties() []string {
	return append([]string(nil), b.names...)
}

// Scheme returns the property's scheme — its Registry is the class table
// the property's labels refer to, so verification of a batch labeling must
// go through this scheme. Returns nil for unknown names.
func (b *Batch) Scheme(name string) *Scheme {
	return b.schemes[name]
}

// BatchStats reports one batch run: the shared structure's quantities plus
// each property's per-pass stats.
type BatchStats struct {
	// Structure quantities, computed once and shared by every property.
	Lanes          int
	VirtualEdges   int
	Congestion     int
	HierarchyDepth int
	// PerProperty holds each certified property's stats, identical to what
	// an independent ProveCtx of that property would report.
	PerProperty map[string]*Stats
	// Failed records the properties the configuration does not satisfy
	// (their error wraps ErrPropertyFails). They have no labeling; the rest
	// of the batch proceeds — matching B independent ProveCtx calls, where a
	// failing property fails alone.
	Failed map[string]error
}

// ProveAllWithCtx labels every property of the batch against an existing
// structure (built by BuildStructureCtx); callers serving many certification
// requests per graph can reuse one StructuralProof across any number of
// batches. The per-property passes run on a par.For pool bounded by
// BatchOptions.Parallelism, each writing its own slot; results are assembled
// in batch order, so the first error in batch order wins. Each pass polls
// the context before it starts and inside its class sweep, so cancellation
// drains the pool promptly and returns ctx.Err().
func (b *Batch) ProveAllWithCtx(ctx context.Context, sp *StructuralProof) (map[string]*Labeling, *BatchStats, error) {
	if sp == nil {
		return nil, nil, errors.New("core: nil structural proof")
	}
	type pass struct {
		labeling *Labeling
		stats    *Stats
		err      error
	}
	passes := make([]pass, len(b.names))
	par.For(b.opts.Parallelism, len(b.names), func(_, i int) {
		p := &passes[i]
		p.labeling, p.stats, p.err = b.schemes[b.names[i]].ProveWithCtx(ctx, sp)
	})
	stats := &BatchStats{
		PerProperty: make(map[string]*Stats, len(b.names)),
		Failed:      map[string]error{},
	}
	if !sp.singleVertex {
		stats.Lanes = sp.Partition.K()
		stats.VirtualEdges = len(sp.Completion.Virtual)
		stats.Congestion = sp.congestion
		stats.HierarchyDepth = sp.Hierarchy.Depth()
	}
	labelings := make(map[string]*Labeling, len(b.names))
	//lint:certlint ignore ctxpoll assembly of finished passes, bounded by the property count; no work left to cancel
	for i, name := range b.names {
		switch err := passes[i].err; {
		case errors.Is(err, ErrPropertyFails):
			stats.Failed[name] = err
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return nil, nil, err
		case err != nil:
			return nil, nil, fmt.Errorf("core: batch property %s: %w", name, err)
		default:
			labelings[name] = passes[i].labeling
			stats.PerProperty[name] = passes[i].stats
		}
	}
	return labelings, stats, nil
}

package lanes

import (
	"sort"

	"repro/internal/graph"
)

// TrackedEmbedding is an Embedding plus the per-source dependency metadata
// needed to re-derive it incrementally after graph edits. For each BFS
// source it records the ball of vertices the truncated traversal saw and
// the target set it was answering; a later re-embedding may reuse the
// source's paths verbatim whenever both are provably unchanged.
type TrackedEmbedding struct {
	Emb Embedding
	// balls[src] lists every vertex src's truncated BFS stamped as seen.
	// The BFS only ever reads the adjacency of vertices it dequeues, all of
	// which are in this ball, so an edit whose endpoints avoid the ball
	// cannot alter the traversal.
	balls map[graph.Vertex][]graph.Vertex
	// targets[src] is the sorted target set src's batch answered. The
	// traversal's termination point depends on it, so reuse also requires
	// it to be unchanged.
	targets map[graph.Vertex][]graph.Vertex
}

// EmbedTracked is EmbedShortestPathsP plus reuse metadata: the returned
// embedding is identical, and the tracked form can re-derive later
// embeddings of edited graphs source-by-source.
func EmbedTracked(g *graph.Graph, c *Completion) (*TrackedEmbedding, error) {
	bySource := groupBySource(c.Virtual)
	sc := newEmbedScratch(g.N())
	te := &TrackedEmbedding{
		Emb:     make(Embedding, len(c.Virtual)),
		balls:   make(map[graph.Vertex][]graph.Vertex, len(bySource)),
		targets: make(map[graph.Vertex][]graph.Vertex, len(bySource)),
	}
	for src, ves := range bySource {
		ball, err := sc.run(g, src, ves, te.Emb)
		if err != nil {
			return nil, err
		}
		te.balls[src] = append([]graph.Vertex(nil), ball...)
		te.targets[src] = sortedTargets(ves)
	}
	return te, nil
}

// Reembed computes the embedding of the edited graph g under the new
// completion c, reusing every source whose prior truncated BFS provably
// explores identical territory: the target set is unchanged and no touched
// vertex lies in the recorded ball. touched must list every vertex whose
// adjacency changed since the receiver was built (both endpoints of every
// added or removed edge). The result is byte-identical to a fresh
// EmbedShortestPathsP(g, c, 1); reuse only short-circuits traversals whose
// inputs did not change. Returns the new tracked embedding and the number
// of sources reused.
func (te *TrackedEmbedding) Reembed(g *graph.Graph, c *Completion, touched []graph.Vertex) (*TrackedEmbedding, int, error) {
	touchSet := make(map[graph.Vertex]bool, len(touched))
	for _, v := range touched {
		touchSet[v] = true
	}
	bySource := groupBySource(c.Virtual)
	out := &TrackedEmbedding{
		Emb:     make(Embedding, len(c.Virtual)),
		balls:   make(map[graph.Vertex][]graph.Vertex, len(bySource)),
		targets: make(map[graph.Vertex][]graph.Vertex, len(bySource)),
	}
	var sc *embedScratch
	reused := 0
	for src, ves := range bySource {
		tg := sortedTargets(ves)
		if old, ok := te.targets[src]; ok && vertsEqual(tg, old) && !ballTouched(te.balls[src], touchSet) {
			for _, ve := range ves {
				out.Emb[ve] = te.Emb[ve]
			}
			out.balls[src] = te.balls[src]
			out.targets[src] = tg
			reused++
			continue
		}
		if sc == nil {
			sc = newEmbedScratch(g.N())
		}
		ball, err := sc.run(g, src, ves, out.Emb)
		if err != nil {
			return nil, 0, err
		}
		out.balls[src] = append([]graph.Vertex(nil), ball...)
		out.targets[src] = tg
	}
	return out, reused, nil
}

// Sources returns the number of BFS sources the embedding was batched into.
func (te *TrackedEmbedding) Sources() int { return len(te.balls) }

func sortedTargets(ves []graph.Edge) []graph.Vertex {
	tg := make([]graph.Vertex, len(ves))
	for i, ve := range ves {
		tg[i] = ve.V
	}
	sort.Ints(tg)
	return tg
}

func vertsEqual(a, b []graph.Vertex) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func ballTouched(ball []graph.Vertex, touched map[graph.Vertex]bool) bool {
	for _, v := range ball {
		if touched[v] {
			return true
		}
	}
	return false
}

package store

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/hdg"
)

// memo is one epoch's neighbor selections, shared by every worker of a
// Stream: the paper's INFA policy (select once per epoch, share the result)
// applied to mini-batches. GraphStore.Sample is a pure function of
// (epochSeed, vertex), so a vertex selected for one batch frontier has the
// same records in every other frontier and layer of the epoch that reaches
// it — the memo asks the store once per distinct vertex instead of once per
// frontier. Its memory is O(distinct vertices × instances) per stream.
//
// The per-vertex table is a stamp table like Universe's: a slot counts only
// while its generation is current, so reset forgets the epoch in O(1).
type memo struct {
	mu    sync.Mutex
	gen   uint32
	slots []memoSlot
	// recs is the append-only arena of the epoch's records: vertex v's are
	// recs[off:off+n] of its slot, in the order Sample returned them.
	recs []hdg.Record
}

type memoSlot struct {
	gen    uint32
	off, n int32
}

func newMemo(numVertices int) *memo {
	return &memo{gen: 1, slots: make([]memoSlot, numVertices)}
}

// reset forgets every selection and lets go of their leaves.
func (m *memo) reset() {
	m.gen++
	if m.gen == 0 {
		clear(m.slots) // wrapped: see Universe.Reset
		m.gen = 1
	}
	clear(m.recs)
	m.recs = m.recs[:0]
}

// sample returns the records of frontier, grouped root-major in frontier
// order, in sc.recs' storage (valid until sc's next call). Vertices the epoch
// has not selected yet go to gs in one Sample call; their records are filed
// before the frontier is read back. Two workers missing on the same vertex
// both sample it and get bit-identical records, so the first to file wins.
func (m *memo) sample(ctx context.Context, gs GraphStore, epochSeed uint64, frontier []graph.VertexID, sc *scratch) ([]hdg.Record, error) {
	sc.misses = sc.misses[:0]
	m.mu.Lock()
	for _, v := range frontier {
		if uint(v) >= uint(len(m.slots)) {
			m.mu.Unlock()
			return nil, fmt.Errorf("store: frontier vertex %d not in [0,%d)", v, len(m.slots))
		}
		if m.slots[v].gen != m.gen {
			sc.misses = append(sc.misses, v)
		}
	}
	m.mu.Unlock()

	var recs []hdg.Record
	if len(sc.misses) > 0 {
		var err error
		if recs, err = gs.Sample(ctx, sc.misses, epochSeed); err != nil {
			return nil, err
		}
		// Each miss's records are one run, in miss order; check all of
		// them before filing any.
		sc.counts = sc.counts[:0]
		i := 0
		for _, v := range sc.misses {
			j := i
			for j < len(recs) && recs[j].Root == v {
				j++
			}
			sc.counts = append(sc.counts, int32(j-i))
			i = j
		}
		if i != len(recs) {
			return nil, &FetchError{Op: "sample", Verts: len(sc.misses),
				Err: fmt.Errorf("store: record for root %d is not grouped by root in request order", recs[i].Root)}
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	i := int32(0)
	for k, v := range sc.misses {
		n := sc.counts[k]
		if s := &m.slots[v]; s.gen != m.gen {
			*s = memoSlot{gen: m.gen, off: int32(len(m.recs)), n: n}
			m.recs = append(m.recs, recs[i:i+n]...)
		}
		i += n
	}
	out := sc.recs[:0]
	for _, v := range frontier {
		s := m.slots[v]
		out = append(out, m.recs[s.off:s.off+s.n]...)
	}
	sc.recs = out
	return out, nil
}

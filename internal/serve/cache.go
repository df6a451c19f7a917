package serve

import (
	"container/list"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// cacheKey identifies one cached activation row: the output of model layer
// Layer for vertex Vertex.
type cacheKey struct {
	Layer  int32
	Vertex graph.VertexID
}

// cacheEntry is one cached row plus the model version it was computed under.
// Rows are immutable after insertion: Fill stores a private copy and Probe
// returns that slice for reading only, so lookups never copy.
type cacheEntry struct {
	key     cacheKey
	version int64
	row     []float32
}

// embedCache is the versioned per-layer embedding cache: vertex -> hidden
// activation, bounded by a row-count capacity with LRU eviction. Entries are
// tagged with the model version they were computed under; a probe whose
// stored version differs from the requested one is a miss (the entry is
// dropped lazily), so bumping the server's model version invalidates every
// cached row at once without walking the map. Probe and Fill take a whole
// frontier, so a batch locks twice per layer however many vertices it has.
type embedCache struct {
	mu      sync.Mutex
	cap     int
	entries map[cacheKey]*list.Element
	lru     list.List // front = most recently used

	hits      *metrics.Counter
	misses    *metrics.Counter
	evictions *metrics.Counter
}

// newEmbedCache returns a cache holding at most capacity rows. capacity <= 0
// disables caching entirely (every probe misses, every fill is dropped).
func newEmbedCache(capacity int, reg *metrics.Registry) *embedCache {
	c := &embedCache{
		cap:       capacity,
		entries:   make(map[cacheKey]*list.Element),
		hits:      reg.Counter("serve_cache_hits_total"),
		misses:    reg.Counter("serve_cache_misses_total"),
		evictions: reg.Counter("serve_cache_evictions_total"),
	}
	c.lru.Init()
	return c
}

// Probe splits a frontier into cached and missing vertices: rows[i] becomes
// frontier[i]'s layer activation computed under version, or nil on a miss,
// and miss lists the misses in frontier order. Both are built in the
// arguments' backing arrays. A version mismatch both misses and drops the
// stale entry, so a model-version bump reclaims capacity as traffic touches
// the old rows.
func (c *embedCache) Probe(layer int32, frontier []graph.VertexID, version int64, rows [][]float32, miss []graph.VertexID) ([][]float32, []graph.VertexID) {
	rows = slices.Grow(rows[:0], len(frontier))[:len(frontier)]
	clear(rows)
	if c.cap <= 0 {
		c.misses.Add(int64(len(frontier)))
		return rows, append(miss[:0], frontier...)
	}
	miss = miss[:0]
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, v := range frontier {
		el, ok := c.entries[cacheKey{layer, v}]
		if ok {
			e := el.Value.(*cacheEntry)
			if e.version == version {
				c.lru.MoveToFront(el)
				rows[i] = e.row
				continue
			}
			c.lru.Remove(el)
			delete(c.entries, e.key)
		}
		miss = append(miss, v)
	}
	c.misses.Add(int64(len(miss)))
	c.hits.Add(int64(len(frontier) - len(miss)))
	return rows, miss
}

// Fill stores a copy of out's row i for (layer, verts[i]) under version,
// evicting the least recently used rows to stay within capacity.
func (c *embedCache) Fill(layer int32, verts []graph.VertexID, version int64, out *tensor.Tensor) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, v := range verts {
		key := cacheKey{layer, v}
		row := append([]float32(nil), out.Row(i)...)
		if el, ok := c.entries[key]; ok {
			// Replace rather than overwrite in place: rows handed out by
			// Probe stay immutable even if the same key is re-inserted.
			e := el.Value.(*cacheEntry)
			e.version = version
			e.row = row
			c.lru.MoveToFront(el)
			continue
		}
		c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, version: version, row: row})
	}
	for len(c.entries) > c.cap {
		back := c.lru.Back()
		old := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, old.key)
		c.evictions.Inc()
	}
}

// Len returns the number of resident rows.
func (c *embedCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

package server

import (
	"fmt"
	"sort"
	"sync"

	"colarm"
)

// Registry holds the named engines a server answers queries for, one
// per dataset. Engines are keyed by their dataset's name — the same
// name the query language's FROM clause and the HTTP API's "dataset"
// field use — and each registration carries a monotonically increasing
// generation: re-registering a name (a reloaded snapshot, a rebuilt
// index) bumps the generation, which retires every cached result keyed
// under the previous one without touching the cache itself.
//
// A Registry is safe for concurrent use; lookups are read-locked and
// engines themselves are safe for concurrent queries.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*engineEntry
}

type engineEntry struct {
	eng *colarm.Engine
	gen uint64
}

// NewRegistry creates an empty engine registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*engineEntry)}
}

// Register adds the engine under its dataset's name, replacing (and
// generation-bumping) any previous engine of the same name. It returns
// the new generation (1 for a first registration).
func (r *Registry) Register(eng *colarm.Engine) uint64 {
	name := eng.Dataset().Name()
	r.mu.Lock()
	defer r.mu.Unlock()
	gen := uint64(1)
	if prev, ok := r.byName[name]; ok {
		gen = prev.gen + 1
	}
	r.byName[name] = &engineEntry{eng: eng, gen: gen}
	return gen
}

// Get returns the engine registered under name and its generation.
func (r *Registry) Get(name string) (*colarm.Engine, uint64, error) {
	r.mu.RLock()
	e, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("server: no dataset %q registered", name)
	}
	return e.eng, e.gen, nil
}

// DatasetInfo describes one registered engine for the listing endpoint.
type DatasetInfo struct {
	Name       string   `json:"name"`
	Records    int      `json:"records"`
	Attributes []string `json:"attributes"`
	Partitions int      `json:"partitions"`
	Generation uint64   `json:"generation"`

	// Live-ingestion staleness: buffered post-build transactions and
	// whether they have reached 1/20 of the base records, the refresh
	// policy's rebuild threshold.
	BufferedRows       int  `json:"bufferedRows"`
	Tombstones         int  `json:"tombstones"`
	RebuildRecommended bool `json:"rebuildRecommended"`
}

// describe is the listing entry of one engine registered at generation
// gen, reporting the drift st.
func describe(eng *colarm.Engine, gen uint64, st colarm.Staleness) DatasetInfo {
	ds := eng.Dataset()
	return DatasetInfo{
		Name:               ds.Name(),
		Records:            ds.NumRecords(),
		Attributes:         ds.Attributes(),
		Partitions:         eng.NumPartitions(),
		Generation:         gen,
		BufferedRows:       st.BufferedRows,
		Tombstones:         st.Tombstones,
		RebuildRecommended: st.RebuildRecommended,
	}
}

// List describes every registered engine, sorted by name.
func (r *Registry) List() []DatasetInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]DatasetInfo, 0, len(r.byName))
	for _, e := range r.byName {
		out = append(out, describe(e.eng, e.gen, e.eng.Staleness()))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

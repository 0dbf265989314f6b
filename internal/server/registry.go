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
// field use. The generation every reply reports is the engine's own
// (colarm.Engine.Generation), and a name's engine is replaced only by a
// later generation of it, so a (dataset, generation, version) triple
// names one engine's state: a rebuild swap retires every cached result
// keyed under the old generation without touching the cache itself.
//
// A Registry is safe for concurrent use; lookups are read-locked and
// engines themselves are safe for concurrent queries.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*colarm.Engine
}

// NewRegistry creates an empty engine registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*colarm.Engine)}
}

// Register adds the engine under its dataset's name. An engine already
// registered under that name is replaced only by a later generation of
// it; any other engine of the same name is refused with an error.
func (r *Registry) Register(eng *colarm.Engine) error {
	name := eng.Dataset().Name()
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[name]; ok && eng.Generation() <= prev.Generation() {
		return fmt.Errorf("server: dataset %q is registered at generation %d; only a later generation replaces it, not %d",
			name, prev.Generation(), eng.Generation())
	}
	r.byName[name] = eng
	return nil
}

// Get returns the engine registered under name.
func (r *Registry) Get(name string) (*colarm.Engine, error) {
	r.mu.RLock()
	eng, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("server: no dataset %q registered", name)
	}
	return eng, nil
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

// describe is the listing entry of one engine, reporting its drift st.
func describe(eng *colarm.Engine, st colarm.Staleness) DatasetInfo {
	ds := eng.Dataset()
	return DatasetInfo{
		Name:               ds.Name(),
		Records:            ds.NumRecords(),
		Attributes:         ds.Attributes(),
		Partitions:         eng.NumPartitions(),
		Generation:         eng.Generation(),
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
	for _, eng := range r.byName {
		out = append(out, describe(eng, eng.Staleness()))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request
// share its list index. Because the program cannot yet be observed
// from inside (ROADMAP item 4), a child is a separate execution of the
// same request at an inner boundary, not a slice of its parent's
// execution: the recorder lays children end to end from their parent's
// start, so times are offsets on the request's own clock.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`

	cursor int64 // where the next child starts
}

func (s span) duration() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// recorder keeps a run's spans in memory until the run ends.
type recorder struct {
	spans []span
}

// root records a request's outermost span.
func (r *recorder) root(request int, name string, d time.Duration) int {
	return r.push(span{Parent: -1, Request: request, Name: name, EndNs: int64(d)})
}

// child records a span of duration d under parent, starting where the
// parent's previous child ended.
func (r *recorder) child(parent int, name string, d time.Duration) int {
	p := &r.spans[parent]
	start := p.cursor
	p.cursor += int64(d)
	return r.push(span{Parent: parent, Request: p.Request, Name: name, StartNs: start, EndNs: start + int64(d)})
}

func (r *recorder) push(s span) int {
	s.ID = len(r.spans)
	s.cursor = s.StartNs
	r.spans = append(r.spans, s)
	return s.ID
}

// selfTimes returns, per span, its duration minus the part of its
// interval its children cover: overlapping children count once, and a
// child's time outside its parent's interval does not count.
func (r *recorder) selfTimes() []time.Duration {
	children := make([][]int, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]time.Duration, len(r.spans))
	for id, s := range r.spans {
		kids := children[id]
		sort.Slice(kids, func(i, j int) bool { return r.spans[kids[i]].StartNs < r.spans[kids[j]].StartNs })
		covered, end := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(r.spans[k].StartNs, end), min(r.spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self[id] = time.Duration(s.EndNs - s.StartNs - covered)
	}
	return self
}

// total sums fn over the spans called name.
func (r *recorder) total(name string, fn func(id int) time.Duration) (sum time.Duration, n int) {
	for _, s := range r.spans {
		if s.Name == name {
			sum += fn(s.ID)
			n++
		}
	}
	return sum, n
}

// write stores the spans as JSON, creating the file's directory.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one unit of
// work (a simulation job, a sweep, a service job) share Run. A span
// with Calls > 0 is an aggregate: Calls calls into one layer made during
// the parent span, whose summed duration is End-Start. Per-event
// boundaries (handler calls, workload Next) are kept this way, since a
// span per call would be millions per run.
type span struct {
	Run    int    `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
}

// tracer keeps spans in memory and writes them when the run ends. A nil
// tracer records nothing, so untraced code paths call it freely. IDs
// start at 1; parent 0 is the root.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	runs  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newRun returns a fresh run id.
func (t *tracer) newRun() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	return t.runs
}

// begin opens a span and returns its id.
func (t *tracer) begin(run, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Run: run, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// aggregate records calls calls totalling d under parent.
func (t *tracer) aggregate(run, parent int, name string, calls int64, d time.Duration) {
	if t == nil || calls == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[parent-1].Start
	t.spans = append(t.spans, span{Run: run, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start, End: start + int64(d), Calls: calls})
}

// selfSeconds sums, over the spans called name, each span's duration
// minus the part of its interval its children cover (the union of the
// children's intervals, plus the summed time of aggregate children).
func (t *tracer) selfSeconds(name string) float64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var self int64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		var covered int64
		var ivs []span
		for _, c := range children[s.ID] {
			if c.Calls > 0 {
				covered += c.End - c.Start
			} else {
				ivs = append(ivs, c)
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
		var curS, curE int64 = -1, -1
		for _, c := range ivs {
			if c.Start > curE {
				covered += curE - curS
				curS, curE = c.Start, c.End
			} else if c.End > curE {
				curE = c.End
			}
		}
		covered += curE - curS
		self += (s.End - s.Start) - covered
	}
	return float64(self) / 1e9
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

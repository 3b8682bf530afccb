package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. A request span has parent 0; the spans of one request share
// its ID as Req.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a request) and returns its ID.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	req := id
	if parent != 0 {
		req = t.spans[parent-1].Req
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
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

// layerShare is one span name's self time: its spans' durations minus the
// time their child spans cover.
type layerShare struct {
	Name   string
	SelfMS float64
	Share  float64 // of the summed request span durations
	Count  int
}

// selfTimes aggregates self time per span name. Children of one span run
// one after another, so their durations add up to the covered time.
func selfTimes(spans []span) []layerShare {
	child := map[int32]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*layerShare{}
	var requests int64
	for _, s := range spans {
		d := s.End - s.Start
		if s.Parent == 0 {
			requests += d
		}
		l := by[s.Name]
		if l == nil {
			l = &layerShare{Name: s.Name}
			by[s.Name] = l
		}
		l.SelfMS += float64(d-child[s.ID]) / 1e6
		l.Count++
	}
	out := make([]layerShare, 0, len(by))
	for _, l := range by {
		if requests > 0 {
			l.Share = l.SelfMS * 1e6 / float64(requests)
		}
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

func printSelfTimes(w io.Writer, title string, spans []span) {
	fmt.Fprintf(w, "# %s: self time by layer (%d spans)\n", title, len(spans))
	for _, l := range selfTimes(spans) {
		fmt.Fprintf(w, "#   %-28s %10.1f ms  %5.1f%% of requests  (%d spans)\n", l.Name, l.SelfMS, 100*l.Share, l.Count)
	}
}

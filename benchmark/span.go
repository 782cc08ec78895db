package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the recorder's epoch. Spans of one client request share Req;
// Parent is the span that caused this one (0 = none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. All recording
// happens from benchmark code, around calls into the layers; nothing
// inside the program is instrumented.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newID reserves a span id before the call it covers starts, so child
// spans can name it as their parent while it is still open.
func (r *recorder) newID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// put records a finished span under a reserved id.
func (r *recorder) put(id, parent, req int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// add records a finished span and returns its id.
func (r *recorder) add(parent, req int64, name string, start, end time.Time) int64 {
	id := r.newID()
	r.put(id, parent, req, name, start, end)
	return id
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile dumps every span as one JSON document.
func (r *recorder) writeFile(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := map[string]any{"header": header, "spans": r.snapshot()}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

type spanCtxKey struct{}

// withSpan tags ctx with the root span a request runs under. The store
// wrapper reads it back to parent its child spans; the cluster threads
// the query context down to its object-storage reads.
func withSpan(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, id)
}

func spanFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanCtxKey{}).(int64)
	return id
}

// coveredNS is the length of the union of the children's intervals,
// clipped to [start, end].
func coveredNS(start, end int64, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, start), min(c.End, end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return covered + curHi - curLo
}

// selfNS is a span's duration minus the part of its interval its child
// spans cover: the time spent in the layer itself.
func selfNS(parent span, children []span) int64 {
	return parent.dur() - coveredNS(parent.Start, parent.End, children)
}

// concurrency is the summed duration of the children divided by the
// time at least one of them was running: 1 means strictly serial
// calls, k means k overlapped on average. Zero without children.
func concurrency(parent span, children []span) float64 {
	covered := coveredNS(parent.Start, parent.End, children)
	if covered == 0 {
		return 0
	}
	var sum int64
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			sum += hi - lo
		}
	}
	return float64(sum) / float64(covered)
}

// childrenByParent groups spans under the id of the span that caused
// them.
func childrenByParent(spans []span) map[int64][]span {
	out := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

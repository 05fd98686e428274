package main

import "time"

// span is one timed call across a layer boundary. Parent indexes the
// enclosing span in the recorder (-1 for a root); Req identifies the
// request every span of one operation shares: a solve index, a build
// index, or a batch sequence number.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// recorder keeps spans in memory; they are written out only at exit, so
// the traced run does no I/O between operations. A nil recorder — the
// untraced run — records nothing.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id for end and for child spans.
func (r *recorder) begin(name string, parent int32, req int64) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Req: req})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(id int32) {
	if r != nil {
		r.spans[id].End = int64(time.Since(r.t0))
	}
}

func (r *recorder) dur(id int32) float64 {
	return float64(r.spans[id].End-r.spans[id].Start) / 1e9
}

// selfTimes returns every root span and, per root, the self time of each
// span name inside it: a span's duration minus the durations of its direct
// children. The self times of one root sum exactly to its duration; the
// root's own self time is the part no layer claimed.
func (r *recorder) selfTimes() (roots []int32, self []map[string]float64) {
	rootOf := make([]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent < 0 {
			rootOf[i] = len(roots)
			roots = append(roots, int32(i))
			self = append(self, map[string]float64{})
			continue
		}
		rootOf[i] = rootOf[s.Parent] // parents precede children
	}
	for i, s := range r.spans {
		d := r.dur(int32(i))
		self[rootOf[i]][s.Name] += d
		if s.Parent >= 0 {
			self[rootOf[i]][r.spans[s.Parent].Name] -= d
		}
	}
	return roots, self
}

// layerMedian is the median over roots of one layer's self time.
func layerMedian(self []map[string]float64, name string) float64 {
	xs := make([]float64, len(self))
	for i, m := range self {
		xs[i] = m[name]
	}
	return median(xs)
}

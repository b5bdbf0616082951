package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of
// one client request share Req; Parent names the enclosing span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log's origin
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, which is how untraced passes run.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	reqs   int64
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil log).
func (l *spanLog) begin(name string, parent, req int64) int64 {
	if l == nil {
		return 0
	}
	now := time.Since(l.origin).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: int64(len(l.spans)) + 1, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return int64(len(l.spans))
}

// end closes the span begin returned.
func (l *spanLog) end(id int64) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.origin).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// newReq returns a fresh request id.
func (l *spanLog) newReq() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reqs++
	return l.reqs
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name  string
	Count int
	Busy  time.Duration // summed durations
	Self  time.Duration // durations minus the time child spans cover
}

// summary returns per-name busy and self time, by name.
func (l *spanLog) summary() []spanStat {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*spanStat{}
	for _, s := range l.spans {
		if s.End < 0 {
			continue
		}
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Busy += time.Duration(d)
		st.Self += time.Duration(d - covered(children[s.ID], s.Start, s.End))
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of [start, end) the union of the child
// intervals covers.
func covered(kids []span, start, end int64) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, at int64 = 0, start
	for _, k := range kids {
		lo, hi := max(k.Start, at), min(k.End, end)
		if hi > lo {
			sum += hi - lo
			at = hi
		}
	}
	return sum
}

// writeJSONL writes every span, one JSON object per line.
func (l *spanLog) writeJSONL(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ---- sample statistics ----

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (xs is sorted in place). NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durMS and durUS convert durations for reporting.
func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func durUS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

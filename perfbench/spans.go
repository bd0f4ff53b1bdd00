package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Start and End are nanoseconds since the log's base time; Parent indexes
// the enclosing span (-1 for a root); spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// layer is the span name up to its first dot ("core.refactor_auto" →
// "core"): the repository module the call lands in.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// spanLog keeps every span in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pay one pointer test per call site.
type spanLog struct {
	base  time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) now() int64 {
	if l == nil {
		return 0
	}
	return time.Since(l.base).Nanoseconds()
}

// begin opens a span and returns its index (-1 when disabled).
func (l *spanLog) begin(name string, parent int, op int64) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Start: l.now(), End: -1, Parent: parent, Op: op})
	return len(l.spans) - 1
}

// end closes span i and returns its duration in nanoseconds.
func (l *spanLog) end(i int) int64 {
	if l == nil || i < 0 {
		return 0
	}
	s := &l.spans[i]
	s.End = l.now()
	return s.End - s.Start
}

// selfTimes returns each layer's self time: the summed duration of its
// spans minus the part of each span's interval that its child spans cover.
// Children outside their parent's interval are clipped to it; overlapping
// children are counted once.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		out[s.layer()] += s.End - s.Start - covered(s, spans, children[i])
	}
	return out
}

// covered is the length of the union of the child intervals within p.
func covered(p span, spans []span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := spans[k]
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write dumps the run metadata and the spans as one JSON document.
func (l *spanLog) write(path string, meta map[string]any) error {
	blob, err := json.Marshal(map[string]any{"meta": meta, "spans": l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

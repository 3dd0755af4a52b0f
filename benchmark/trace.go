package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
)

// span is one harness span: a timed call from the benchmark into a layer.
// op is the shared identifier (the step or request index; -1 during
// warm-up); the parent of a phase span is the "step" or "request" span with
// the same op.
type span struct {
	name       string
	rank, op   int
	start, end int64 // UnixNano
}

// spanLog keeps the harness spans of a traced round in memory, one slice
// per rank so ranks never share a cache line or a lock. A nil *spanLog is
// the untraced case: every method is a no-op that reads no clock.
type spanLog struct {
	perRank [][]span
}

func newSpanLog(ranks int) *spanLog {
	l := &spanLog{perRank: make([][]span, ranks)}
	for r := range l.perRank {
		l.perRank[r] = make([]span, 0, 1<<12)
	}
	return l
}

func (l *spanLog) now() int64 {
	if l == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// add closes a span that began at start and returns the closing time, the
// start of the next phase.
func (l *spanLog) add(rank, op int, name string, start int64) int64 {
	if l == nil {
		return 0
	}
	end := time.Now().UnixNano()
	l.span(rank, op, name, start, end)
	return end
}

func (l *spanLog) span(rank, op int, name string, start, end int64) {
	if l == nil || op < 0 {
		return
	}
	l.perRank[rank] = append(l.perRank[rank], span{name, rank, op, start, end})
}

// durationsMs returns, per op, the duration of the named span on rank.
func (l *spanLog) durationsMs(rank int, name string) []float64 {
	var out []float64
	for _, s := range l.perRank[rank] {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

// writeChrome writes the harness spans and the flight recorder's events as
// one Chrome trace: obs.WriteChrome renders the recorder's part (pid 1, one
// track per comm rank), the harness spans are added as pid 2 with the same
// time base and one track per rank. Only what starts at or after from
// (UnixNano; 0 keeps everything) goes into the file; the first recorder event
// kept is time 0.
func writeChrome(path string, l *spanLog, events []obs.Event, from int64) error {
	kept := events[:0:0]
	for _, ev := range events {
		if ev.Start >= from {
			kept = append(kept, ev)
		}
	}
	events = kept
	var sb strings.Builder
	if err := obs.WriteChrome(&sb, events); err != nil {
		return err
	}
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		return fmt.Errorf("parse obs.WriteChrome output: %w", err)
	}
	// obs.WriteChrome's time base is the earliest event it was given (they
	// come sorted by start); the harness spans share it, and the file starts
	// there. Without recorder events it starts at the first span.
	if len(events) > 0 {
		from = events[0].Start
	} else {
		first := int64(math.MaxInt64)
		for _, spans := range l.perRank {
			for _, s := range spans {
				if s.start >= from {
					first = min(first, s.start)
				}
			}
		}
		from = first
	}
	base := from
	add := func(format string, args ...any) {
		doc.TraceEvents = append(doc.TraceEvents, json.RawMessage(fmt.Sprintf(format, args...)))
	}
	add(`{"ph":"M","name":"process_name","pid":2,"args":{"name":"benchmark harness"}}`)
	for r, spans := range l.perRank {
		add(`{"ph":"M","name":"thread_name","pid":2,"tid":%d,"args":{"name":"rank %d"}}`, r, r)
		for _, s := range spans {
			if s.start < from {
				continue
			}
			add(`{"name":%q,"cat":"harness","ph":"X","ts":%.3f,"dur":%.3f,"pid":2,"tid":%d,"args":{"op":%d}}`,
				s.name, float64(s.start-base)/1e3, float64(s.end-s.start)/1e3, r, s.op)
		}
	}
	out, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

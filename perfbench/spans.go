package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one interval recorded around a call into the program, in ns
// since the run started. The spans of one query, site op or cut share its
// ID: a site op's enqueue, queue_wait and publish spans, for instance.
type span struct {
	Name  string `json:"name"`
	ID    int64  `json:"id"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pay one nil check per call site.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog(origin time.Time) *spanLog { return &spanLog{origin: origin} }

func (l *spanLog) add(name string, id int64, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{name, id, start.Sub(l.origin).Nanoseconds(), end.Sub(l.origin).Nanoseconds()})
	l.mu.Unlock()
}

func (l *spanLog) writeFile(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

package serve

import "sync"

// eventLog is one job's append-only progress stream. Readers poll with a
// sequence cursor; writers broadcast by closing-and-replacing the changed
// channel, so any number of SSE streams and long-polls can wait on one
// append without per-subscriber bookkeeping. The log is bounded by the
// job's campaign size (one event per unit plus a handful of status
// transitions), so entries are kept for the job's lifetime and a
// reconnecting client can always replay from seq 0.
type eventLog struct {
	mu      sync.Mutex
	events  []Event
	changed chan struct{}
	// final is set once the job's terminal status event is in the log.
	final bool
}

func newEventLog() *eventLog {
	return &eventLog{changed: make(chan struct{})}
}

// append assigns the next sequence number, records the event, and wakes
// every waiter.
func (l *eventLog) append(e Event) {
	l.mu.Lock()
	e.Seq = len(l.events) + 1
	l.events = append(l.events, e)
	if e.Type == "status" && TerminalStatus(e.Status) {
		l.final = true
	}
	close(l.changed)
	l.changed = make(chan struct{})
	l.mu.Unlock()
}

// after returns the events with Seq > since, the channel that will be
// closed on the next append — snapshot first, then wait, so no append can
// fall between the two — and whether the job's terminal status event is in
// the log, i.e. at or before the last event returned. Readers end a stream
// on that, not on the job's live status: setStatus flips the status before
// it persists and appends the event.
func (l *eventLog) after(since int) ([]Event, <-chan struct{}, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ch := l.changed
	if since >= len(l.events) {
		return nil, ch, l.final
	}
	if since < 0 {
		since = 0
	}
	out := make([]Event, len(l.events)-since)
	copy(out, l.events[since:])
	return out, ch, l.final
}

// The coordinator/worker wire protocol: newline-delimited JSON, one
// ShardSpec down stdin, a stream of Events back up stdout. The protocol
// is deliberately one-shot — the spec is immutable for the life of the
// process, so a restarted worker is indistinguishable from a fresh one
// except for its Attempt counter (which keys the fault injector's
// per-restart schedule).
package fabric

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"ilp/internal/experiments"
)

// ShardSpec is the coordinator's one-line instruction to a worker.
type ShardSpec struct {
	// Shard is the shard id; it prefixes the worker's injection
	// coordinates and labels its events.
	Shard string `json:"shard"`
	// StorePath is the shard's private result store. The worker takes
	// the store's writer lock, so a not-yet-reaped predecessor cannot
	// corrupt the shard.
	StorePath string `json:"store"`
	// Sweep is the coordinator's, with Benchmarks narrowed to the shard.
	Sweep
	// Attempt is the restart count: 0 for the first spawn. It feeds the
	// injection coordinate so each restart draws a fresh fault schedule.
	Attempt int `json:"attempt"`
	// Heartbeat is how often the worker pings when no cells are
	// committing. Zero means 50ms.
	Heartbeat time.Duration `json:"heartbeat,omitempty"`
}

func (s ShardSpec) heartbeat() time.Duration {
	if s.Heartbeat <= 0 {
		return 50 * time.Millisecond
	}
	return s.Heartbeat
}

// Event types a worker can emit.
const (
	// EventHello is the first event: the worker parsed its spec and
	// opened its store.
	EventHello = "hello"
	// EventCell reports one resolved measurement cell.
	EventCell = "cell"
	// EventPing is an idle heartbeat.
	EventPing = "ping"
	// EventDone is the last event of a successful shard: the sweep
	// finished and every cell is committed.
	EventDone = "done"
	// EventError reports a failed shard; Permanent says whether a
	// restart could help.
	EventError = "error"
)

// Event is one line of worker → coordinator progress. Every event, of any
// type, renews the shard's lease — a worker is live as long as it says
// anything at all.
type Event struct {
	Type  string `json:"type"`
	Shard string `json:"shard"`
	// Key is the cell fingerprint (EventCell only).
	Key string `json:"key,omitempty"`
	// Cached marks cells served without a live simulation — resumed from
	// the shard store or joined onto a sibling request.
	Cached bool `json:"cached,omitempty"`
	// Err and Permanent describe an EventError.
	Err       string `json:"err,omitempty"`
	Permanent bool   `json:"permanent,omitempty"`
	// Report is the shard's final sweep accounting (EventDone only).
	Report *experiments.SweepReport `json:"report,omitempty"`
}

// eventWriter serializes events onto one stream. Cell events fire on
// measurement goroutines while the heartbeat goroutine pings, so the
// writes must exclude each other or the NDJSON stream tears.
type eventWriter struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

func newEventWriter(w io.Writer) *eventWriter { return &eventWriter{w: w} }

// send writes one event line. Errors are sticky and deliberately not
// fatal: a worker whose coordinator vanished keeps running its sweep (the
// store is the source of truth; events are only supervision).
func (ew *eventWriter) send(ev Event) {
	ew.mu.Lock()
	defer ew.mu.Unlock()
	if ew.err != nil {
		return
	}
	buf, err := json.Marshal(ev)
	if err != nil {
		ew.err = err
		return
	}
	buf = append(buf, '\n')
	if _, err := ew.w.Write(buf); err != nil {
		ew.err = err
	}
}

// readSpec reads the single spec line off the worker's stdin, leaving the
// reader positioned for the hold-open EOF watch.
func readSpec(br *bufio.Reader) (ShardSpec, error) {
	line, err := br.ReadBytes('\n')
	if err != nil && len(line) == 0 {
		return ShardSpec{}, fmt.Errorf("fabric: reading shard spec: %w", err)
	}
	var spec ShardSpec
	if err := json.Unmarshal(line, &spec); err != nil {
		return ShardSpec{}, fmt.Errorf("fabric: bad shard spec: %w", err)
	}
	if spec.Shard == "" || spec.StorePath == "" {
		return ShardSpec{}, fmt.Errorf("fabric: shard spec missing shard id or store path")
	}
	return spec, nil
}

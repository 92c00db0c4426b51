package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"circus"
	"circus/internal/mesh"
)

// Spans are recorded by the benchmark's own code around each call it
// makes into a layer's public functions: the client around a call, the
// module wrappers around Dispatch, the disk wrapper around fsync. They
// stay in memory and are written out as JSONL when the run ends.

// client is the member index of spans recorded on the calling side.
const client = -1

type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	RID    uint64 `json:"rid"`
	Member int    `json:"member"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	// call joins a wrapper's span to the spans recorded inside the
	// same server call when the wrapper cannot read the request id.
	call *circus.ServerCall
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans. A nil tracer records nothing, which is how
// timed runs keep spans off; a non-nil one records per-op spans only
// while on, and set-up spans (binding, joining) always.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin returns the start stamp of a per-op span, or -1 when spans are
// off.
func (t *tracer) begin() int64 {
	if t == nil || !t.on.Load() {
		return -1
	}
	return t.now()
}

// end records a per-op span begun with begin.
func (t *tracer) end(name string, start int64, rid uint64, member int, call *circus.ServerCall) {
	if start < 0 {
		return
	}
	t.add(span{Name: name, RID: rid, Member: member, Start: start, End: t.now(), call: call})
}

// timeSetup runs f and records it as a set-up span whenever the
// tracer exists.
func (t *tracer) timeSetup(name string, f func() error) error {
	if t == nil {
		return f()
	}
	start := t.now()
	err := f()
	t.add(span{Name: name, Member: client, Start: start, End: t.now()})
	return err
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// link numbers the spans and sets each one's parent: a span without a
// request id takes the id of a span recorded inside it in the same
// server call; then each span's parent is the innermost span of the
// same request and member that covers it, else the request's root
// span ("bench.op").
func link(spans []span) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for i := range spans {
		spans[i].ID = i + 1
	}
	byCall := map[*circus.ServerCall][]int{}
	for i, s := range spans {
		if s.call != nil {
			byCall[s.call] = append(byCall[s.call], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.RID != 0 || s.call == nil {
			continue
		}
		for _, j := range byCall[s.call] {
			in := spans[j]
			if in.RID != 0 && in.Start >= s.Start && in.End <= s.End {
				s.RID = in.RID
				break
			}
		}
	}
	type group struct {
		rid    uint64
		member int
	}
	open := map[group][]int{} // stack of covering spans, by start order
	root := map[uint64]int{}
	for i := range spans {
		s := &spans[i]
		if s.RID == 0 {
			continue
		}
		if s.Name == "bench.op" {
			root[s.RID] = s.ID
			continue
		}
		g := group{s.RID, s.Member}
		st := open[g]
		for len(st) > 0 && spans[st[len(st)-1]].End < s.End {
			st = st[:len(st)-1]
		}
		if len(st) > 0 {
			s.Parent = spans[st[len(st)-1]].ID
		}
		open[g] = append(st, i)
	}
	for i := range spans {
		if s := &spans[i]; s.Parent == 0 && s.RID != 0 && s.Name != "bench.op" {
			s.Parent = root[s.RID]
		}
	}
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
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

// Every request the benchmark sends starts with its 8-byte request id,
// so wrappers and spans can join the two ends of a call.
func withRID(rid uint64, body []byte) []byte {
	b := make([]byte, 8, 8+len(body))
	binary.BigEndian.PutUint64(b, rid)
	return append(b, body...)
}

func splitRID(args []byte) (uint64, []byte, error) {
	if len(args) < 8 {
		return 0, nil, fmt.Errorf("perfbench: %d-byte request has no request id", len(args))
	}
	return binary.BigEndian.Uint64(args), args[8:], nil
}

// timed wraps a module with a span around Dispatch. ridInArgs says
// whether the module's requests carry the request id up front; a
// wrapper outside the mesh guard sees the guard's own encodings and
// learns the id from the spans recorded inside it.
type timed struct {
	inner     circus.Module
	tr        *tracer
	name      string
	member    int
	ridInArgs bool
}

func (w *timed) Dispatch(call *circus.ServerCall, proc uint16, args []byte) ([]byte, error) {
	start := w.tr.begin()
	res, err := w.inner.Dispatch(call, proc, args)
	var rid uint64
	if w.ridInArgs && start >= 0 {
		rid, _, _ = splitRID(args)
	}
	w.tr.end(w.name, start, rid, w.member, call)
	return res, err
}

// wrapTimed returns inner wrapped in a timing span. The wrapper keeps
// the optional interfaces the runtime and the mesh look for —
// StateProvider for joining members, mesh.Positioned for spread reads —
// so a traced run takes the same path as an untraced one.
func wrapTimed(inner circus.Module, tr *tracer, name string, member int, ridInArgs bool) circus.Module {
	w := &timed{inner: inner, tr: tr, name: name, member: member, ridInArgs: ridInArgs}
	sp, isSP := inner.(circus.StateProvider)
	pos, isPos := inner.(mesh.Positioned)
	switch {
	case isSP && isPos:
		return struct {
			*timed
			circus.StateProvider
			mesh.Positioned
		}{w, sp, pos}
	case isSP:
		return struct {
			*timed
			circus.StateProvider
		}{w, sp}
	case isPos:
		return struct {
			*timed
			mesh.Positioned
		}{w, pos}
	}
	return w
}

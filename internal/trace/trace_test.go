package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"circus/internal/transport"
)

func TestKindStringRoundTrip(t *testing.T) {
	for k := KindUnknown; k < kindCount; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if got := KindFromString(name); got != k {
			t.Fatalf("KindFromString(%q) = %v, want %v", name, got, k)
		}
	}
	if got := KindFromString("no.such.kind"); got != KindUnknown {
		t.Fatalf("unknown name parsed to %v", got)
	}
}

func TestLocalNilSafety(t *testing.T) {
	var l *Local
	if l.Enabled() {
		t.Fatal("nil Local is enabled")
	}
	l.Emit(Event{Kind: KindMsgSend}) // must not panic
	if l.Node() != (transport.Addr{}) || l.Inc() != 0 {
		t.Fatal("nil Local leaked identity")
	}
	if NewLocal(nil, transport.Addr{Host: 1}, 1) != nil {
		t.Fatal("NewLocal(nil sink) != nil")
	}
}

func TestLocalStampsIdentity(t *testing.T) {
	rec := NewRecorder()
	node := transport.Addr{Host: 7, Port: 9}
	l := NewLocal(rec, node, 42)
	if !l.Enabled() {
		t.Fatal("enabled Local reports disabled")
	}
	before := time.Now()
	l.Emit(Event{Kind: KindMsgSend, CallNum: 5})
	evs := rec.Events()
	if len(evs) != 1 {
		t.Fatalf("recorded %d events, want 1", len(evs))
	}
	e := evs[0]
	if e.Node != node || e.Inc != 42 || e.CallNum != 5 || e.Seq != 1 {
		t.Fatalf("event not stamped: %+v", e)
	}
	if e.T.Before(before) {
		t.Fatal("timestamp not stamped")
	}
}

func TestFilterKinds(t *testing.T) {
	if FilterKinds(nil, AllKinds) != nil {
		t.Fatal("FilterKinds(nil) != nil")
	}
	if FilterKinds(NewRecorder(), 0) != nil {
		t.Fatal("FilterKinds with empty set != nil")
	}

	rec := NewRecorder()
	keep := MaskOf(KindCallIssued, KindCollateDone)
	l := NewLocal(FilterKinds(rec, keep), transport.Addr{Host: 1}, 1)
	if !l.Enabled() {
		t.Fatal("filtered Local reports disabled")
	}
	if l.EnabledFor(KindMsgSend) || !l.EnabledFor(KindCallIssued) {
		t.Fatal("EnabledFor disagrees with the filter")
	}
	l.Emit(Event{Kind: KindMsgSend}) // excluded: dropped before the sink
	l.Emit(Event{Kind: KindCallIssued})
	if evs := rec.Events(); len(evs) != 1 || evs[0].Kind != KindCallIssued {
		t.Fatalf("filter leaked: %+v", evs)
	}

	// Filtered-out emission must not allocate: the hot path builds no
	// Event when EnabledFor says no, and Emit drops excluded kinds
	// before stamping.
	allocs := testing.AllocsPerRun(100, func() {
		if l.EnabledFor(KindMsgSend) {
			t.Fatal("unexpected enable")
		}
		l.Emit(Event{Kind: KindMsgSend})
	})
	if allocs > 0 {
		t.Fatalf("filtered emission allocated %.1f times per op", allocs)
	}

	// A Multi's mask is the union of its members' interests.
	other := NewRecorder()
	m := Multi(FilterKinds(rec, MaskOf(KindAckSend)), FilterKinds(other, MaskOf(KindProbeSend)))
	lm := NewLocal(m, transport.Addr{Host: 2}, 2)
	if !lm.EnabledFor(KindAckSend) || !lm.EnabledFor(KindProbeSend) || lm.EnabledFor(KindTxnCommit) {
		t.Fatal("multi mask union wrong")
	}
	lm.Emit(Event{Kind: KindAckSend})
	lm.Emit(Event{Kind: KindProbeSend})
	if rec.Len() != 2 || other.Len() != 1 {
		t.Fatalf("multi filter routing wrong: %d/%d", rec.Len(), other.Len())
	}
}

func TestMultiComposition(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of no live sinks is not nil")
	}
	a, b := NewRecorder(), NewRecorder()
	if got := Multi(nil, a); got != Sink(a) {
		t.Fatal("single live sink not unwrapped")
	}
	m := Multi(a, nil, b)
	m.Emit(Event{Kind: KindAckSend})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("fan-out reached %d/%d sinks", a.Len(), b.Len())
	}
}

func TestRecorderWaitExistingAndFuture(t *testing.T) {
	rec := NewRecorder()
	rec.Emit(Event{Kind: KindMsgSend})
	// Wait on an already-recorded event returns immediately.
	if _, ok := rec.Wait(10*time.Millisecond, ByKind(KindMsgSend)); !ok {
		t.Fatal("Wait missed an already-recorded event")
	}
	// Wait on a future event is released by its arrival.
	done := make(chan bool, 1)
	go func() {
		_, ok := rec.WaitN(2*time.Second, 2, ByKind(KindAckSend))
		done <- ok
	}()
	rec.Emit(Event{Kind: KindAckSend})
	rec.Emit(Event{Kind: KindAckSend})
	if !<-done {
		t.Fatal("WaitN missed events emitted after registration")
	}
	// Timeout on an event that never comes.
	if _, ok := rec.Wait(20*time.Millisecond, ByKind(KindTxnAbort)); ok {
		t.Fatal("Wait invented an event")
	}
}

func TestRecorderConcurrentEmit(t *testing.T) {
	rec := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				rec.Emit(Event{Kind: KindMsgSend})
			}
		}()
	}
	wg.Wait()
	if rec.Len() != 800 {
		t.Fatalf("recorded %d events, want 800", rec.Len())
	}
	// Seq is a total order without gaps.
	seen := make(map[uint64]bool)
	for _, e := range rec.Events() {
		if e.Seq < 1 || e.Seq > 800 || seen[e.Seq] {
			t.Fatalf("bad Seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	in := []Event{
		{Kind: KindMsgSend, Node: transport.Addr{Host: 1, Port: 2},
			Inc: 3, Peer: transport.Addr{Host: 4, Port: 5}, MsgType: 1,
			CallNum: 6, N: 7, T: time.Unix(100, 200)},
		{Kind: KindCallStart, ThreadHost: 8, ThreadProc: 9,
			Path: []uint32{1, 2, 3}, Troupe: 10, Module: 11, Proc: 12,
			T: time.Unix(101, 0)},
		{Kind: KindCollateDone, Dur: 250 * time.Microsecond,
			Err: "boom", Detail: "d", Member: 2, Attempt: 1, T: time.Unix(102, 0)},
	}
	for _, e := range in {
		j.Emit(e)
	}
	if err := j.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d events, want %d", len(out), len(in))
	}
	for i, e := range out {
		want := in[i]
		if e.Kind != want.Kind || e.Node != want.Node || e.Inc != want.Inc ||
			e.Peer != want.Peer || e.MsgType != want.MsgType ||
			e.CallNum != want.CallNum || e.N != want.N ||
			e.ThreadHost != want.ThreadHost || e.ThreadProc != want.ThreadProc ||
			e.Troupe != want.Troupe || e.Module != want.Module || e.Proc != want.Proc ||
			e.Dur != want.Dur || e.Err != want.Err || e.Detail != want.Detail ||
			e.Member != want.Member || e.Attempt != want.Attempt {
			t.Fatalf("event %d diverged:\n got %+v\nwant %+v", i, e, want)
		}
		if !e.T.Equal(want.T) {
			t.Fatalf("event %d time %v, want %v", i, e.T, want.T)
		}
		if len(e.Path) != len(want.Path) {
			t.Fatalf("event %d path %v, want %v", i, e.Path, want.Path)
		}
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d reassigned Seq %d", i, e.Seq)
		}
	}
}

// TestZeroPeerEncoding pins how an event without a peer encodes, so
// traces compare byte for byte across toolchains: encoding/json
// writes the zero Peer of an Event in full, and the JSONL form leaves
// both peer fields out.
func TestZeroPeerEncoding(t *testing.T) {
	e := Event{Kind: KindCallStart, T: time.Unix(1, 0).UTC()}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"peer":{"Host":0,"Port":0}`) {
		t.Fatalf("json.Marshal(Event) = %s, want an explicit zero peer", b)
	}
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Emit(e)
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if line := buf.String(); strings.Contains(line, `"peer`) {
		t.Fatalf("JSONL line %s carries a zero peer", line)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader("{\"kind\":\"msg.send\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want a line-2 parse error", err)
	}
}

func TestMetricsAggregation(t *testing.T) {
	m := NewMetrics()
	peer := transport.Addr{Host: 9, Port: 1}
	m.Emit(Event{Kind: KindMsgSend, Peer: peer})
	m.Emit(Event{Kind: KindMsgSend, Peer: peer})
	m.Emit(Event{Kind: KindSegRetransmit, Peer: peer, N: 3})
	m.Emit(Event{Kind: KindAckSend, Peer: peer})
	m.Emit(Event{Kind: KindCollateDone, Troupe: 77, Dur: 3 * time.Millisecond})
	m.Emit(Event{Kind: KindCollateDone, Troupe: 77, Dur: 5 * time.Millisecond, Err: "x"})

	if got := m.Count(KindMsgSend); got != 2 {
		t.Fatalf("Count(MsgSend) = %d, want 2", got)
	}
	s := m.Snapshot()
	pc, ok := s.Peers[peer]
	if !ok {
		t.Fatal("peer counters missing from snapshot")
	}
	if pc.MsgsSent != 2 || pc.Retransmits != 3 || pc.AcksSent != 1 {
		t.Fatalf("peer counters %+v", pc)
	}
	if s.Calls != 2 || s.CallErrors != 1 {
		t.Fatalf("calls = %d errors = %d, want 2 and 1", s.Calls, s.CallErrors)
	}
	if s.Troupes[77] != 2 {
		t.Fatalf("troupe 77 calls = %d, want 2", s.Troupes[77])
	}
	var histTotal int64
	for _, c := range s.Latency {
		histTotal += c
	}
	if histTotal != 2 {
		t.Fatalf("latency histogram holds %d samples, want 2", histTotal)
	}
}

func TestLatencyBuckets(t *testing.T) {
	// Bucket lower bounds are monotone powers of two.
	var prev time.Duration = -1
	for i := 0; i < latencyBuckets; i++ {
		lo := LatencyBucketLow(i)
		if lo <= prev {
			t.Fatalf("bucket %d lower bound %v not increasing", i, lo)
		}
		prev = lo
	}
	// A sample lands in the bucket whose range contains it.
	m := NewMetrics()
	m.Emit(Event{Kind: KindCollateDone, Dur: 3 * time.Millisecond})
	s := m.Snapshot()
	for i, c := range s.Latency {
		if c == 0 {
			continue
		}
		lo := LatencyBucketLow(i)
		if 3*time.Millisecond < lo {
			t.Fatalf("3ms sample landed in bucket %d starting at %v", i, lo)
		}
	}
}

// BenchmarkDisabledEmit measures the disabled-tracing hot path: the
// guard must not allocate.
func BenchmarkDisabledEmit(b *testing.B) {
	var l *Local
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if l.Enabled() {
			l.Emit(Event{Kind: KindMsgSend, CallNum: uint32(i)})
		}
	}
}

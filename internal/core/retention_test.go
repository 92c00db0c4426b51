package core

import (
	"context"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"circus/internal/netsim"
	"circus/internal/thread"
	"circus/internal/trace"
	"circus/internal/transport"
)

// tables reports the sizes of rt's collation and finished-call tables.
func (rt *Runtime) tables() (collating, finished, order int) {
	rt.callMu.Lock()
	defer rt.callMu.Unlock()
	return len(rt.calls), len(rt.finished), len(rt.finishedOrder)
}

// waitUntil polls cond for up to two seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func countKind(rec *trace.Recorder, k trace.Kind) int {
	n := 0
	for _, e := range rec.Events() {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// TestLateMemberAnsweredFromFinishedRecord: once a call finishes its
// collation record leaves the table, and a slow client troupe member's
// call message is answered from the compact finished record without a
// second execution (§4.3.4).
func TestLateMemberAnsweredFromFinishedRecord(t *testing.T) {
	net := netsim.New(91)
	rec := trace.NewRecorder()
	resolver := StaticResolver{}
	opts := fastOpts()
	opts.Resolver = resolver
	opts.Trace = rec
	server := newRuntime(t, net, opts)
	mod := &echoModule{}
	saddr := server.Export(mod, ExportOptions{Policy: ArgFirstCome})
	serverTroupe := Troupe{Members: []ModuleAddr{saddr}}
	const clientTroupe = TroupeID(0xc12)
	c1 := newRuntime(t, net, opts)
	c2 := newRuntime(t, net, opts)
	resolver[clientTroupe] = []ModuleAddr{{Addr: c1.Addr()}, {Addr: c2.Addr()}}

	tid := thread.ID{Host: 91, Proc: 1}
	call := func(rt *Runtime) ([]byte, error) {
		return rt.Call(context.Background(), serverTroupe, 1, []byte("late"), CallOptions{
			thread: thread.Child(tid, []uint32{3}), clientTroupe: clientTroupe})
	}
	if got, err := call(c1); err != nil || string(got) != "late" {
		t.Fatalf("first member: %q, %v", got, err)
	}
	if collating, finished, order := server.tables(); collating != 0 || finished != 1 || order != 1 {
		t.Fatalf("after finish: %d collating, %d finished, %d in order; want 0, 1, 1",
			collating, finished, order)
	}
	if got, err := call(c2); err != nil || string(got) != "late" {
		t.Fatalf("late member: %q, %v", got, err)
	}
	if n := mod.execs.Load(); n != 1 {
		t.Fatalf("late member caused re-execution: %d executions", n)
	}
	if n := countKind(rec, trace.KindDupCall); n != 1 {
		t.Fatalf("%d replayed replies traced, want 1", n)
	}
	if collating, _, _ := server.tables(); collating != 0 {
		t.Fatalf("late member re-created a collation record")
	}
}

// TestRetryAnsweredFromFinishedRecord: a client whose reply was lost
// retries on a new call number with the same thread path, as a
// resilient caller retrying one logical call does. The retry is
// answered from the finished record; the procedure runs once.
func TestRetryAnsweredFromFinishedRecord(t *testing.T) {
	net := netsim.New(92)
	opts := fastOpts()
	server := newRuntime(t, net, opts)
	mod := &echoModule{}
	addr := server.Export(mod, ExportOptions{})
	client := newRuntime(t, net, opts)
	tr := Troupe{Members: []ModuleAddr{addr}}

	// Lose everything the server sends the client until the retry.
	net.SetCapture(func(p transport.Packet) bool { return p.From == server.Addr() })
	tid := thread.ID{Host: 92, Proc: 1}
	call := func(timeout time.Duration) ([]byte, error) {
		return client.Call(context.Background(), tr, 1, []byte("retry"), CallOptions{
			thread: thread.Child(tid, []uint32{5}), Timeout: timeout})
	}
	if _, err := call(50 * time.Millisecond); err == nil {
		t.Fatal("first attempt succeeded with every reply lost")
	}
	waitUntil(t, "the call to finish at the server", func() bool {
		_, finished, _ := server.tables()
		return finished == 1
	})
	net.SetCapture(nil)

	got, err := call(0)
	if err != nil || string(got) != "retry" {
		t.Fatalf("retry: %q, %v", got, err)
	}
	if n := mod.execs.Load(); n != 1 {
		t.Fatalf("retry re-executed the call: %d executions", n)
	}
}

// TestFinishedCallsExpireOldestFirst: a finished record stays for its
// whole retention window, is gone once the window has passed, and the
// records expire in finish order.
func TestFinishedCallsExpireOldestFirst(t *testing.T) {
	net := netsim.New(93)
	opts := fastOpts()
	opts.CallRetention = time.Hour // the sweep loop never fires on its own
	server := newRuntime(t, net, opts)
	mod := &echoModule{}
	addr := server.Export(mod, ExportOptions{})
	client := newRuntime(t, net, opts)
	tr := Troupe{Members: []ModuleAddr{addr}}

	tid := thread.ID{Host: 93, Proc: 1}
	call := func(p uint32) {
		t.Helper()
		if _, err := client.Call(context.Background(), tr, 1, []byte("x"), CallOptions{
			thread: thread.Child(tid, []uint32{p})}); err != nil {
			t.Fatal(err)
		}
	}
	for p := uint32(1); p <= 3; p++ {
		call(p)
		time.Sleep(2 * time.Millisecond) // distinct finish times
	}
	server.callMu.Lock()
	var at []time.Duration
	for _, k := range server.finishedOrder {
		at = append(at, server.finished[k].at)
	}
	server.callMu.Unlock()
	if len(at) != 3 || !(at[0] < at[1] && at[1] < at[2]) {
		t.Fatalf("finish times in expiry order = %v, want three increasing", at)
	}

	keep := opts.CallRetention
	server.expireFinished(at[0] + keep) // oldest exactly one window old
	if _, finished, _ := server.tables(); finished != 3 {
		t.Fatalf("%d finished records at the end of the oldest one's window, want 3", finished)
	}
	server.expireFinished(at[0] + keep + 1)
	if _, finished, order := server.tables(); finished != 2 || order != 2 {
		t.Fatalf("after the oldest window: %d finished, %d in order; want 2, 2", finished, order)
	}
	// The oldest call is gone, so replaying it executes afresh; the
	// younger two still replay.
	call(1)
	call(2)
	if n := mod.execs.Load(); n != 4 {
		t.Fatalf("%d executions, want 4 (only the expired call re-runs)", n)
	}
	server.expireFinished(at[2] + keep + 1)
	if _, finished, _ := server.tables(); finished != 1 {
		t.Fatalf("%d finished records left, want only the re-run call", finished)
	}
}

// TestFinishedCallsSweptAfterRetention: the runtime's own sweep loop
// empties the finished table once the retention window has passed.
func TestFinishedCallsSweptAfterRetention(t *testing.T) {
	net := netsim.New(94)
	opts := fastOpts()
	opts.CallRetention = 40 * time.Millisecond
	server := newRuntime(t, net, opts)
	addr := server.Export(&echoModule{}, ExportOptions{})
	client := newRuntime(t, net, opts)
	tr := Troupe{Members: []ModuleAddr{addr}}
	for i := 0; i < 5; i++ {
		if _, err := client.Call(context.Background(), tr, 1, []byte("x"), CallOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "the finished table to empty", func() bool {
		_, finished, order := server.tables()
		return finished == 0 && order == 0
	})
}

// TestRetainedBytesPerFinishedCall pins what a finished call keeps for
// its retention window. The compact record is a map slot of 56 bytes
// (key header plus finishedCall) plus the key, the encoded reply and
// a FIFO slot; together with the two paired-message tombstones of the
// exchange (one per side) a call retained ~830 B of heap when the
// whole collation record stayed, and retains ~220 B now.
func TestRetainedBytesPerFinishedCall(t *testing.T) {
	if size := unsafe.Sizeof(finishedCall{}); size > 40 {
		t.Fatalf("finishedCall is %d bytes, want <= 40", size)
	}
	if raceEnabled {
		t.Skip("the race detector inflates heap figures")
	}
	net := netsim.New(95)
	opts := fastOpts()
	opts.CallRetention = time.Hour
	opts.Message.CompletedTTL = time.Hour
	server := newRuntime(t, net, opts)
	addr := server.Export(&echoModule{}, ExportOptions{})
	client := newRuntime(t, net, opts)
	tr := Troupe{Members: []ModuleAddr{addr}}
	args := []byte("0123456789abcdef")
	calls := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := client.Call(context.Background(), tr, 1, args, CallOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	settledHeap := func() uint64 {
		time.Sleep(100 * time.Millisecond) // final acks and worker retirement
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	calls(200) // sessions, pools and workers exist before the baseline
	before := settledHeap()
	const n = 6000
	calls(n)
	after := settledHeap()
	per := float64(int64(after)-int64(before)) / n
	t.Logf("retained %.0f B per finished call (record plus both tombstones)", per)
	if per > 400 {
		t.Fatalf("retained %.0f B per finished call, want <= 400", per)
	}
}

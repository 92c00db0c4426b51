package pairedmsg

import (
	"context"
	"math"
	"testing"
	"time"
	"unsafe"

	"circus/internal/netsim"
)

// TestTombstonesExpireAfterTTL: the tombstone of a delivered exchange
// stays for its whole CompletedTTL window and is gone once the window
// has passed, older exchanges first; ages stay exact across the wrap
// of the 32-bit millisecond clock.
func TestTombstonesExpireAfterTTL(t *testing.T) {
	if size := unsafe.Sizeof(doneRec{}); size > 8 {
		t.Fatalf("doneRec is %d bytes, want <= 8", size)
	}
	opts := fastOpts()
	opts.CompletedTTL = time.Hour // the timer's sweep never expires one on its own
	p := newPair(t, 41, netsim.LinkConfig{}, opts)
	var keys []sessKey
	for i := 0; i < 2; i++ {
		cn := p.a.NextCallNum(p.b.Addr())
		if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, []byte("t")); err != nil {
			t.Fatal(err)
		}
		if _, ok := recvMsg(t, p.b, time.Second); !ok {
			t.Fatal("call not delivered")
		}
		keys = append(keys, sessKey{typ: Call, callNum: cn})
		time.Sleep(3 * time.Millisecond) // distinct millisecond stamps
	}

	s := p.b.session(p.a.Addr())
	s.mu.Lock()
	defer s.mu.Unlock()
	older, newer := s.completed[keys[0]], s.completed[keys[1]]
	if older.total != 1 || newer.total != 1 || newer.at <= older.at {
		t.Fatalf("tombstones %+v, %+v: want one segment each, the second stamped later", older, newer)
	}
	ttl := p.b.ttlMs
	if ttl != uint32(opts.CompletedTTL.Milliseconds()) {
		t.Fatalf("ttlMs = %d, want %d", ttl, opts.CompletedTTL.Milliseconds())
	}
	has := func(k sessKey) bool { _, ok := s.completed[k]; return ok }
	s.expireCompletedLocked(older.at+ttl, ttl)
	if !has(keys[0]) || !has(keys[1]) {
		t.Fatal("a tombstone expired before the end of its window")
	}
	s.expireCompletedLocked(older.at+ttl+1, ttl)
	if has(keys[0]) || !has(keys[1]) {
		t.Fatalf("after the older window: older kept=%v, newer kept=%v; want false, true",
			has(keys[0]), has(keys[1]))
	}
	s.expireCompletedLocked(newer.at+ttl+1, ttl)
	if has(keys[1]) {
		t.Fatal("tombstone outlived its window")
	}

	wrapped := sessKey{typ: Call, callNum: 1 << 29}
	s.completed[wrapped] = doneRec{at: math.MaxUint32 - 5, total: 1}
	s.expireCompletedLocked(10, 100) // 16 ms old across the wrap
	if !has(wrapped) {
		t.Fatal("a young tombstone expired across the clock wrap")
	}
	s.expireCompletedLocked(200, 100)
	if has(wrapped) {
		t.Fatal("an old tombstone survived across the clock wrap")
	}
}

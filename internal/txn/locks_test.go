package txn

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestLockReentrant(t *testing.T) {
	lm := NewLockManager(DetectDeadlock)
	if err := lm.Acquire(1, "a", Read); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(1, "a", Read); err != nil {
		t.Fatalf("reentrant read: %v", err)
	}
	if err := lm.Acquire(1, "a", Write); err != nil {
		t.Fatalf("sole-holder upgrade: %v", err)
	}
	if m, ok := lm.Held(1, "a"); !ok || m != Write {
		t.Fatalf("held = %v, %v", m, ok)
	}
	lm.ReleaseAll(1)
	if _, ok := lm.Held(1, "a"); ok {
		t.Fatal("lock survived ReleaseAll")
	}
}

func TestWriterNotStarvedByReaders(t *testing.T) {
	lm := NewLockManager(DetectDeadlock)
	if err := lm.Acquire(1, "a", Read); err != nil {
		t.Fatal(err)
	}
	// A writer queues.
	wDone := make(chan error, 1)
	go func() { wDone <- lm.Acquire(2, "a", Write) }()
	time.Sleep(20 * time.Millisecond)
	// A later reader must not overtake the queued writer.
	rDone := make(chan error, 1)
	go func() { rDone <- lm.Acquire(3, "a", Read) }()
	select {
	case <-rDone:
		t.Fatal("reader overtook a queued writer")
	case <-time.After(50 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	if err := <-wDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	lm.ReleaseAll(2)
	if err := <-rDone; err != nil {
		t.Fatalf("reader after writer: %v", err)
	}
	lm.ReleaseAll(3)
}

// TestLockLivenessUnderRandomLoad: N workers run random acquire
// sequences; deadlock victims release and retry. The system must
// drain — no lost wakeups, no permanent wedge.
func TestLockLivenessUnderRandomLoad(t *testing.T) {
	for _, policy := range []Policy{DetectDeadlock, WaitDie} {
		lm := NewLockManager(policy)
		objects := []string{"a", "b", "c", "d"}
		const workers = 8
		const rounds = 50

		var wg sync.WaitGroup
		done := make(chan struct{})
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				id := uint64(w + 1)
				for r := 0; r < rounds; r++ {
					tx := id + uint64(r)*100 // fresh "transaction" per round
					n := 1 + rng.Intn(3)
					ok := true
					for i := 0; i < n; i++ {
						obj := objects[rng.Intn(len(objects))]
						mode := Mode(rng.Intn(2))
						if err := lm.Acquire(tx, obj, mode); err != nil {
							ok = false
							break // deadlock or wait-die: abort
						}
					}
					_ = ok
					lm.ReleaseAll(tx)
				}
			}()
		}
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("policy %v: lock manager wedged under random load", policy)
		}
	}
}

func TestDeadlockThreeWayCycle(t *testing.T) {
	lm := NewLockManager(DetectDeadlock)
	lm.Acquire(1, "a", Write)
	lm.Acquire(2, "b", Write)
	lm.Acquire(3, "c", Write)

	errs := make(chan error, 3)
	go func() { errs <- lm.Acquire(1, "b", Write) }()
	time.Sleep(20 * time.Millisecond)
	go func() { errs <- lm.Acquire(2, "c", Write) }()
	time.Sleep(20 * time.Millisecond)
	go func() { errs <- lm.Acquire(3, "a", Write) }() // closes the cycle

	select {
	case err := <-errs:
		if err != ErrDeadlock {
			t.Fatalf("err = %v, want ErrDeadlock", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("three-way deadlock not detected")
	}
	lm.ReleaseAll(1)
	lm.ReleaseAll(2)
	lm.ReleaseAll(3)
	// Drain the remaining outcomes (granted after releases, or
	// deadlock).
	for i := 0; i < 2; i++ {
		select {
		case <-errs:
		case <-time.After(2 * time.Second):
			t.Fatal("waiters not drained after releases")
		}
	}
}

// waitQueued blocks until n requests are queued on obj.
func waitQueued(t *testing.T, lm *LockManager, obj string, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		lm.mu.Lock()
		got := 0
		if ls := lm.locks[obj]; ls != nil {
			got = len(ls.queue)
		}
		lm.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d requests queued on %q, want %d", got, obj, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadlockAfterWakeRegrantsLock is the fixed interleaving behind
// the random-load wedge: a wake hands a lock to a new holder, so a
// reader still queued behind it gains a waits-for edge it never had
// at enqueue. T1 W(a), T2 W(b), T2 R(a) queues, T3 W(a) queues,
// ReleaseAll(T1) grants a to T3, then T3 W(b) closes T2→T3→T2. One of
// the two must get ErrDeadlock; the other proceeds once the victim
// releases.
func TestDeadlockAfterWakeRegrantsLock(t *testing.T) {
	lm := NewLockManager(DetectDeadlock)
	if err := lm.Acquire(1, "a", Write); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, "b", Write); err != nil {
		t.Fatal(err)
	}
	t2 := make(chan error, 1)
	go func() { t2 <- lm.Acquire(2, "a", Read) }()
	waitQueued(t, lm, "a", 1)
	t3 := make(chan error, 1)
	go func() {
		if err := lm.Acquire(3, "a", Write); err != nil {
			t3 <- err
			return
		}
		t3 <- lm.Acquire(3, "b", Write)
	}()
	waitQueued(t, lm, "a", 2)
	lm.ReleaseAll(1)

	var victim, survivor uint64
	var survivorErr chan error
	select {
	case err := <-t2:
		victim, survivor, survivorErr = 2, 3, t3
		if err != ErrDeadlock {
			t.Fatalf("T2 R(a) = %v, want ErrDeadlock (T3 must still be waiting)", err)
		}
	case err := <-t3:
		victim, survivor, survivorErr = 3, 2, t2
		if err != ErrDeadlock {
			t.Fatalf("T3 = %v, want ErrDeadlock (T2 must still be waiting)", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("T2 and T3 deadlocked undetected")
	}
	lm.ReleaseAll(victim)
	select {
	case err := <-survivorErr:
		if err != nil {
			t.Fatalf("T%d after the victim released: %v", survivor, err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("T%d still blocked after T%d released", survivor, victim)
	}
	lm.ReleaseAll(survivor)
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if len(lm.waitsFor) != 0 {
		t.Fatalf("waits-for relation not empty after all releases: %v", lm.waitsFor)
	}
}

// TestWaitDieReaderBehindOlderWriter: under WaitDie a queued reader
// also waits for every writer queued with it. When an older writer
// queues behind a younger reader, the reader is now waiting for an
// older transaction and must die — otherwise the writer, once granted,
// can wait for a lock the reader holds: T9 W(a), T5 W(b), T5 R(a)
// queues, T2 W(a) queues, ReleaseAll(T9) grants a to T2, T2 W(b).
func TestWaitDieReaderBehindOlderWriter(t *testing.T) {
	lm := NewLockManager(WaitDie)
	if err := lm.Acquire(9, "a", Write); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(5, "b", Write); err != nil {
		t.Fatal(err)
	}
	t5 := make(chan error, 1)
	go func() { t5 <- lm.Acquire(5, "a", Read) }()
	waitQueued(t, lm, "a", 1)
	t2 := make(chan error, 1)
	go func() {
		if err := lm.Acquire(2, "a", Write); err != nil {
			t2 <- err
			return
		}
		t2 <- lm.Acquire(2, "b", Write)
	}()
	select {
	case err := <-t5:
		if err != ErrWaitDie {
			t.Fatalf("T5 R(a) = %v, want ErrWaitDie", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("younger reader kept waiting for an older writer")
	}
	lm.ReleaseAll(9)
	lm.ReleaseAll(5)
	select {
	case err := <-t2:
		if err != nil {
			t.Fatalf("T2: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("T2 still blocked after T9 and T5 released")
	}
	lm.ReleaseAll(2)
}

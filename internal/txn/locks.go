package txn

import (
	"errors"
	"sync"

	"circus/internal/trace"
)

// Mode is a lock mode. Two-phase locking distinguishes read locks,
// which are compatible with one another, from exclusive write locks
// (§2.3.1: more sophisticated versions of two-phase locking allow
// operations that do not conflict to proceed concurrently).
type Mode int

const (
	// Read is a shared lock.
	Read Mode = iota
	// Write is an exclusive lock.
	Write
)

// ErrDeadlock reports that granting a lock would have created a cycle
// in the waits-for relation (§2.3.1); the requesting transaction
// should abort and retry, with binary exponential back-off under
// contention (§5.3.1).
var ErrDeadlock = errors.New("txn: deadlock detected")

// ErrWaitDie reports that a younger transaction tried to wait on an
// older one under the wait-die policy and must abort.
var ErrWaitDie = errors.New("txn: wait-die abort")

// Policy selects how lock conflicts that could deadlock are handled.
type Policy int

const (
	// DetectDeadlock builds the waits-for graph and aborts a
	// requester whose wait would close a cycle — the deadlock
	// detection of §2.3.1.
	DetectDeadlock Policy = iota
	// WaitDie is the timestamp-based prevention scheme of Rosenkrantz
	// et al. (§5.4): an older transaction may wait for a younger one,
	// but a younger transaction aborts instead of waiting. Transaction
	// IDs serve as timestamps.
	WaitDie
)

type waiter struct {
	tx    uint64
	mode  Mode
	ready chan struct{} // closed when granted
	err   error
}

type lockState struct {
	holders map[uint64]Mode
	queue   []*waiter
}

// LockManager implements two-phase locking over named objects with
// configurable deadlock handling.
type LockManager struct {
	policy Policy
	tr     trace.Sink // nil disables lock tracing

	mu    sync.Mutex
	locks map[string]*lockState
	// waitsFor[t] is the set of transactions t currently waits for —
	// the waits-for relation of §2.3.1 — rebuilt by refreshLocked
	// whenever a request queues or a wake grants locks.
	waitsFor map[uint64]map[uint64]bool
}

// NewLockManager returns an empty lock manager.
func NewLockManager(policy Policy) *LockManager {
	return &LockManager{
		policy:   policy,
		locks:    make(map[string]*lockState),
		waitsFor: make(map[uint64]map[uint64]bool),
	}
}

// SetTrace installs a sink recording lock grants and releases. Lock
// events carry the root transaction ID in Troupe, the object name in
// Detail, and the mode in N; they have no transport identity, so
// traces join them to call events by time and detail.
func (lm *LockManager) SetTrace(s trace.Sink) { lm.tr = s }

// Acquire obtains the lock on obj in the given mode on behalf of tx,
// blocking while conflicting transactions hold it. It returns
// ErrDeadlock (or ErrWaitDie) if waiting is not allowed.
// Reentrant acquisition and read-to-write upgrade are supported.
func (lm *LockManager) Acquire(tx uint64, obj string, mode Mode) error {
	lm.mu.Lock()
	ls, ok := lm.locks[obj]
	if !ok {
		ls = &lockState{holders: make(map[uint64]Mode)}
		lm.locks[obj] = ls
	}

	for {
		if lm.grantableLocked(ls, tx, mode) {
			if cur, held := ls.holders[tx]; !held || mode > cur {
				ls.holders[tx] = mode
			}
			lm.mu.Unlock()
			if lm.tr != nil {
				trace.Stamp(lm.tr, trace.Event{Kind: trace.KindLockAcquire,
					Troupe: tx, Detail: obj, N: int(mode)})
			}
			return nil
		}
		if lm.refusesWaitLocked(tx, lm.blockersLocked(ls, tx, mode)) {
			lm.mu.Unlock()
			return lm.abortErr()
		}

		w := &waiter{tx: tx, mode: mode, ready: make(chan struct{})}
		ls.queue = append(ls.queue, w)
		// A queued writer also blocks the readers queued before it.
		lm.refreshLocked()
		lm.mu.Unlock()

		<-w.ready

		lm.mu.Lock()
		if w.err != nil {
			lm.mu.Unlock()
			return w.err
		}
		// Re-check; another waiter may have been granted first.
	}
}

// grantableLocked reports whether tx may take obj's lock in mode now.
func (lm *LockManager) grantableLocked(ls *lockState, tx uint64, mode Mode) bool {
	for holder, hmode := range ls.holders {
		if holder == tx {
			continue
		}
		if mode == Write || hmode == Write {
			return false
		}
	}
	// Fairness: a read must not overtake a queued write from another
	// transaction (writer starvation), except when tx already holds
	// the lock (upgrade priority).
	if _, held := ls.holders[tx]; !held && mode == Read {
		for _, w := range ls.queue {
			if w.tx != tx && w.mode == Write {
				return false
			}
		}
	}
	return true
}

// blockersLocked returns the transactions tx would wait for.
func (lm *LockManager) blockersLocked(ls *lockState, tx uint64, mode Mode) map[uint64]bool {
	blockers := make(map[uint64]bool)
	for holder, hmode := range ls.holders {
		if holder == tx {
			continue
		}
		if mode == Write || hmode == Write {
			blockers[holder] = true
		}
	}
	if _, held := ls.holders[tx]; !held && mode == Read {
		for _, w := range ls.queue {
			if w.tx != tx && w.mode == Write {
				blockers[w.tx] = true
			}
		}
	}
	return blockers
}

// wouldDeadlockLocked reports whether adding edges tx→blockers closes
// a cycle in the waits-for graph.
func (lm *LockManager) wouldDeadlockLocked(tx uint64, blockers map[uint64]bool) bool {
	// DFS from each blocker looking for tx.
	seen := make(map[uint64]bool)
	var stack []uint64
	for b := range blockers {
		stack = append(stack, b)
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == tx {
			return true
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		for next := range lm.waitsFor[cur] {
			stack = append(stack, next)
		}
	}
	return false
}

// ReleaseAll releases every lock held by tx and wakes eligible
// waiters; 2PL requires each transaction to hold all locks until it
// commits or aborts (§2.3.1).
func (lm *LockManager) ReleaseAll(tx uint64) {
	if lm.tr != nil {
		trace.Stamp(lm.tr, trace.Event{Kind: trace.KindLockRelease, Troupe: tx})
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for obj, ls := range lm.locks {
		delete(ls.holders, tx)
		lm.wakeLocked(ls)
		if len(ls.holders) == 0 && len(ls.queue) == 0 {
			delete(lm.locks, obj)
		}
	}
	// The wakes changed who holds what: a waiter still queued may now
	// wait for a transaction it had no edge to.
	lm.refreshLocked()
}

// refusesWaitLocked reports whether the policy forbids tx waiting
// for blockers. Under WaitDie timestamps are transaction IDs, smaller
// is older, and a younger transaction dies instead of waiting for an
// older one; under DetectDeadlock a wait that closes a cycle in the
// waits-for relation is refused.
func (lm *LockManager) refusesWaitLocked(tx uint64, blockers map[uint64]bool) bool {
	if lm.policy == WaitDie {
		for b := range blockers {
			if tx > b {
				return true
			}
		}
		return false
	}
	return lm.wouldDeadlockLocked(tx, blockers)
}

// abortErr is the error a refused wait reports under the policy.
func (lm *LockManager) abortErr() error {
	if lm.policy == WaitDie {
		return ErrWaitDie
	}
	return ErrDeadlock
}

// refreshLocked rebuilds the waits-for relation from the lock table,
// so every queued waiter waits for exactly its current blockers. Those
// change whenever a request queues or a wake grants locks, and a wait
// allowed at enqueue may no longer be: a wake can hand the lock a
// reader queued for to a transaction that waits for the reader, or
// (under WaitDie) to one older than the reader. The youngest queued
// waiter (largest transaction ID) whose wait the policy now refuses
// is failed with the policy's error and its request withdrawn, and the
// relation is rebuilt again until every remaining wait is allowed.
func (lm *LockManager) refreshLocked() {
	for {
		clear(lm.waitsFor)
		for _, ls := range lm.locks {
			for _, w := range ls.queue {
				deps := lm.waitsFor[w.tx]
				if deps == nil {
					deps = make(map[uint64]bool)
					lm.waitsFor[w.tx] = deps
				}
				for b := range lm.blockersLocked(ls, w.tx, w.mode) {
					deps[b] = true
				}
			}
		}
		var victim *waiter
		var victimLock *lockState
		for _, ls := range lm.locks {
			for _, w := range ls.queue {
				if (victim == nil || w.tx > victim.tx) && lm.refusesWaitLocked(w.tx, lm.waitsFor[w.tx]) {
					victim, victimLock = w, ls
				}
			}
		}
		if victim == nil {
			return
		}
		for i, w := range victimLock.queue {
			if w == victim {
				victimLock.queue = append(victimLock.queue[:i:i], victimLock.queue[i+1:]...)
				break
			}
		}
		victim.err = lm.abortErr()
		close(victim.ready)
		// The withdrawn request may have held back the waiters behind it.
		lm.wakeLocked(victimLock)
	}
}

// wakeLocked grants queue entries that are now compatible, in FIFO
// order.
func (lm *LockManager) wakeLocked(ls *lockState) {
	var remaining []*waiter
	for i, w := range ls.queue {
		// Temporarily hide w from the queue so grantableLocked's
		// queued-writer check does not see w itself.
		rest := append(append([]*waiter(nil), ls.queue[:i]...), ls.queue[i+1:]...)
		saved := ls.queue
		ls.queue = rest
		ok := lm.grantableLocked(ls, w.tx, w.mode)
		ls.queue = saved
		if ok {
			if cur, held := ls.holders[w.tx]; !held || w.mode > cur {
				ls.holders[w.tx] = w.mode
			}
			close(w.ready)
		} else {
			remaining = append(remaining, w)
		}
	}
	ls.queue = remaining
}

// Held reports whether tx currently holds a lock on obj (for tests).
func (lm *LockManager) Held(tx uint64, obj string) (Mode, bool) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	ls, ok := lm.locks[obj]
	if !ok {
		return 0, false
	}
	m, ok := ls.holders[tx]
	return m, ok
}

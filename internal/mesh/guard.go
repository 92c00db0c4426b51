package mesh

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"circus/internal/core"
	"circus/internal/wire"
)

// Administrative procedure numbers of the guard, in the reserved
// region well clear of application procs (core reserves 0xFFFD-0xFFFF).
const (
	// ProcSetShardMap installs a shard map at every member of a shard
	// troupe (a replicated call, so members stay consistent). Maps only
	// move forward: an older epoch than the installed one is a no-op.
	ProcSetShardMap uint16 = 0xFF00
	// ProcGetShardMap returns the member's installed map.
	ProcGetShardMap uint16 = 0xFF01
	// ProcSpreadRead wraps an inner read so ONE member can answer it
	// alone: the request carries the client's position token, and the
	// member refuses (retryably, like a park) unless it has applied at
	// least that much state — the freshness check that lets a read skip
	// the strict replicated call without serving the client older state
	// than it has already seen.
	ProcSpreadRead uint16 = 0xFF02
)

// Positioned is the inner-module hook of the spread read: the member's
// absolute apply-order position, the same number the rejoin handshake
// exchanges (chaos KV's ProcPosition, the WAL position of durable
// stores). A module that cannot report a position cannot serve spread
// reads.
type Positioned interface {
	Position() int
}

// PlantedStaleReadBug, when true, makes every guard skip the
// position check and answer spread reads from whatever state it has —
// the planted defect the chaos campaigns must catch via the client's
// reply-position check. Test-only.
var PlantedStaleReadBug = false

// spreadReadArgs is the wire form of a spread read request: the
// client's position token plus the wrapped inner call.
type spreadReadArgs struct {
	MinPos uint64
	Proc   uint16
	Args   []byte
}

// spreadReadReply carries the serving member's position alongside the
// inner result, so the client can advance its token — and audit that
// the member really was at least as fresh as demanded.
type spreadReadReply struct {
	Pos  uint64
	Data []byte
}

// KeyFunc extracts the routing key from a call. guarded=false marks
// procedures outside the keyed data path — state transfer, repair,
// dumps, administrative deletes — which bypass the ownership check:
// they are issued by repairmen and migration coordinators that address
// a specific shard deliberately.
type KeyFunc func(proc uint16, args []byte) (key string, guarded bool)

// Guard wraps a shard's module with the server half of mesh routing:
// the ownership check that makes stale clients detectable. A keyed
// call for a key this shard no longer owns is refused with the
// owner's name and the guard's epoch — the partition-layer analogue of
// the stale-troupe-ID refusal of §6.2 — instead of being served from
// stale data. A key whose owner is parked (mid-migration) is refused
// with a retryable parked error.
//
// A guard with no installed map accepts everything: bootstrap order is
// register-then-publish, and a restarted member refetches the map from
// the Ringmaster before rejoining (see the chaos runner).
type Guard struct {
	self  string
	inner core.Module
	key   KeyFunc

	mu   sync.Mutex
	m    *ShardMap
	ring *Ring
}

// NewGuard wraps inner as shard self of a mesh service.
func NewGuard(self string, inner core.Module, key KeyFunc) *Guard {
	return &Guard{self: self, inner: inner, key: key}
}

var _ core.Module = (*Guard)(nil)
var _ core.StateProvider = (*Guard)(nil)

// Install installs m locally if it is newer than the current map —
// the bootstrap and restart-recovery path; live pushes arrive via
// ProcSetShardMap.
func (g *Guard) Install(m *ShardMap) {
	g.mu.Lock()
	if g.m == nil || m.Epoch > g.m.Epoch {
		g.m, g.ring = m, m.Ring()
	}
	g.mu.Unlock()
}

// Map returns the installed map, nil if none.
func (g *Guard) Map() *ShardMap {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.m
}

// Inner returns the wrapped module.
func (g *Guard) Inner() core.Module { return g.inner }

// Dispatch implements core.Module: admin procs, then the ownership
// check, then the wrapped module.
func (g *Guard) Dispatch(call *core.ServerCall, proc uint16, args []byte) ([]byte, error) {
	switch proc {
	case ProcSetShardMap:
		m, err := DecodeMap(args)
		if err != nil {
			return nil, err
		}
		g.Install(m)
		return nil, nil
	case ProcGetShardMap:
		g.mu.Lock()
		m := g.m
		g.mu.Unlock()
		if m == nil {
			return nil, errors.New("mesh: no shard map installed")
		}
		return m.Encode()
	case ProcSpreadRead:
		return g.spreadRead(call, args)
	}
	if key, guarded := g.key(proc, args); guarded {
		if err := g.checkOwnership(key); err != nil {
			return nil, err
		}
	}
	return g.inner.Dispatch(call, proc, args)
}

// checkOwnership refuses a keyed call this shard must not serve: the
// key's owner is parked (mid-migration) or is another shard entirely.
func (g *Guard) checkOwnership(key string) error {
	g.mu.Lock()
	m, ring := g.m, g.ring
	g.mu.Unlock()
	if m == nil {
		return nil
	}
	owner := ring.Owner(key)
	if m.IsParked(owner) {
		return fmt.Errorf("%s%d", parkedPrefix, m.Epoch)
	}
	if owner != g.self {
		return fmt.Errorf("%sepoch=%d owner=%s", wrongShardPrefix, m.Epoch, owner)
	}
	return nil
}

// spreadRead executes the one-member read path: the same ownership
// check as any keyed call, then the freshness check against the
// client's token, then the wrapped read. The position is captured
// BEFORE the inner dispatch and reported alongside the result — a
// lower bound on the state the answer reflects, so a client advancing
// its token to it never demands more than it was shown.
func (g *Guard) spreadRead(call *core.ServerCall, args []byte) ([]byte, error) {
	var a spreadReadArgs
	if err := wire.Unmarshal(args, &a); err != nil {
		return nil, fmt.Errorf("mesh: garbled spread read: %w", err)
	}
	key, guarded := g.key(a.Proc, a.Args)
	if !guarded {
		return nil, errors.New("mesh: spread read of an unguarded procedure")
	}
	if err := g.checkOwnership(key); err != nil {
		return nil, err
	}
	p, ok := g.inner.(Positioned)
	if !ok {
		return nil, errors.New("mesh: inner module does not report a position")
	}
	pos := uint64(p.Position())
	if pos < a.MinPos && !PlantedStaleReadBug {
		// Behind the client's token: this member has not yet applied
		// state the client has already observed. Refuse retryably — the
		// client bounces to a fresher member or escalates to the strict
		// replicated read.
		return nil, fmt.Errorf("%s%d need=%d", staleReadPrefix, pos, a.MinPos)
	}
	res, err := g.inner.Dispatch(call, a.Proc, a.Args)
	if err != nil {
		return nil, err
	}
	return wire.Marshal(spreadReadReply{Pos: pos, Data: res})
}

// guardState is the externalized guard: the installed map rides along
// with the inner module's state, so a member initialized by state
// transfer (§6.4.1) enforces the same epoch its donor did.
type guardState struct {
	Map   []byte // encoded ShardMap, empty = none installed
	Inner []byte
}

// GetState implements core.StateProvider.
func (g *Guard) GetState() ([]byte, error) {
	sp, ok := g.inner.(core.StateProvider)
	if !ok {
		return nil, errors.New("mesh: inner module does not support state transfer")
	}
	inner, err := sp.GetState()
	if err != nil {
		return nil, err
	}
	st := guardState{Inner: inner}
	g.mu.Lock()
	m := g.m
	g.mu.Unlock()
	if m != nil {
		if st.Map, err = m.Encode(); err != nil {
			return nil, err
		}
	}
	return wire.Marshal(st)
}

// SetState implements core.StateProvider.
func (g *Guard) SetState(data []byte) error {
	sp, ok := g.inner.(core.StateProvider)
	if !ok {
		return errors.New("mesh: inner module does not support state transfer")
	}
	var st guardState
	if err := wire.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("mesh: garbled guard state: %w", err)
	}
	if len(st.Map) > 0 {
		m, err := DecodeMap(st.Map)
		if err != nil {
			return err
		}
		g.Install(m)
	}
	return sp.SetState(st.Inner)
}

// The guard's refusals travel to clients as application errors; the
// prefixes are the wire protocol the client parses.
const (
	wrongShardPrefix = "mesh: wrong shard: "
	parkedPrefix     = "mesh: parked: epoch="
	staleReadPrefix  = "mesh: stale read: pos="
)

// WrongShard extracts a wrong-shard refusal from a call error,
// returning the owning shard and the refusing guard's epoch.
func WrongShard(err error) (owner string, epoch uint64, ok bool) {
	var app *core.AppError
	if !errors.As(err, &app) || !strings.HasPrefix(app.Msg, wrongShardPrefix) {
		return "", 0, false
	}
	if _, serr := fmt.Sscanf(app.Msg[len(wrongShardPrefix):], "epoch=%d owner=%s", &epoch, &owner); serr != nil {
		return "", 0, false
	}
	return owner, epoch, true
}

// StaleRead extracts a stale-read refusal from a call error, returning
// the refusing member's position and the position the client demanded.
func StaleRead(err error) (pos, need uint64, ok bool) {
	var app *core.AppError
	if !errors.As(err, &app) || !strings.HasPrefix(app.Msg, staleReadPrefix) {
		return 0, 0, false
	}
	if _, serr := fmt.Sscanf(app.Msg[len(staleReadPrefix):], "%d need=%d", &pos, &need); serr != nil {
		return 0, 0, false
	}
	return pos, need, true
}

// Parked extracts a parked refusal from a call error, returning the
// refusing guard's epoch.
func Parked(err error) (epoch uint64, ok bool) {
	var app *core.AppError
	if !errors.As(err, &app) || !strings.HasPrefix(app.Msg, parkedPrefix) {
		return 0, false
	}
	if _, serr := fmt.Sscanf(app.Msg[len(parkedPrefix):], "%d", &epoch); serr != nil {
		return 0, false
	}
	return epoch, true
}

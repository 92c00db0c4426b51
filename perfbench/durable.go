package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"circus"
	"circus/internal/wal"
)

// durable-kv-udp: a degree-3 troupe of durable stores over loopback
// UDP. Each member applies a put, logs it with AppendSync, and
// snapshots when the log asks; its disk is an in-memory one whose
// fsync takes a fixed delay. Writes overwrite a fixed keyspace round
// robin.
const (
	durService   = "dkv"
	durPutProc   = 1
	durKeys      = 4096
	durValBytes  = 128
	durSyncDelay = time.Millisecond
	durSnapEvery = 256
	durWAL       = "kv"
)

// durPut is a put's body and, unchanged, its log record.
type durPut struct {
	Key uint32
	Seq uint64
	Val string
}

func durValue(key uint32, seq uint64) string {
	v := fmt.Sprintf("%d#%d#", key, seq)
	return v + strings.Repeat("d", durValBytes-len(v))
}

// durableKV is one member's store. Records carry a per-key sequence
// number and the highest wins, so replaying them in any order rebuilds
// the same state.
type durableKV struct {
	e      *env
	member int
	log    *circus.WAL
	// ackEarly is a planted fault: the put is acknowledged once its
	// record is appended, before it is durable.
	ackEarly bool

	userBytes atomic.Int64
	snapping  atomic.Bool

	mu sync.Mutex
	m  map[uint32]durPut
}

func (s *durableKV) Dispatch(call *circus.ServerCall, proc uint16, args []byte) ([]byte, error) {
	if proc != durPutProc {
		return nil, fmt.Errorf("perfbench: durable store has no procedure %d", proc)
	}
	rid, body, err := splitRID(args)
	if err != nil {
		return nil, err
	}
	var p durPut
	st := s.e.tr.begin()
	err = circus.Unmarshal(body, &p)
	s.e.tr.end("wire.unmarshal", st, rid, s.member, call)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if cur, ok := s.m[p.Key]; !ok || p.Seq > cur.Seq {
		s.m[p.Key] = p
	}
	s.mu.Unlock()
	s.userBytes.Add(int64(len(body)))
	if s.ackEarly {
		_, err := s.log.Append(body)
		return nil, err
	}
	st = s.e.tr.begin()
	_, err = s.log.AppendSync(body)
	s.e.tr.end("wal.append", st, rid, s.member, call)
	if err != nil {
		return nil, err
	}
	if s.log.NeedSnapshot() && s.snapping.CompareAndSwap(false, true) {
		defer s.snapping.Store(false)
		st = s.e.tr.begin()
		err = s.snapshot()
		s.e.tr.end("wal.snapshot", st, rid, s.member, call)
		if err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// snapshot writes the state as of the log's current position. State
// and position are read under the store's lock: every record at or
// below the position was applied before it was appended.
func (s *durableKV) snapshot() error {
	s.mu.Lock()
	state := make([]durPut, 0, len(s.m))
	for _, p := range s.m {
		state = append(state, p)
	}
	pos := s.log.Pos()
	s.mu.Unlock()
	b, err := circus.Marshal(state)
	if err != nil {
		return err
	}
	return s.log.SnapshotAt(b, pos)
}

// recoverState rebuilds a store's state from what its log recovered.
func recoverState(rec *circus.WALRecovered) (map[uint32]durPut, error) {
	m := map[uint32]durPut{}
	apply := func(p durPut) {
		if cur, ok := m[p.Key]; !ok || p.Seq > cur.Seq {
			m[p.Key] = p
		}
	}
	if len(rec.Snapshot) > 0 {
		var state []durPut
		if err := circus.Unmarshal(rec.Snapshot, &state); err != nil {
			return nil, fmt.Errorf("decoding snapshot: %w", err)
		}
		for _, p := range state {
			apply(p)
		}
	}
	for _, r := range rec.Records {
		var p durPut
		if err := circus.Unmarshal(r, &p); err != nil {
			return nil, fmt.Errorf("decoding record: %w", err)
		}
		apply(p)
	}
	return m, nil
}

// probedFS wraps a member's disk to count the bytes written through it
// and time its fsyncs.
type probedFS struct {
	inner  wal.FS
	e      *env
	member int
	bytes  *atomic.Int64
}

type probedFile struct {
	wal.File
	fs *probedFS
}

func (f probedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f probedFile) Sync() error {
	st := f.fs.e.tr.begin()
	err := f.File.Sync()
	f.fs.e.tr.end("wal.fsync", st, 0, f.fs.member, nil)
	return err
}

func (p probedFS) Create(name string) (wal.File, error) {
	f, err := p.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return probedFile{File: f, fs: &p}, nil
}

func (p probedFS) ReadFile(name string) ([]byte, error) { return p.inner.ReadFile(name) }
func (p probedFS) List() ([]string, error)              { return p.inner.List() }
func (p probedFS) Remove(name string) error             { return p.inner.Remove(name) }
func (p probedFS) Rename(oldname, newname string) error { return p.inner.Rename(oldname, newname) }
func (p probedFS) Sub(name string) wal.FS {
	return probedFS{inner: p.inner.Sub(name), e: p.e, member: p.member, bytes: p.bytes}
}

type durableCluster struct {
	e       *env
	nodes   nodeSet
	disks   []*wal.MemFS
	stores  []*durableKV
	fsBytes atomic.Int64
	stub    *circus.Stub
	seqs    []atomic.Uint64 // last sequence number sent, per key
	acked   []atomic.Uint64 // highest acknowledged sequence number, per key
}

func buildDurableKV(e *env) (cluster, error) { return newDurableKV(e, false) }

func newDurableKV(e *env, ackEarly bool) (*durableCluster, error) {
	c := &durableCluster{e: e, seqs: make([]atomic.Uint64, durKeys), acked: make([]atomic.Uint64, durKeys)}
	fail := func(err error) (*durableCluster, error) {
		c.close()
		return nil, err
	}
	binder, err := circus.ListenUDP(0)
	if err != nil {
		return fail(err)
	}
	c.nodes = append(c.nodes, binder)
	if _, err := binder.ServeRingmaster(); err != nil {
		return fail(err)
	}
	boot := circus.WithBinder(binder.BinderAddrs())
	for i := 0; i < 3; i++ {
		disk := wal.NewMemFS(e.seed + int64(i))
		disk.SetSyncDelay(durSyncDelay)
		c.disks = append(c.disks, disk)
		n, err := circus.ListenUDP(0, boot, circus.WithDurability(circus.Durability{
			FS:            probedFS{inner: disk, e: e, member: i, bytes: &c.fsBytes},
			SnapshotEvery: durSnapEvery,
		}))
		if err != nil {
			return fail(err)
		}
		c.nodes = append(c.nodes, n)
		log, _, err := n.OpenWAL(durWAL)
		if err != nil {
			return fail(err)
		}
		s := &durableKV{e: e, member: i, log: log, ackEarly: ackEarly, m: make(map[uint32]durPut)}
		c.stores = append(c.stores, s)
		if _, err := n.Export(durService, e.timed(s, "core.exec", i, true)); err != nil {
			return fail(err)
		}
	}
	cl, err := circus.ListenUDP(0, boot)
	if err != nil {
		return fail(err)
	}
	c.nodes = append(c.nodes, cl)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err = e.tr.timeSetup("ringmaster.bind", func() (err error) {
		c.stub, err = cl.Import(ctx, durService)
		return err
	})
	if err != nil {
		return fail(err)
	}
	err = parallel(ctx, durKeys, 32, func(ctx context.Context, k int) error {
		return c.put(ctx, warmRIDs-1-uint64(k), uint32(k))
	})
	if err != nil {
		return fail(fmt.Errorf("preload: %w", err))
	}
	return c, nil
}

func (c *durableCluster) put(ctx context.Context, rid uint64, key uint32) error {
	seq := c.seqs[key].Add(1)
	st := c.e.tr.begin()
	body, err := circus.Marshal(durPut{Key: key, Seq: seq, Val: durValue(key, seq)})
	c.e.tr.end("wire.marshal", st, rid, client, nil)
	if err != nil {
		return err
	}
	st = c.e.tr.begin()
	_, err = c.stub.Call(ctx, durPutProc, withRID(rid, body))
	c.e.tr.end("core.call", st, rid, client, nil)
	if err != nil {
		return err
	}
	for a := c.acked[key].Load(); a < seq && !c.acked[key].CompareAndSwap(a, seq); a = c.acked[key].Load() {
	}
	return nil
}

func (c *durableCluster) op(ctx context.Context, rid uint64) error {
	return c.put(ctx, rid, uint32(rid%durKeys))
}

func (c *durableCluster) counters() map[string]float64 {
	m := map[string]float64{"wal.fs_bytes": float64(c.fsBytes.Load())}
	c.nodes.addMessageCounters(m)
	for _, s := range c.stores {
		st := s.log.Stats()
		m["wal.appends"] += float64(st.Appends)
		m["wal.fsyncs"] += float64(st.Fsyncs)
		m["wal.snapshots"] += float64(st.Snapshots)
		m["wal.user_bytes"] += float64(s.userBytes.Load())
	}
	return m
}

// verify powers off every member's disk, which drops what was not
// synced, reopens each log, and checks that every acknowledged write
// was recovered at every member.
func (c *durableCluster) verify(context.Context) error {
	for i, s := range c.stores {
		c.disks[i].Crash()
		c.disks[i].Restart()
		rec, err := s.log.Reopen()
		if err != nil {
			return fmt.Errorf("member %d: reopening log after power loss: %w", i, err)
		}
		state, err := recoverState(rec)
		if err != nil {
			return fmt.Errorf("member %d: %w", i, err)
		}
		lost := 0
		for k := range c.acked {
			want := c.acked[k].Load()
			got, ok := state[uint32(k)]
			if want == 0 {
				continue
			}
			if !ok || got.Seq < want || got.Val != durValue(uint32(k), got.Seq) {
				lost++
			}
		}
		if lost > 0 {
			return fmt.Errorf("member %d lost %d acknowledged writes in a power loss", i, lost)
		}
	}
	return nil
}

func (c *durableCluster) describe() map[string]any {
	return map[string]any{"fsync_delay_ms": ms(durSyncDelay), "snapshot_every": durSnapEvery}
}

func (c *durableCluster) close() { c.nodes.close() }

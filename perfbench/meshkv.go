package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"circus"
	"circus/internal/core"
	"circus/internal/mesh"
)

// mesh-kv-sim: 4 shards of degree 3 over the simulated 1 Mb/s wire,
// 512 keys of 128 B read with Zipf 1.1 skew; 90% spread reads and 10%
// strict writes through 2 client nodes.
const (
	kvService  = "kv"
	kvShards   = 4
	kvDegree   = 3
	kvKeys     = 512
	kvValBytes = 128
	kvZipf     = 1.1
	kvClients  = 2

	kvPut uint16 = 1
	kvGet uint16 = 2
)

type kvPair struct {
	Key string
	Val string
}

// kvStore is the keyed module behind each shard's ownership guard. It
// counts applied writes as its position, so it can serve spread reads.
type kvStore struct {
	e      *env
	member int

	mu  sync.Mutex
	m   map[string]string
	pos int
}

func (s *kvStore) Position() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pos
}

func (s *kvStore) Dispatch(call *circus.ServerCall, proc uint16, args []byte) ([]byte, error) {
	rid, body, err := splitRID(args)
	if err != nil {
		return nil, err
	}
	switch proc {
	case kvPut:
		var p kvPair
		st := s.e.tr.begin()
		err := circus.Unmarshal(body, &p)
		s.e.tr.end("wire.unmarshal", st, rid, s.member, call)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.m[p.Key] = p.Val
		s.pos++
		s.mu.Unlock()
		return nil, nil
	case kvGet:
		s.mu.Lock()
		v, ok := s.m[string(body)]
		s.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("perfbench: no key %q", body)
		}
		return []byte(v), nil
	}
	return nil, fmt.Errorf("perfbench: kv store has no procedure %d", proc)
}

// kvKeyOf is the guard's key extractor.
func kvKeyOf(proc uint16, args []byte) (string, bool) {
	_, body, err := splitRID(args)
	if err != nil {
		return "", false
	}
	switch proc {
	case kvPut:
		var p kvPair
		if err := circus.Unmarshal(body, &p); err != nil {
			return "", false
		}
		return p.Key, true
	case kvGet:
		return string(body), true
	}
	return "", false
}

func kvKey(n int) string { return fmt.Sprintf("key%04d", n) }

// kvValue is version ver of key's value: it names its key, so a read
// can tell it got its own key's value.
func kvValue(key string, ver int64) string {
	v := fmt.Sprintf("%s#%d#", key, ver)
	return v + strings.Repeat("v", kvValBytes-len(v))
}

// mix64 is splitmix64: the per-request draws are a pure function of
// the seed and the request id.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func unitDraw(seed int64, rid, stream uint64) float64 {
	return float64(mix64(uint64(seed)^mix64(rid^stream<<56))>>11) / (1 << 53)
}

// zipfCDF is the cumulative popularity of key ranks 0..n-1 under Zipf
// exponent s; rank k is key k.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

type meshKV struct {
	e       *env
	sim     *circus.SimNetwork
	nodes   nodeSet
	clients []*mesh.Client
	cdf     []float64
	vers    []atomic.Int64
	reads   atomic.Int64
}

// meshResilient is the client retry budget for a loaded, fault-free
// wire.
func meshResilient(seed int64) circus.ResilientOptions {
	return circus.ResilientOptions{
		MaxAttempts:  10,
		Backoff:      circus.Backoff{Initial: 15 * time.Millisecond, Max: 250 * time.Millisecond},
		SuspicionTTL: 400 * time.Millisecond,
		Seed:         seed,
	}
}

func buildMeshKV(e *env) (cluster, error) {
	c := &meshKV{e: e, sim: circus.NewSimNetwork(e.seed), cdf: zipfCDF(kvKeys, kvZipf),
		vers: make([]atomic.Int64, kvKeys)}
	// 1 Mb/s per host with 200-400 us of propagation: each member's
	// 128 B replies take over a millisecond of downlink, so member
	// links, not CPUs, set the pace.
	c.sim.SetLink(circus.LinkConfig{MinDelay: 200 * time.Microsecond,
		MaxDelay: 400 * time.Microsecond, BitsPerSecond: 1_000_000})
	fail := func(err error) (cluster, error) {
		c.close()
		return nil, err
	}
	newNode := func(opts ...circus.Option) (*circus.Node, error) {
		opts = append([]circus.Option{circus.WithTimers(100*time.Millisecond, 200*time.Millisecond),
			circus.WithManyToOneWait(2 * time.Second)}, opts...)
		n, err := c.sim.NewNode(opts...)
		if err == nil {
			c.nodes = append(c.nodes, n)
		}
		return n, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	binder, err := newNode()
	if err != nil {
		return fail(err)
	}
	if _, err := binder.ServeRingmaster(); err != nil {
		return fail(err)
	}
	boot := circus.WithBinder(binder.BinderAddrs())
	names := make([]string, kvShards)
	for s := range names {
		names[s] = fmt.Sprintf("%s/s%d", kvService, s)
		for i := 0; i < kvDegree; i++ {
			n, err := newNode(boot)
			if err != nil {
				return fail(err)
			}
			member := s*kvDegree + i
			store := e.timed(&kvStore{e: e, member: member, m: make(map[string]string)}, "core.exec", member, true)
			guard := e.timed(mesh.NewGuard(names[s], store, kvKeyOf), "mesh.guard", member, false)
			if _, err := n.Export(names[s], guard); err != nil {
				return fail(err)
			}
		}
	}
	admin, err := newNode(boot)
	if err != nil {
		return fail(err)
	}
	ctl := mesh.NewController(admin.Runtime(), admin.Binder(), kvService, nil)
	ctl.Resilient = meshResilient(e.seed ^ 0xc01)
	err = e.tr.timeSetup("ringmaster.bootstrap", func() error {
		_, err := ctl.Bootstrap(ctx, names, 256)
		return err
	})
	if err != nil {
		return fail(err)
	}
	for i := 0; i < kvClients; i++ {
		n, err := newNode(boot)
		if err != nil {
			return fail(err)
		}
		var mc *mesh.Client
		err = e.tr.timeSetup("ringmaster.bind", func() (err error) {
			mc, err = mesh.NewClient(ctx, n.Runtime(), n.Binder(), kvService,
				mesh.Options{Resilient: meshResilient(e.seed<<8 | int64(i))})
			return err
		})
		if err != nil {
			return fail(err)
		}
		c.clients = append(c.clients, mc)
	}
	// Preload every key through the write path, 16 writers at a time.
	err = parallel(ctx, kvKeys, 16, func(ctx context.Context, k int) error {
		return c.put(ctx, warmRIDs-1-uint64(k), k, c.clients[k%kvClients])
	})
	if err != nil {
		return fail(fmt.Errorf("preload: %w", err))
	}
	return c, nil
}

// parallel runs f(0..n-1) on workers goroutines and returns the first
// error.
func parallel(ctx context.Context, n, workers int, f func(ctx context.Context, i int) error) error {
	var next atomic.Int64
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					errs <- nil
					return
				}
				if err := f(ctx, i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	var first error
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (c *meshKV) put(ctx context.Context, rid uint64, k int, mc *mesh.Client) error {
	key := kvKey(k)
	st := c.e.tr.begin()
	body, err := circus.Marshal(kvPair{Key: key, Val: kvValue(key, c.vers[k].Add(1))})
	c.e.tr.end("wire.marshal", st, rid, client, nil)
	if err != nil {
		return err
	}
	st = c.e.tr.begin()
	_, err = mc.Call(ctx, key, kvPut, withRID(rid, body), core.CallOptions{Timeout: 5 * time.Second})
	c.e.tr.end("mesh.write", st, rid, client, nil)
	return err
}

func (c *meshKV) op(ctx context.Context, rid uint64) error {
	k := sort.SearchFloat64s(c.cdf, unitDraw(c.e.seed, rid, 1))
	k = min(k, kvKeys-1)
	mc := c.clients[rid%kvClients]
	if unitDraw(c.e.seed, rid, 2) < 0.1 {
		return c.put(ctx, rid, k, mc)
	}
	c.reads.Add(1)
	key := kvKey(k)
	st := c.e.tr.begin()
	v, err := mc.SpreadRead(ctx, key, kvGet, withRID(rid, []byte(key)), core.CallOptions{Timeout: 5 * time.Second})
	c.e.tr.end("mesh.read", st, rid, client, nil)
	if err != nil {
		return err
	}
	if len(v) != kvValBytes || !strings.HasPrefix(string(v), key+"#") {
		c.e.violate("read of %s returned %.24q, not that key's value", key, v)
		return fmt.Errorf("read of %s: wrong value", key)
	}
	return nil
}

func (c *meshKV) counters() map[string]float64 {
	m := map[string]float64{"mesh.reads": float64(c.reads.Load())}
	c.nodes.addMessageCounters(m)
	addSimCounters(m, c.sim)
	for _, mc := range c.clients {
		st := mc.Stats()
		m["mesh.redirects"] += float64(st.Redirects)
		m["mesh.refreshes"] += float64(st.Refreshes)
		m["mesh.spread_reads"] += float64(st.SpreadReads)
		m["mesh.stale_bounces"] += float64(st.StaleBounces)
		m["mesh.escalations"] += float64(st.Escalations)
		m["mesh.hot_widenings"] += float64(st.HotWidenings)
		m["mesh.stale_serves"] += float64(st.StaleServes)
	}
	return m
}

// verify fails on any spread read a member served from behind the
// client's position token.
func (c *meshKV) verify(context.Context) error {
	if n := c.counters()["mesh.stale_serves"]; n > 0 {
		return fmt.Errorf("%v spread reads served stale state", n)
	}
	return nil
}

func (c *meshKV) close() { c.nodes.close() }
